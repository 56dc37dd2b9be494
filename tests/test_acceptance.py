"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (run with -s to see them inline).

The benchmark matrix (criterion 1) and the robustness fuzz (criterion 2)
dominate the runtime; the whole module takes a few minutes.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from byzsim.aggregators import AggregatorSpec, theoretical_kappa
from byzsim.attacks import AttackSpec
from byzsim.core import RngStream
from byzsim.engine import RunConfig, Schedule, gamma0_cap, run
from byzsim.harness import load_manifest, run_sweep
from byzsim.objectives import (
    ObjectiveSpec,
    OracleConfig,
    SmoothnessMeta,
    default_smoothness,
)
from byzsim.cli import BATTERY
from byzsim.verify import check_descent, check_gradient, check_l0l1, heterogeneity

JOBS = min(4, os.cpu_count() or 1)
TABLE1 = Path(__file__).resolve().parent.parent / "configs" / "table1.json"
QUARTIC = ObjectiveSpec(kind="quartic", dim=10)

ATTACKS = ("alie", "bit_flip", "mimic")
AGGREGATORS = ("cwmed+nnm", "gm+nnm", "krum+nnm")


def quartic_run(
    n=20, B=0, rule="mean", nnm=False, attack="none", schedule=None,
    K=500, seed=1, noise=0.0, shifts=0.0, log_every=1, capture=False,
):
    cfg = RunConfig(
        objective=QUARTIC,
        oracle=OracleConfig(noise_variance=noise, shift_variance=shifts),
        n=n,
        B=B,
        attack=AttackSpec(kind=attack),
        aggregator=AggregatorSpec(rule=rule, nnm=nnm),
        schedule=schedule or Schedule(kind="constant", gamma0=0.01, momentum_beta=0.9),
        optimizer="byz_nsgdm",
        K=K,
        seed=seed,
        x0=np.ones(10),
        log_every=log_every,
    )
    return cfg, run(cfg, capture_states=capture)


@pytest.fixture(scope="module")
def benchmark_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    return run_sweep(load_manifest(TABLE1), out, jobs=JOBS), out


def test_criterion_1_benchmark_matrix(benchmark_table):
    """Tuned byz_nsgdm lands in [1e-6, 2e-5] and beats both baselines by
    at least 1.5x in every attack x aggregator cell."""
    table, _ = benchmark_table
    worst_ratio = math.inf
    for attack in ATTACKS:
        for agg in AGGREGATORS:
            ours = table.cell(attack, agg, "byz_nsgdm")
            base = table.cell(attack, agg, "baseline")
            decay = table.cell(attack, agg, "baseline_decay")
            assert len(ours.finite_values) == 3, (attack, agg, "diverged seed")
            mean = ours.mean
            assert 1e-6 <= mean <= 2e-5, (attack, agg, mean)
            better = min(base.mean, decay.mean)  # diverged -> inf, still a win
            assert mean < base.mean and mean < decay.mean, (attack, agg)
            ratio = better / mean
            assert ratio >= 1.5, (attack, agg, ratio)
            worst_ratio = min(worst_ratio, ratio)
    print(
        f"\nACCEPTANCE 1 PASS - benchmark matrix: all 9 cells in [1e-6, 2e-5], "
        f"worst improvement factor {worst_ratio:.2f}x (>= 1.5x)"
    )


def test_criterion_2_robustness_certification():
    """gm and cwmed (bare and NNM-composed) survive 1e4 adversarial fuzz
    instances at their closed-form coefficients; the plain mean breaks.
    These are the ``byzsim verify`` battery's entries, run at 1e4 trials:
    the certified rules share one pass over stream (2024, 1), the mean
    draws from (2024, 3)."""
    n, B, d = 20, 3, 10
    trials = 10_000
    kappa_gm = 2.0 * (1.0 + B / (n - 2 * B))
    kappa_cw = 2.0 * math.sqrt(d) * (1.0 + B / (n - 2 * B))
    assert theoretical_kappa(AggregatorSpec(rule="gm"), n, B, d) == pytest.approx(kappa_gm)
    assert theoretical_kappa(AggregatorSpec(rule="cwmed"), n, B, d) == pytest.approx(kappa_cw)

    entries = {c.names: c for c in BATTERY if c.names[0].startswith("robustness[")}
    names = tuple(f"robustness[{rule}]" for rule in ("gm+nnm", "cwmed+nnm", "gm", "cwmed"))
    check = entries[names]
    assert check.expect == "certified"
    margins = {}
    for rep in check.make(2024, trials):
        assert (rep.instances, rep.parameters["tol_rel"]) == (trials, 1e-9)
        assert rep.violations == 0, rep.name
        assert rep.parameters["kappa_empirical"] <= rep.parameters["kappa_theoretical"]
        margins[rep.name] = rep.worst_margin
    assert tuple(margins) == names

    check = entries[("robustness[mean]",)]
    assert check.expect == "teeth"
    [mean_rep] = check.make(2024, trials)
    assert mean_rep.parameters["kappa_theoretical"] == 1e6
    assert mean_rep.instances == 1000
    assert mean_rep.violations > 0, "fuzzer lost its teeth: plain mean survived"
    print(
        f"\nACCEPTANCE 2 PASS - robustness: 0 violations over {trials} instances "
        f"for {sorted(margins)}, mean violated {mean_rep.violations}/1000 times"
    )


def test_criterion_3_l0l1_property_suite():
    """(12, 3) passes 1e4 random segments in the radius-5 ball; a bogus
    (1e-6, 1e-6) pair is caught. The segments are the ``byzsim verify``
    battery's ``l0l1[quartic]`` entry, run at 1e4 trials: stream (7, 4)."""
    meta = default_smoothness(QUARTIC)
    assert (meta.L0, meta.L1) == (12.0, 3.0)
    [check] = [c for c in BATTERY if c.names == ("l0l1[quartic]",)]
    assert check.expect == "certified"
    [rep] = check.make(7, 10_000)
    params = rep.parameters
    assert (rep.instances, params["L0"], params["L1"], params["radius"], params["tol"]) == (
        10_000, 12.0, 3.0, 5.0, 1e-9)
    assert rep.violations == 0
    bad = check_l0l1(QUARTIC, SmoothnessMeta(L0=1e-6, L1=1e-6, f_star=0.0),
                     1000, radius=5.0, rng=RngStream(7, 2), tol=1e-9)
    assert bad.violations > 0
    print(
        f"\nACCEPTANCE 3 PASS - smoothness: 0/{rep.instances} violations at (12, 3), "
        f"worst margin {rep.worst_margin:.3g}; wrong constants flagged "
        f"{bad.violations} times"
    )


def test_criterion_4_descent_along_trajectories():
    """The per-step descent inequality holds at 1e-7 relative tolerance on
    normalized runs whose base step respects the guarantee cap."""
    meta = default_smoothness(QUARTIC)
    total = 0
    for rule, nnm, attack, B, noise, shifts in [
        ("mean", False, "none", 0, 0.0, 0.0),
        ("gm", True, "bit_flip", 3, 1e-5, 1e-3),
        ("cwmed", True, "alie", 3, 1e-5, 1e-3),
        ("gm", False, "mimic", 3, 1e-10, 1e-6),
    ]:
        kappa = theoretical_kappa(AggregatorSpec(rule=rule), 20, B, 10) or 0.0
        cap = gamma0_cap(meta.L1, kappa, 500)
        cfg, res = quartic_run(
            B=B, rule=rule, nnm=nnm, attack=attack, noise=noise, shifts=shifts,
            schedule=Schedule(kind="constant", gamma0=0.9 * cap, momentum_beta=0.9),
            K=500, capture=True,
        )
        assert cfg.schedule.gamma0 <= cap
        rep = check_descent(res, cfg, meta, tol_rel=1e-7)
        assert rep.violations == 0, (rule, attack)
        total += rep.instances
    print(f"\nACCEPTANCE 4 PASS - descent inequality: 0/{total} step violations at 1e-7")


def test_criterion_5_gradient_correctness():
    """Central differences match analytic gradients to 1e-5 relative error
    at 100 random points per objective."""
    specs = [
        QUARTIC,
        ObjectiveSpec(kind="exponential", dim=5, direction=(0.5, -0.2, 0.1, 0.7, -0.4)),
        ObjectiveSpec(kind="softmax", dim=15, n_classes=3, feature_dim=5,
                      feature_seed=13, samples_per_worker=25, n_workers=6),
    ]
    for spec in specs:
        rep = check_gradient(spec, 100, h=1e-5, rng=RngStream(11, 3), tol=1e-5)
        assert rep.violations == 0, spec.kind
    print("\nACCEPTANCE 5 PASS - gradients: finite differences match for "
          "quartic/exponential/softmax at 100 points each")


def test_criterion_6_bias_floor():
    """Homogeneous noiseless runs drive the gradient arbitrarily low;
    heterogeneous attacked runs stall at a strictly positive floor, which
    is reported next to the 4*kappa*zeta bound (an upper bound, not an
    equality)."""
    _, clean = quartic_run(
        schedule=Schedule(kind="theoretical", gamma0=1.0, horizon=4096),
        K=4096,
    )
    clean_min = min(r.grad_norm for r in clean.records)
    assert clean_min <= 1e-3

    cfg, attacked = quartic_run(
        B=3, rule="cwmed", attack="bit_flip", noise=1e-5, shifts=1e-3,
        schedule=Schedule(kind="practical_decay", gamma0=0.1, momentum_beta=0.9),
        K=2000,
    )
    tail = [r.grad_norm for r in attacked.records if r.k >= 1000]
    floor = min(tail)
    assert floor >= 1e-4  # strictly positive stall, far above the clean run
    zeta = heterogeneity(attacked.honest_shifts)
    kappa = theoretical_kappa(cfg.aggregator, cfg.n, cfg.B, 10)
    bound = 4 * kappa * zeta
    assert floor <= bound
    print(
        f"\nACCEPTANCE 6 PASS - bias floor: clean min {clean_min:.2e} <= 1e-3; "
        f"heterogeneous stall floor {floor:.2e} > 0 "
        f"(measured zeta {zeta:.3g}, bound 4*kappa*zeta = {bound:.3g})"
    )


def test_criterion_7_rate_shape():
    """Attack-free, heterogeneity-free runs improve monotonically with the
    horizon; the log-log slope across K in {256, 1024, 4096} is negative."""
    mins = []
    for K in (256, 1024, 4096):
        _, res = quartic_run(
            noise=1e-5,
            schedule=Schedule(kind="theoretical", gamma0=0.5, horizon=K),
            K=K,
        )
        mins.append(min(r.grad_norm for r in res.records))
    assert mins[0] >= mins[1] >= mins[2]
    slope = (math.log(mins[2]) - math.log(mins[0])) / (math.log(4097) - math.log(257))
    assert slope < 0
    print(
        "\nACCEPTANCE 7 PASS - rate shape: min grad norms "
        + " -> ".join(f"{m:.3e}" for m in mins)
        + f", log-log slope {slope:.2f}"
    )


def test_criterion_8_determinism(tmp_path, benchmark_table):
    """Identical configs give byte-identical CSVs, independent of the
    process count used for sweeps."""
    from byzsim.cli import main
    from byzsim.harness import ExperimentManifest

    config = {
        "schema": 1,
        "objective": {"kind": "quartic", "dim": 10},
        "oracle": {"noise_variance": 1e-5, "shift_variance": 1e-3},
        "n": 20, "B": 3,
        "attack": {"kind": "alie"},
        "aggregator": {"rule": "gm", "nnm": True},
        "schedule": {"kind": "practical_decay", "gamma0": 0.1, "momentum_beta": 0.9},
        "optimizer": "byz_nsgdm",
        "K": 200, "seed": 5, "x0": "ones", "log_every": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b

    manifest = {
        "schema": 1,
        "base": {**config, "K": 100},
        "sweep": {
            "seeds": [1, 2],
            "attacks": [{"kind": "bit_flip"}, {"kind": "alie"}],
            "aggregators": [{"rule": "gm", "nnm": True}],
            "optimizers": ["byz_nsgdm"],
        },
        "tuning": {"enabled": False},
    }
    run_sweep(ExperimentManifest.from_dict(manifest), tmp_path / "j1", jobs=1)
    run_sweep(ExperimentManifest.from_dict(manifest), tmp_path / "j2", jobs=2)
    compared = 0
    for p1 in sorted((tmp_path / "j1").rglob("*.csv")):
        p2 = tmp_path / "j2" / p1.relative_to(tmp_path / "j1")
        assert p1.read_bytes() == p2.read_bytes(), p1
        compared += 1
    assert compared == 4
    print(
        "\nACCEPTANCE 8 PASS - determinism: repeated runs and --jobs 1 vs 2 "
        f"sweeps byte-identical across {compared} trajectory files"
    )
