import json
import math

import numpy as np
import pytest

from byzsim.aggregators import AggregatorSpec, aggregate, theoretical_kappa
from byzsim.attacks import AttackSpec
from byzsim.core import ConfigError, RngStream
from byzsim.engine import RunConfig, Schedule, gamma0_cap, run
from byzsim.objectives import (
    ObjectiveSpec,
    OracleConfig,
    SmoothnessMeta,
    default_smoothness,
)
from byzsim.verify import (
    check_descent,
    check_gradient,
    check_l0l1,
    check_robustness,
    measure_heterogeneity,
)

QUARTIC = ObjectiveSpec(kind="quartic", dim=10)


# ---------------------------------------------------------------------------
# Robustness fuzzing


@pytest.mark.parametrize("rule,nnm", [("gm", False), ("cwmed", False),
                                      ("gm", True), ("cwmed", True)])
def test_certified_rules_have_no_violations(rule, nnm):
    spec = AggregatorSpec(rule=rule, n=20, B=3, nnm=nnm)
    rep = check_robustness(spec, 500, 10, RngStream(1, 0))
    assert rep.violations == 0
    assert rep.worst_margin >= 0


def test_certified_small_configurations():
    for n, B, d in [(5, 1, 1), (7, 2, 3), (12, 5, 10)]:
        for rule in ("gm", "cwmed"):
            spec = AggregatorSpec(rule=rule, n=n, B=B)
            rep = check_robustness(spec, 300, d, RngStream(2, n * 100 + B))
            assert rep.violations == 0, (rule, n, B, d)


def test_nnm_without_byzantines_is_exact():
    """B=0 composes to a zero coefficient: mixing maps every input to the
    global mean, so the aggregate must coincide with it."""
    for rule in ("gm", "cwmed"):
        spec = AggregatorSpec(rule=rule, n=6, B=0, nnm=True)
        rep = check_robustness(spec, 200, 4, RngStream(12, 0))
        assert rep.violations == 0, rule


def test_empirical_kappa_below_theoretical():
    spec = AggregatorSpec(rule="gm", n=20, B=3)
    rep = check_robustness(spec, 500, 10, RngStream(3, 0))
    assert rep.parameters["kappa_empirical"] <= rep.parameters["kappa_theoretical"]


def test_mean_must_violate():
    """Fuzzer sanity: the plain mean with one Byzantine slot breaks any
    finite coefficient."""
    spec = AggregatorSpec(rule="mean", n=20, B=3)
    rep = check_robustness(spec, 200, 10, RngStream(4, 0), kappa=1e6)
    assert rep.violations > 0
    assert rep.worst_margin < 0


def test_uncertified_rules_report_only():
    for rule in ("krum", "trimmed_mean"):
        spec = AggregatorSpec(rule=rule, n=20, B=3)
        rep = check_robustness(spec, 200, 10, RngStream(5, 0))
        assert rep.violations == 0  # nothing asserted
        assert not rep.parameters["asserted"]
        assert rep.parameters["kappa_empirical"] > 0


def test_median_ignores_single_huge_outlier():
    spec = AggregatorSpec(rule="cwmed", n=3, B=1)
    out = aggregate(spec, np.array([[0.0], [0.0], [1e9]]))
    assert out[0] == 0.0


def test_definition_bound_on_degenerate_cluster():
    """Identical good vectors with huge outliers: the aggregate must sit
    on the cluster up to the scale-aware tolerance the checker uses."""
    mat = np.zeros((20, 10))
    mat[:17] = 1.234
    mat[17:] = 1e9 / math.sqrt(10)
    for nnm in (False, True):
        spec = AggregatorSpec(rule="gm", n=20, B=3, nnm=nnm)
        agg = aggregate(spec, mat)
        lhs = np.linalg.norm(agg - mat[0])
        maxdev = np.linalg.norm(mat[17] - mat[0])
        assert lhs <= 1e-9 * maxdev  # dispersion is 0, bound reduces to tolerance


def test_report_roundtrip_and_determinism():
    spec = AggregatorSpec(rule="gm", n=8, B=2)
    rep1 = check_robustness(spec, 100, 4, RngStream(6, 0))
    rep2 = check_robustness(spec, 100, 4, RngStream(6, 0))
    assert rep1.as_dict() == rep2.as_dict()
    parsed = json.loads(rep1.to_json())
    assert parsed["instances"] == 100
    assert parsed["name"] == "robustness[gm]"


# ---------------------------------------------------------------------------
# Smoothness


def test_quartic_l0l1_clean():
    rep = check_l0l1(QUARTIC, default_smoothness(QUARTIC), 1000, radius=5.0,
                     rng=RngStream(7, 0))
    assert rep.violations == 0
    assert rep.worst_margin >= 0


def test_quartic_l0l1_wrong_constants_detected():
    rep = check_l0l1(QUARTIC, SmoothnessMeta(L0=1e-6, L1=1e-6, f_star=0.0),
                     100, radius=5.0, rng=RngStream(7, 1))
    assert rep.violations > 0


def test_l0l1_degenerate_segment():
    """x == y segments hold trivially; run with radius 0 so every draw
    collapses."""
    rep = check_l0l1(QUARTIC, default_smoothness(QUARTIC), 10, radius=0.0,
                     rng=RngStream(7, 2))
    assert rep.violations == 0


def test_exponential_l0l1():
    spec = ObjectiveSpec(kind="exponential", dim=4, direction=(0.3, -0.2, 0.1, 0.4))
    rep = check_l0l1(spec, default_smoothness(spec), 500, radius=3.0,
                     rng=RngStream(7, 3))
    assert rep.violations == 0


def test_l0l1_needs_known_minimum():
    """The gradient-norm lower bound needs f*; softmax declares none."""
    spec = ObjectiveSpec(kind="softmax", dim=15, n_classes=3, feature_dim=5, feature_seed=7,
                         samples_per_worker=20, n_workers=5)
    assert default_smoothness(spec).f_star is None
    with pytest.raises(ConfigError, match="needs a known minimum f_star"):
        check_l0l1(spec, default_smoothness(spec), 10, radius=1.0, rng=RngStream(7, 4))


# ---------------------------------------------------------------------------
# Gradients


@pytest.mark.parametrize("spec", [
    QUARTIC,
    ObjectiveSpec(kind="exponential", dim=3, direction=(0.5, -0.25, 1.0)),
    ObjectiveSpec(kind="softmax", dim=15, n_classes=3, feature_dim=5,
                  feature_seed=7, samples_per_worker=20, n_workers=5),
], ids=lambda s: s.kind)
def test_check_gradient_passes(spec):
    rep = check_gradient(spec, 30, rng=RngStream(8, 0))
    assert rep.violations == 0


def test_check_gradient_at_origin():
    rep = check_gradient(QUARTIC, 5, rng=RngStream(8, 1), radius=0.0)
    assert rep.violations == 0


# ---------------------------------------------------------------------------
# Descent


def descent_config(**kw):
    defaults = dict(
        objective=QUARTIC,
        oracle=OracleConfig(noise_variance=0.0, shift_variance=0.0),
        n=1,
        B=0,
        attack=AttackSpec(kind="none"),
        aggregator=AggregatorSpec(rule="mean", n=1, B=0),
        schedule=Schedule(kind="constant", gamma0=0.01, momentum_beta=0.9),
        optimizer="byz_nsgdm",
        K=200,
        seed=0,
        x0=np.ones(10),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_descent_noiseless_single_worker():
    cfg = descent_config()
    res = run(cfg, capture_states=True)
    rep = check_descent(res, cfg)
    assert rep.violations == 0
    assert rep.instances == 200


def test_descent_under_attack_within_cap():
    kappa = theoretical_kappa(AggregatorSpec(rule="gm", n=20, B=3), d=10)
    cap = gamma0_cap(3.0, kappa, 300)
    cfg = descent_config(
        n=20, B=3,
        oracle=OracleConfig(noise_variance=1e-5, shift_variance=1e-3),
        attack=AttackSpec(kind="bit_flip"),
        aggregator=AggregatorSpec(rule="gm", n=20, B=3, nnm=True),
        schedule=Schedule(kind="constant", gamma0=min(0.01, cap), momentum_beta=0.9),
        K=300, seed=2,
    )
    res = run(cfg, capture_states=True)
    rep = check_descent(res, cfg)
    assert rep.violations == 0


def test_descent_zero_step_iterations():
    """Starting at the stationary point with no noise keeps the aggregate
    at zero; the inequality still holds on every (zero) step."""
    cfg = descent_config(x0=np.zeros(10), K=10)
    res = run(cfg, capture_states=True)
    assert all(r.step_size == 0.0 for r in res.records[1:])
    rep = check_descent(res, cfg)
    assert rep.violations == 0


def test_descent_requires_capture():
    cfg = descent_config(K=5)
    res = run(cfg)
    with pytest.raises(ConfigError):
        check_descent(res, cfg)


# ---------------------------------------------------------------------------
# Heterogeneity


def test_heterogeneity_zero_shifts():
    z = measure_heterogeneity(QUARTIC, OracleConfig(shift_variance=0.0), 5,
                              RngStream(9, 0), G=4)
    assert z == 0.0


def test_heterogeneity_explicit_shifts():
    s = np.zeros(10)
    s[0] = 1.0
    z = measure_heterogeneity(QUARTIC, OracleConfig(), 5, RngStream(9, 1),
                              shifts=[s, -s])
    assert z == pytest.approx(1.0)


def test_heterogeneity_matches_rms_of_shifts():
    rng = RngStream(9, 2)
    from byzsim.objectives import make_shifts

    shifts = make_shifts(rng, 8, 10, 1e-3)
    z = measure_heterogeneity(QUARTIC, OracleConfig(), 7, RngStream(9, 3), shifts=shifts)
    expected = math.sqrt(float(np.mean([np.dot(s, s) for s in shifts])))
    assert z == pytest.approx(expected, rel=1e-12)
