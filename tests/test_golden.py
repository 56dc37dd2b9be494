"""Golden trajectory pins.

Each config below is run and its trajectory CSV, exactly as
``write_trajectory_csv`` writes it, is hashed with sha256. Two more pins
cover the sweep path: every output file of a shortened
``configs/table1.json`` sweep, and the final gradient norms of a
shortened ``configs/ablation.json``. One more covers the 12 reports of
``byzsim verify --trials 150 --seed 1``. A change to the engine, the
oracle, the attacks, the rules, the sweep cells or the verify checks that
alters one output bit fails here; a change that means to alter bits must
say so and re-pin. Every run is short (K <= 150), so the module takes
seconds.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from byzsim.aggregators import aggregate
from byzsim.cli import main
from byzsim.core import SHIFT_STREAM, RngStream
from byzsim.engine import run, schedule_values
from byzsim.harness import ExperimentManifest, parse_config, run_sweep, write_trajectory_csv
from byzsim.objectives import make_shifts, softmax_dataset, worker_shard
from reference_engine import stochastic_gradient

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

QUARTIC = {
    "schema": 1,
    "objective": {"kind": "quartic", "dim": 10},
    "oracle": {"noise_variance": 1e-6, "shift_variance": 1e-4},
    "n": 20,
    "B": 3,
    "attack": {"kind": "alie"},
    "aggregator": {"rule": "gm", "nnm": True},
    "schedule": {"kind": "practical_decay", "gamma0": 0.05, "momentum_beta": 0.9},
    "optimizer": "byz_nsgdm",
    "K": 150,
    "seed": 7,
    "x0": "ones",
    "log_every": 1,
}

SOFTMAX_OBJECTIVE = {"kind": "softmax", "dim": 12, "n_classes": 4, "feature_dim": 3,
                     "feature_seed": 2, "samples_per_worker": 10, "n_workers": 6}

SOFTMAX = {
    "schema": 1,
    "objective": SOFTMAX_OBJECTIVE,
    "oracle": {"noise_variance": 1e-4, "shift_variance": 0.0},
    "n": 6,
    "B": 2,
    "attack": {"kind": "label_flip", "label_shift": 2},
    "aggregator": {"rule": "gm", "nnm": True},
    "schedule": {"kind": "constant", "gamma0": 0.05, "momentum_beta": 0.9},
    "optimizer": "byz_nsgdm",
    "K": 60,
    "seed": 1,
    "x0": "zeros",
    "log_every": 1,
}


# The benchmark's softmax shape (10 classes x 20 features, n=20, B=3). From
# 8 classes up, the running class sum differs from numpy's pairwise sum of
# a row, so this pin covers a class order the 4-class pins do not.
SOFTMAX_10_CLASSES = {
    **SOFTMAX,
    "objective": {"kind": "softmax", "dim": 200, "n_classes": 10, "feature_dim": 20,
                  "feature_seed": 2, "samples_per_worker": 50, "n_workers": 20},
    "n": 20,
    "B": 3,
    "attack": {"kind": "label_flip"},
    "schedule": {"kind": "practical_decay", "gamma0": 0.5, "momentum_beta": 0.9},
    "K": 30,
    "log_every": 10,
}


def _label_table() -> list[list[int]]:
    spec = parse_config(SOFTMAX).objective
    labels = softmax_dataset(spec)[1]
    return [[(int(v) + i) % 4 for v in labels[worker_shard(spec, i)]] for i in range(6)]


def golden_config(name: str) -> dict:
    """The run config pinned under ``name``."""
    family, _, variant = name.partition(":")
    if family == "alie":  # each rule, with and without NNM
        rule, nnm = variant.split("+") if "+" in variant else (variant, None)
        return {**QUARTIC, "aggregator": {"rule": rule, "nnm": nnm is not None}}
    if family == "attack":  # each attack under gm+NNM
        return {**QUARTIC, "attack": {"kind": variant}}
    if family == "optimizer":  # each optimizer with the schedule sweeps pair it with
        kind = "constant" if variant == "baseline" else "practical_decay"
        return {**QUARTIC, "optimizer": variant, "attack": {"kind": "bit_flip"},
                "schedule": {"kind": kind, "gamma0": 1e-3, "momentum_beta": 0.9}}
    if name == "theoretical":
        return {**QUARTIC, "schedule": {"kind": "theoretical", "gamma0": 0.01}}
    if name == "init_momentum_zero":
        return {**QUARTIC, "init_momentum": "zero"}
    if name == "noise_zero":
        return {**QUARTIC, "oracle": {"noise_variance": 0.0, "shift_variance": 1e-4}}
    if name == "bf_gradient_level":
        return {**QUARTIC, "attack": {"kind": "bit_flip", "bf_gradient_level": True}}
    if name == "b_zero":
        return {**QUARTIC, "B": 0, "attack": {"kind": "none"}}
    if family == "softmax_label_flip":
        return {**SOFTMAX, "aggregator": {"rule": variant, "nnm": True}}
    if name == "softmax_10_classes":
        return SOFTMAX_10_CLASSES
    if family == "softmax_labels_table":
        return {**SOFTMAX, "attack": {"kind": variant, "label_shift": 2},
                "oracle": {"noise_variance": 1e-4, "labels": _label_table()}}
    raise KeyError(name)


GOLDEN = {
    "alie:mean": "909cd7846d41cbc2b903ea28fd3182b898597b6f380e0ec6ea7bd6c5a60c6eae",
    "alie:mean+nnm": "cbc532f1cc7c548a0a2c7d1d71c1b2255bcc5952da2d75ac10507f22162768b8",
    "alie:krum": "7c6b7bd5b7cccf1fa69e591bfe5067823627756e45666687b8832c51d4bb688b",
    "alie:krum+nnm": "177a6504fbfb08bca12f5cde9e81a9b7575cce97534c2a5d895e8d806c60a702",
    "alie:gm": "e2e96855ffa9734e0c374e301fb3677cf6fd7faae5285ffeda545fdfebf72272",
    "alie:gm+nnm": "d91fcda6bd993d4948b9251b8a6b6f7011d6088888832b3a2e910675add8cb17",
    "alie:cwmed": "fbda1638c1afe5a98b4e499d121e55206d2346bace4f3778002ebe0499383211",
    "alie:cwmed+nnm": "54bafcbc92b862b03224a34baa462bd2834bd79620a73b74c8eefd2a161ae041",
    "alie:trimmed_mean": "34e948f143daf6451b8cd04ab5295f458777f60052fa2e67b379e75408b45aa6",
    "alie:trimmed_mean+nnm": "a3eeeda961be9b0e1a782dba2cbfc7096b0db77c77ec7d2afe5cd276bf3788bd",
    "attack:none": "ea94125b384d88098f4778569cda227ed9e91ca08fa0bf33f0f1799a21b202aa",
    "attack:bit_flip": "57a90f1e29d48e900fec359dfaf2073012f9885cea8b3af153980e34761e3991",
    "attack:mimic": "bb22bc57d6023db949e5da47d4271cf782a753c119420d07f7f2cb5515f78cc4",
    "optimizer:byz_nsgdm": "f5bae0b1a5a7a7d61bf8e50a39d815eb4442bc4264acf38cd1f71033a64cde0e",
    "optimizer:baseline": "77678235b548e080b4ad1c0ad0a103a2bacbf08de18624558f46a35f9a8fca33",
    "optimizer:baseline_decay": "e7c8fd4d7aa5d0d23f6a93a176e00aa99c5148c0ff9b24d4ce42b725a6807c13",
    "theoretical": "0d66297a7f7053771ed0823e75f4450cb1418b945955612a8408bd1f1c4c9463",
    "init_momentum_zero": "f05378fb8da7ab149b13b536a93b70af4934d3e54f4a1fddddde4a72105f0e1e",
    "noise_zero": "3a26b5aa27405a920cc22a89b7c55e13153d0d5152311c36c1d8e429a974e7f7",
    "bf_gradient_level": "83d7fe033051d845ccca00ef023947c1be4f7b0b4620c41008999207c995d528",
    "b_zero": "3daf40bd5bb64f48a5a5c1a56a1b5635eff3ce0b5f623876d72c67e343a0c972",
    "softmax_label_flip:gm": "f844f67977548a9d825909e2287b68549d9f5d05c7613960b3b7c43304f73811",
    "softmax_label_flip:krum": "732712556bc9cbe2d26623a06f5f92570f1ac226c570040c4b35505e62444c3b",
    "softmax_label_flip:cwmed": "e4d16296af92dd826a60bba1435dd71029d151bb9382b414912d0d92aa7b7fd2",
    "softmax_10_classes": "eca606198b364eaa73036455dd4d62531cd703fa606889b078b8dd9ca2791024",
    "softmax_labels_table:none": "5c2b3cc95374d92b205afd62f71719a750c04dc2892a4d67d9cdd85a1064294d",
    "softmax_labels_table:label_flip": "70145d4250de35125602219ee94b58373fe9f460bb77b2909c9d2ce20f60557c",
}


# configs/table1.json at K=40 (log_every 10), tuning prefix 20, seeds
# [1, 2]: 3 attacks x 3 NNM rules x 3 optimizers, tuned. sha256 over each
# output file's relative path, a NUL byte and its bytes, in path order.
TABLE1_SWEEP = "c54a1f358e9917f4f8f6ba0e66c14cf6922e2def961b77cba295ddb123492836"
# configs/ablation.json at K = log_every = 30, seeds [1, 2]: sha256 of the
# repr of the list of the 84 final gradient norms, in (momentum_beta,
# gamma0, seed) order.
ABLATION_FINALS = "f0a48a367e205df74dedc1e42b9fa3a972ddf862152f5f74cf8fdf7b1b789a56"
# byzsim verify --trials 150 --seed 1: tree_sha256 of its 12 reports.
VERIFY_REPORTS = "0719793da4dc7b7e919180dff15a2a2fae49fd30e8fd2c8fb48122cec1e205ec"


def tree_sha256(root) -> str:
    """sha256 over each file's path under root, a NUL byte and its bytes,
    in path order. Directories are skipped, also those whose name has a
    dot (a ``schedule.kind=...`` cell)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*.*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def shortened(name: str, base: dict, sweep: dict, tuning: dict) -> ExperimentManifest:
    """The manifest ``configs/<name>`` with some base, sweep and tuning
    keys replaced."""
    spec = json.loads((CONFIGS / name).read_text())
    for key, changes in (("base", base), ("sweep", sweep), ("tuning", tuning)):
        spec[key].update(changes)
    return ExperimentManifest.from_dict(spec)


def trajectory_sha256(name: str, tmp_path) -> str:
    result = run(parse_config(golden_config(name)))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(result.records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_bytes_pinned(name, tmp_path):
    assert trajectory_sha256(name, tmp_path) == GOLDEN[name]


def test_table1_sweep_bytes_pinned(tmp_path):
    manifest = shortened("table1.json", {"K": 40, "log_every": 10}, {"seeds": [1, 2]},
                         {"prefix_iters": 20})
    run_sweep(manifest, tmp_path)
    assert tree_sha256(tmp_path) == TABLE1_SWEEP


def test_ablation_finals_pinned(tmp_path):
    manifest = shortened("ablation.json", {"K": 30, "log_every": 30}, {"seeds": [1, 2]}, {})
    finals = [v for cell in run_sweep(manifest, tmp_path).cells for v in cell.final_grad_norms]
    assert len(finals) == 84
    assert hashlib.sha256(repr(finals).encode()).hexdigest() == ABLATION_FINALS


@pytest.fixture(scope="module")
def verify_reports(tmp_path_factory):
    """The output directory of ``byzsim verify --trials 150 --seed 1``."""
    out = tmp_path_factory.mktemp("verify")
    assert main(["verify", "--trials", "150", "--seed", "1", "--out", str(out)]) == 0
    return out


def test_verify_report_bytes_pinned(verify_reports):
    assert len(list(verify_reports.glob("*.json"))) == 12
    assert tree_sha256(verify_reports) == VERIFY_REPORTS


def test_verify_reports_are_strict_json(verify_reports):
    """No report holds NaN or Infinity, which RFC 8259 parsers reject; the
    rules without a coefficient have no margins and write null."""
    def reject(constant):
        raise ValueError(f"non-finite constant {constant}")

    reports = {p.stem: json.loads(p.read_text(), parse_constant=reject)
               for p in verify_reports.glob("*.json")}
    assert len(reports) == 12
    assert reports["robustness_krum"]["worst_margin"] is None
    assert reports["robustness_trimmed_mean"]["worst_margin"] is None


def test_first_aggregate_matches_reference_oracle():
    """The first-step aggregate of a B=0 mean run, rebuilt from one
    ``stochastic_gradient`` call per worker and step, equals the engine's
    to the bit."""
    cfg = parse_config({**QUARTIC, "B": 0, "attack": {"kind": "none"},
                        "aggregator": {"rule": "mean"}, "K": 1})
    spec, oracle, n = cfg.objective, cfg.oracle, cfg.n
    shifts = make_shifts(RngStream(cfg.seed, SHIFT_STREAM), n, spec.dim, oracle.shift_variance)
    _, eta = schedule_values(cfg.schedule, 0)
    momenta = []
    for i in range(n):
        rng = RngStream(cfg.seed, i)
        v0 = stochastic_gradient(spec, cfg.x0, shifts[i], rng, oracle.noise_variance)
        g1 = stochastic_gradient(spec, cfg.x0, shifts[i], rng, oracle.noise_variance)
        momenta.append(v0 * (1.0 - eta) + eta * g1)
    expected = aggregate(cfg.aggregator, np.stack(momenta))
    got = run(cfg, capture_states=True).aggregates[0]
    np.testing.assert_array_equal(got, expected)
