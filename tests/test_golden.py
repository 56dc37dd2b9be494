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

The pins were hashed with OpenBLAS's SkylakeX kernels and numpy
dispatching AVX-512. The quartic trajectories, the sweep and the
ablation hold under other kernels and dispatch levels too, which
``test_portability`` checks; the softmax trajectories and
``VERIFY_REPORTS`` hold only there (see README, "Portability").
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
    "alie:mean": "3c58acd2f6f6a6ea62087055933aa7fc17a120d30461745265f9c9df9fefe545",
    "alie:mean+nnm": "c35c6574049319964f72ae6bbc8582630b76f7ef23fd3a20aae159c80c0f4941",
    "alie:krum": "983ed36589821733b449ca8fdfcb540390e39b85233f90d723821d0bae55902c",
    "alie:krum+nnm": "6cc834abc10a66b08e5640d4a57c1aa27a5a170a318b094af0583435d1acabd9",
    "alie:gm": "7fd6527a6ac1cfbbc58143f4070e3bbd8e7d5e717422bf967630d4489036be0b",
    "alie:gm+nnm": "e94f1e2181e960106a2669fbeea5d1b12d8d86701c99d589a72145bcf4473aad",
    "alie:cwmed": "8c006cc8aa338887196296bd0d637a3811459d7baa0c790d2affa0fe4eedc7ca",
    "alie:cwmed+nnm": "8a3c118193cbeae2c9d681e27466000843f33a99a584844ae31920dc8c863433",
    "alie:trimmed_mean": "a8d4a34110212fc4b096a97027ffcad09427a554987ef1a805527d832edf5102",
    "alie:trimmed_mean+nnm": "183c15bf1895e2df0ec5ab502d00de7ab6bf19b77d483ea4d3effbcc655814d5",
    "attack:none": "9dd7c62c14096d506839c3eb03272f0ae4bba8eef86d638c45672554c6704ff0",
    "attack:bit_flip": "1cfbf9891c5b1b1d16c777dbbf02e02841a6d7c44186b026765b8a6eefd55341",
    "attack:mimic": "725c670323906417d7e4f7145406e3e8a152f26c078ceadfffeeff7632f85b40",
    "optimizer:byz_nsgdm": "1fad4fa58282268ba400b97422cf9d07853b3c630bc4c82305b3063a9b564b8b",
    "optimizer:baseline": "9527b31df58fa84b67de557fcacf49101c3ca083e971bac59be0ca7a7fa10ffc",
    "optimizer:baseline_decay": "a13f3aa124f316c3451ef7f2ad3fc87049e59bcf2468a7bf078ed7d9876fb2cb",
    "theoretical": "550ad0e83a48d4f2ee2c13c45d76fe25aedec89e1d84a2036a0d1a670fca4e33",
    "init_momentum_zero": "6a0064560c91072b7c7068f045c7e92f59b55da527aeb098aad4de791d39e48a",
    "noise_zero": "aa67438bacab904bd17e5bcf80b0fd5190c01ad59a3c6c64c0ac8d8d2b4aff0a",
    "bf_gradient_level": "ffb3001823734aca44ba04bfba2b65862147424c9cc238a23455d0519f84613d",
    "b_zero": "a66c0be9cdca360bdd98fd96498bb8b9000c5e1129862301ba2def17a723d517",
    "softmax_label_flip:gm": "a8a07f1aa34189c200e33278f1a8f9b8e7f792d46d02308a069fe7f5fb369ab7",
    "softmax_label_flip:krum": "aaff652ee61ae7f9cfb624cc3335f86dd0750fff05ee2eecf3c5f5eb1d8834f9",
    "softmax_label_flip:cwmed": "fde38a310edbe08851a54cd461761c7b335b3345f52c389cbca5bb6185b88872",
    "softmax_10_classes": "68bcf5a6d549b50bfcb44c000d2ccc6dbef558ec1a51f180fd4a0ba8c4e9bddf",
    "softmax_labels_table:none": "447dbcadf63bdf799970b009c5c4a8abf7f552c99b144a2986c006403fca1fc1",
    "softmax_labels_table:label_flip": "3a4f1c0d9af81df1d5d58ab63b5cb91a8f934ab270da7ae680d07bb32b8d8d27",
}


# configs/table1.json at K=40 (log_every 10), tuning prefix 20, seeds
# [1, 2]: 3 attacks x 3 NNM rules x 3 optimizers, tuned. sha256 over each
# output file's relative path, a NUL byte and its bytes, in path order.
TABLE1_SWEEP = "e867d21cc6edc5abe62b5daed1bd7fb97a272d00fa4284ed828f7e9a6c38d7e7"
# configs/ablation.json at K = log_every = 30, seeds [1, 2]: sha256 of the
# repr of the list of the 84 final gradient norms, in (momentum_beta,
# gamma0, seed) order.
ABLATION_FINALS = "2e29367e088ce3d516c6e6b7c15aebf89fd62a2b092d8de637e8c92c10359faa"
# byzsim verify --trials 150 --seed 1: tree_sha256 of its 12 reports.
VERIFY_REPORTS = "6a49ab1da569640fb364fbc8a3b0b365a321d13fe063d0626f68b4aad587d86b"


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


def records_sha256(records, tmp_path) -> str:
    """sha256 of the trajectory CSV ``write_trajectory_csv`` makes of records."""
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trajectory_sha256(name: str, tmp_path) -> str:
    return records_sha256(run(parse_config(golden_config(name))).records, tmp_path)


def table1_sweep_sha256(out) -> str:
    manifest = shortened("table1.json", {"K": 40, "log_every": 10}, {"seeds": [1, 2]},
                         {"prefix_iters": 20})
    run_sweep(manifest, out)
    return tree_sha256(out)


def ablation_finals_sha256(out) -> str:
    manifest = shortened("ablation.json", {"K": 30, "log_every": 30}, {"seeds": [1, 2]}, {})
    finals = [v for cell in run_sweep(manifest, out).cells for v in cell.final_grad_norms]
    assert len(finals) == 84
    return hashlib.sha256(repr(finals).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_bytes_pinned(name, tmp_path):
    assert trajectory_sha256(name, tmp_path) == GOLDEN[name]


def test_table1_sweep_bytes_pinned(tmp_path):
    assert table1_sweep_sha256(tmp_path) == TABLE1_SWEEP


def test_ablation_finals_pinned(tmp_path):
    assert ablation_finals_sha256(tmp_path) == ABLATION_FINALS


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
    expected = aggregate(cfg.aggregator, np.stack(momenta), cfg.B)
    got = run(cfg, capture_states=True).aggregates[0]
    np.testing.assert_array_equal(got, expected)
