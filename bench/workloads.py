"""The three benchmark workloads.

``setup`` writes a workload's inputs from the workload seed and returns
one round: the list of pieces that run in turn. A piece makes one timed
call into byzsim's public entry points (a CLI subcommand called
in-process, or ``byzsim.run``), then checks what the call produced,
outside its timing. The seed reaches the program only through the
configs and manifests written here and through ``--seed`` flags.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import byzsim
import byzsim.cli
import byzsim.harness

import checks

RULES = ("gm", "krum", "cwmed")
ATTACKS = ("bit_flip", "mimic", "alie")


@dataclass(frozen=True)
class Sizes:
    """How much work a round holds; the defaults are the benchmark's."""

    sweep_K: int = 200
    sweep_prefix: int = 50
    sweep_seeds: int = 2
    verify_trials: int = 150
    softmax_K: int = 150
    softmax_samples_per_worker: int = 500
    softmax_seeds: int = 2


SOFTMAX = {"n": 20, "B": 3, "n_classes": 10, "feature_dim": 20, "gamma0": 0.5}


@dataclass
class PieceResult:
    """What one piece did: the time of its program call, the simulated
    iterations its configs request, time and work units per rule, and one
    list of problems per operation (an empty list is a pass)."""

    seconds: float
    iters: int
    work: dict[str, tuple[float, int]] = field(default_factory=dict)
    ops: dict[str, list[str]] = field(default_factory=dict)


class _StampedLines(io.TextIOBase):
    """stdout replacement that notes when each line was printed."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self):
        return True

    def write(self, s):
        now = time.perf_counter()
        self._partial += s
        *done, self._partial = self._partial.split("\n")
        self.lines.extend((now, line) for line in done)
        return len(s)


@dataclass
class _CliCall:
    status: int
    start: float
    seconds: float
    lines: list[tuple[float, str]]
    error: str | None


def _call_cli(argv: list[str]) -> _CliCall:
    out = _StampedLines()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = byzsim.cli.main(argv)
    except SystemExit as e:
        status = e.code if isinstance(e.code, int) else 1
    except Exception:
        status, error = 1, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return _CliCall(status, start, seconds, out.lines, error)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


# ---------------------------------------------------------------------------
# sweep-quartic


def _manifest(attack: str, rule: str, seeds: list[int], sizes: Sizes) -> dict:
    """One (attack, rule+NNM) cell of the scaled-down Table-1 matrix. Every
    sweep axis is listed: a manifest that leaves one out runs the parser's
    default, not the base setting."""
    return {
        "schema": 1,
        "base": {
            "objective": {"kind": "quartic", "dim": 10},
            "oracle": {"noise_variance": 1e-10, "shift_variance": 1e-12},
            "n": 20, "B": 3,
            "schedule": {"kind": "practical_decay", "gamma0": 0.1, "momentum_beta": 0.9},
            "K": sizes.sweep_K, "seed": seeds[0], "x0": "ones", "log_every": 10,
        },
        "sweep": {
            "seeds": seeds,
            "attacks": [{"kind": attack}],
            "aggregators": [{"rule": rule, "nnm": True}],
            "optimizers": list(checks.OPTIMIZERS),
        },
        "tuning": {"enabled": True, "prefix_iters": sizes.sweep_prefix},
    }


def _sweep_piece(manifest: Path, out_dir: Path, attack: str, rule: str,
                 seeds: list[int], sizes: Sizes):
    iters = len(checks.OPTIMIZERS) * (len(checks.TUNING_GRID) * sizes.sweep_prefix
                                      + len(seeds) * sizes.sweep_K)
    op = f"sweep {attack}/{rule}+nnm"

    def piece() -> PieceResult:
        call = _call_cli(["sweep", "--config", str(manifest), "--out", str(_fresh(out_dir)),
                          "--jobs", "1"])
        problems = [call.error] if call.error else []
        if call.status != 0:
            problems.append(f"exit status {call.status}")
        if not problems:
            try:
                problems = checks.check_sweep(out_dir, attack, rule, seeds, sizes.sweep_K)
            except (OSError, KeyError, ValueError) as e:
                problems = [f"unreadable output: {e!r}"]
        return PieceResult(call.seconds, iters, {rule: (call.seconds, iters)}, {op: problems})

    return piece


def _setup_sweep(out: Path, seed: int, sizes: Sizes):
    seeds = [10 * seed + i for i in range(sizes.sweep_seeds)]
    (out / "manifests").mkdir()
    pieces = []
    # Attacks outer, rules inner: each rule's calls spread over the round.
    for attack in ATTACKS:
        for rule in RULES:
            path = out / "manifests" / f"{attack}-{rule}.json"
            path.write_text(json.dumps(_manifest(attack, rule, seeds, sizes), indent=2))
            pieces.append(_sweep_piece(path, out / "sweep" / f"{attack}-{rule}",
                                       attack, rule, seeds, sizes))
    return pieces


# ---------------------------------------------------------------------------
# verify-battery

_REPORT_LINE = re.compile(r"^(?:PASS|FAIL) (\w+\[[^\]]*\]|descent)")
# Which robustness reports make up each rule's share of the battery.
_VERIFY_RULE_REPORTS = {
    "gm": ("robustness[gm]", "robustness[gm+nnm]"),
    "krum": ("robustness[krum]",),
    "cwmed": ("robustness[cwmed]", "robustness[cwmed+nnm]"),
}


def _report_seconds(call: _CliCall) -> dict[str, float]:
    """Time of each check of the battery, read from when the CLI printed
    its report line: the span since the previous report line."""
    spans = {}
    prev = call.start
    for stamp, line in call.lines:
        m = _REPORT_LINE.match(line)
        if m:
            spans[m.group(1)] = stamp - prev
            prev = stamp
    return spans


def _setup_verify(out: Path, seed: int, sizes: Sizes):
    trials = sizes.verify_trials
    out_dir = out / "verify"

    def piece() -> PieceResult:
        call = _call_cli(["verify", "--trials", str(trials), "--seed", str(seed),
                          "--out", str(_fresh(out_dir)), "--jobs", "1"])
        if call.error:
            ops = {name: [call.error] for name in checks.verify_reports(trials)}
        else:
            ops = checks.check_verify(out_dir, call.status, trials)
        spans = _report_seconds(call)
        work = {}
        for rule, names in _VERIFY_RULE_REPORTS.items():
            if all(n in spans for n in names):
                work[rule] = (sum(spans[n] for n in names), trials * len(names))
        return PieceResult(call.seconds, checks.VERIFY_DESCENT_STEPS, work, ops)

    return [piece]


# ---------------------------------------------------------------------------
# softmax-labelflip


def _softmax_config(rule: str, run_seed: int, feature_seed: int, sizes: Sizes) -> dict:
    s = SOFTMAX
    return {
        "schema": 1,
        "objective": {
            "kind": "softmax", "dim": s["n_classes"] * s["feature_dim"],
            "n_classes": s["n_classes"], "feature_dim": s["feature_dim"],
            "feature_seed": feature_seed,
            "samples_per_worker": sizes.softmax_samples_per_worker, "n_workers": s["n"],
        },
        "oracle": {"noise_variance": 1e-4, "shift_variance": 0.0},
        "n": s["n"], "B": s["B"],
        "attack": {"kind": "label_flip"},
        "aggregator": {"rule": rule, "nnm": True},
        "schedule": {"kind": "practical_decay", "gamma0": s["gamma0"], "momentum_beta": 0.9},
        "optimizer": "byz_nsgdm",
        "K": sizes.softmax_K, "seed": run_seed, "x0": "zeros", "log_every": 10,
    }


def _softmax_piece(config, rule: str, run_seed: int, dataset, sizes: Sizes):
    feats, labels = dataset
    op = f"softmax {rule}+nnm seed {run_seed}"
    x0 = np.zeros(SOFTMAX["n_classes"] * SOFTMAX["feature_dim"])

    def piece() -> PieceResult:
        start = time.perf_counter()
        try:
            result = byzsim.run(config)
        except Exception:
            seconds = time.perf_counter() - start
            problems = [traceback.format_exc(limit=3)]
        else:
            seconds = time.perf_counter() - start
            problems = checks.check_softmax(result, x0, feats, labels,
                                            SOFTMAX["n_classes"], sizes.softmax_K)
        return PieceResult(seconds, sizes.softmax_K, {rule: (seconds, sizes.softmax_K)},
                           {op: problems})

    return piece


def _setup_softmax(out: Path, seed: int, sizes: Sizes):
    (out / "configs").mkdir()
    configs = []
    for run_seed in (10 * seed + i for i in range(sizes.softmax_seeds)):
        for rule in RULES:
            path = out / "configs" / f"{rule}-seed{run_seed}.json"
            path.write_text(json.dumps(_softmax_config(rule, run_seed, seed, sizes), indent=2))
            configs.append((byzsim.harness.load_config(path), rule, run_seed))
    # A one-step run builds the program's dataset (cached per objective).
    byzsim.run(replace(configs[0][0], K=1))
    dataset = checks.softmax_dataset(SOFTMAX["n_classes"], SOFTMAX["feature_dim"], seed,
                                     SOFTMAX["n"] * sizes.softmax_samples_per_worker)
    return [_softmax_piece(config, rule, run_seed, dataset, sizes)
            for config, rule, run_seed in configs]


WORKLOADS = {
    "sweep-quartic": _setup_sweep,
    "verify-battery": _setup_verify,
    "softmax-labelflip": _setup_softmax,
}


def setup(workload: str, seed: int, out: Path, sizes: Sizes = Sizes()):
    """Write the workload's inputs under ``out`` and return its round."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return WORKLOADS[workload](out, seed, sizes)
