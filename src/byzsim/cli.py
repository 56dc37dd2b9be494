"""Command-line interface.

Subcommands: ``run`` a single config, ``sweep`` a manifest, ``tune`` the
base step size, and ``verify`` the numerical property suite (``BATTERY``).
The paper's benchmark matrix and its momentum x step-size ablation are
the sweep manifests ``configs/table1.json`` and ``configs/ablation.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

from . import harness, verify
from .aggregators import AggregatorSpec, base_kappa
from .core import ConfigError, RngStream, check_seed
from .engine import gamma0_cap, run
from .objectives import ObjectiveSpec, default_smoothness, make_shifts
from .verify import (
    check_descent,
    check_gradient,
    check_l0l1,
    check_robustness,
    heterogeneity,
)


def _add_common(p: argparse.ArgumentParser, jobs_help: str | None = None) -> None:
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    if jobs_help:
        p.add_argument("--jobs", type=int, default=1, help=jobs_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="byzsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one run config and write its trajectory CSV")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--log-every", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("sweep", help="run every cell of a sweep manifest")
    p.add_argument("--config", type=Path, required=True)
    _add_common(p, "parallel worker processes")

    p = sub.add_parser("tune", help="pick the base step size on a short prefix")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--prefix", type=int, default=1000)
    _add_common(p, "parallel worker processes")

    p = sub.add_parser("verify", help="run the numerical certification battery")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, "ignored: the battery runs in one process")

    return parser


def _cmd_run(args) -> int:
    overrides = {"seed": args.seed, "log_every": args.log_every}
    config = replace(harness.load_config(args.config),
                     **{k: v for k, v in overrides.items() if v is not None})
    result = run(config)
    args.out.mkdir(parents=True, exist_ok=True)
    harness.write_trajectory_csv(result.records, args.out / "trajectory.csv")
    status = "diverged" if result.diverged else "ok"
    final = harness.final_grad_norm(result)
    print(f"{status}: {len(result.records)} records, final grad norm "
          f"{final if math.isfinite(final) else 'diverged'}")
    return 0


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")


def _cmd_sweep(args) -> int:
    _check_jobs(args)
    manifest = harness.load_manifest(args.config)
    table = harness.run_sweep(manifest, args.out, jobs=args.jobs)
    print(table.format_table())
    return 0


def _cmd_tune(args) -> int:
    _check_jobs(args)
    if args.prefix < 1:
        raise ConfigError("--prefix must be >= 1")
    config = harness.load_config(args.config)
    [(best, table)] = harness.tune_gamma0(
        [replace(config, K=args.prefix, log_every=args.prefix)], jobs=args.jobs)
    args.out.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": harness.SCHEMA_VERSION,
        "gamma0": best,
        "prefix_iters": args.prefix,
        "scores": {str(k): (v if math.isfinite(v) else "diverged") for k, v in table.items()},
    }
    with open(args.out / "tuned.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"tuned gamma0 = {best} (config {config.optimizer}, prefix {args.prefix})")
    return 0


# The verify battery, in print order. An entry names its reports, says
# what each one's violation count must be (``VERDICTS``) and makes them
# from (seed, trials), in ``names`` order, drawing from the stream
# (seed, id). Rules fuzzed on one stream share one pass over its
# instances. The entries call the checks through this module's names.
N, B, D = 20, 3, 10
QUARTIC = ObjectiveSpec(kind="quartic", dim=D)
# Expectation -> whether a violation count meets it.
VERDICTS = {
    "certified": lambda violations: violations == 0,
    "reported": lambda violations: True,  # no coefficient: the ratio only
    "teeth": lambda violations: violations >= 1,
}


class Check(NamedTuple):
    names: tuple[str, ...]
    expect: str
    make: Callable[[int, int], list[verify.CheckReport]]


def _robustness(expect: str, stream: int, *rules: tuple[str, bool]) -> Check:
    specs = [AggregatorSpec(rule=rule, nnm=nnm) for rule, nnm in rules]
    # trials by keyword: the benchmark's tracer reads the instance count there.
    return Check(tuple(f"robustness[{spec.name}]" for spec in specs), expect,
                 lambda seed, trials: check_robustness(
                     *specs, n=N, B=B, trials=trials, d=D, rng=RngStream(seed, stream)))


def _gradient(spec: ObjectiveSpec) -> Check:
    return Check((f"gradient[{spec.kind}]",), "certified",
                 lambda seed, trials: [check_gradient(spec, 100, rng=RngStream(seed, 5))])


def _descent(seed: int, trials: int) -> verify.CheckReport:
    """Descent along a 400-step gm+NNM run under bit flipping, with the
    base step within the guarantee cap."""
    meta = default_smoothness(QUARTIC)
    K = 400
    cfg = harness.parse_config({
        "schema": 1,
        "objective": {"kind": "quartic", "dim": D},
        "oracle": {"noise_variance": 1e-5, "shift_variance": 1e-3},
        "n": N, "B": B,
        "attack": {"kind": "bit_flip"},
        "aggregator": {"rule": "gm", "nnm": True},
        "schedule": {"kind": "constant", "momentum_beta": 0.9,
                     "gamma0": min(0.01, gamma0_cap(meta.L1, base_kappa("gm", N, B, D), K))},
        "optimizer": "byz_nsgdm",
        "K": K, "seed": seed, "x0": "ones", "log_every": 1,
    })
    return check_descent(run(cfg, capture_states=True), cfg, meta)


# gm+nnm leads the stream-1 pass: a traced round of the benchmark files a
# shared pass's time and instances under its first rule.
BATTERY = (
    _robustness("certified", 1, ("gm", True), ("cwmed", True), ("gm", False), ("cwmed", False)),
    _robustness("reported", 2, ("krum", False)),
    _robustness("reported", 2, ("trimmed_mean", False)),
    Check(("robustness[mean]",), "teeth", lambda seed, trials: check_robustness(
        AggregatorSpec(rule="mean"), n=N, B=B, trials=max(trials // 10, 100), d=D,
        rng=RngStream(seed, 3), kappa=1e6)),
    Check(("l0l1[quartic]",), "certified", lambda seed, trials: [check_l0l1(
        QUARTIC, default_smoothness(QUARTIC), trials, radius=5.0, rng=RngStream(seed, 4))]),
    *(_gradient(spec) for spec in (
        QUARTIC,
        ObjectiveSpec(kind="exponential", dim=3, direction=(0.5, -0.25, 1.0)),
        ObjectiveSpec(kind="softmax", dim=15, n_classes=3, feature_dim=5,
                      feature_seed=7, samples_per_worker=20, n_workers=5))),
    Check(("descent",), "certified", lambda seed, trials: [_descent(seed, trials)]),
)


def _cmd_verify(args) -> int:
    check_seed(args.seed, "--seed")
    args.out.mkdir(parents=True, exist_ok=True)
    failures = []
    reports = 0
    for check in BATTERY:
        for report in check.make(args.seed, args.trials):
            reports += 1
            ok = VERDICTS[check.expect](report.violations)
            if not ok:
                failures.append(report.name)
            print(f"{'PASS' if ok else 'FAIL'} {report.name}: "
                  f"{report.violations}/{report.instances} violations, "
                  f"worst margin {report.worst_margin:.3g} ({check.expect})", flush=True)
            with open(args.out / f"{report.name.replace('[', '_').strip(']')}.json", "w") as fh:
                fh.write(report.to_json())

    zeta = heterogeneity(make_shifts(RngStream(args.seed, 6), N - B, D, 1e-3))
    kappa = base_kappa("gm", N, B, D)
    print(f"INFO heterogeneity zeta = {zeta:.6g}, bias-floor bound 4*kappa*zeta = "
          f"{4 * kappa * zeta:.6g} (gm, n={N}, B={B})")
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print(f"all {reports} checks passed")
    return 0


COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "tune": _cmd_tune,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
