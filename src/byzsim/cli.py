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
from pathlib import Path
from typing import Callable, NamedTuple

from . import harness, verify
from .aggregators import AggregatorSpec, base_kappa
from .core import ConfigError, RngStream
from .engine import gamma0_cap, run
from .objectives import ObjectiveSpec, default_smoothness, make_shifts
from .verify import (
    check_descent,
    check_gradient,
    check_l0l1,
    check_robustness,
    heterogeneity,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")


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
    _add_common(p)

    p = sub.add_parser("tune", help="pick the base step size on a short prefix")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--prefix", type=int, default=1000)
    _add_common(p)

    p = sub.add_parser("verify", help="run the numerical certification battery")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    return parser


def _cmd_run(args) -> int:
    changes = {"seed": args.seed, "log_every": args.log_every}
    config = harness.load_config(args.config, {k: v for k, v in changes.items() if v is not None})
    result = run(config)
    args.out.mkdir(parents=True, exist_ok=True)
    harness.write_trajectory_csv(result.records, args.out / "trajectory.csv")
    status = "diverged" if result.diverged else "ok"
    final = harness.final_grad_norm(result)
    print(f"{status}: {len(result.records)} records, final grad norm "
          f"{final if math.isfinite(final) else 'diverged'}")
    return 0


def _cmd_sweep(args) -> int:
    manifest = harness.load_manifest(args.config)
    table = harness.run_sweep(manifest, args.out, jobs=args.jobs)
    print(table.format_table())
    return 0


def _cmd_tune(args) -> int:
    config = harness.load_config(args.config)
    # config_to_dict writes a theoretical schedule's horizon, which the
    # prefix's K then leaves at the config's.
    [(best, table)] = harness.tune_gamma0([harness.config_to_dict(config)],
                                          {"K": args.prefix, "log_every": args.prefix})
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


# The verify battery: one entry per report, in print order. An entry
# names its report, says what its violation count must be (``VERDICTS``)
# and makes the report from (seed, trials), drawing from the stream
# (seed, id). The entries call the checks through this module's names.
N, B, D = 20, 3, 10
QUARTIC = ObjectiveSpec(kind="quartic", dim=D)
# Expectation -> whether a violation count meets it.
VERDICTS = {
    "certified": lambda violations: violations == 0,
    "reported": lambda violations: True,  # no coefficient: the ratio only
    "teeth": lambda violations: violations >= 1,
}


class Check(NamedTuple):
    name: str
    expect: str
    make: Callable[[int, int], verify.CheckReport]


def _robustness(rule: str, expect: str, stream: int, nnm: bool = False) -> Check:
    spec = AggregatorSpec(rule=rule, n=N, B=B, nnm=nnm)
    return Check(f"robustness[{spec.name}]", expect, lambda seed, trials: check_robustness(
        spec, trials, D, RngStream(seed, stream)))


def _gradient(spec: ObjectiveSpec) -> Check:
    return Check(f"gradient[{spec.kind}]", "certified",
                 lambda seed, trials: check_gradient(spec, 100, rng=RngStream(seed, 5)))


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


BATTERY = (
    *(_robustness(rule, "certified", 1, nnm) for nnm in (False, True) for rule in ("gm", "cwmed")),
    _robustness("krum", "reported", 2),
    _robustness("trimmed_mean", "reported", 2),
    Check("robustness[mean]", "teeth", lambda seed, trials: check_robustness(
        AggregatorSpec(rule="mean", n=N, B=B), max(trials // 10, 100), D,
        RngStream(seed, 3), kappa=1e6)),
    Check("l0l1[quartic]", "certified", lambda seed, trials: check_l0l1(
        QUARTIC, default_smoothness(QUARTIC), trials, radius=5.0, rng=RngStream(seed, 4))),
    *(_gradient(spec) for spec in (
        QUARTIC,
        ObjectiveSpec(kind="exponential", dim=3, direction=(0.5, -0.25, 1.0)),
        ObjectiveSpec(kind="softmax", dim=15, n_classes=3, feature_dim=5,
                      feature_seed=7, samples_per_worker=20, n_workers=5))),
    Check("descent", "certified", _descent),
)


def _cmd_verify(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    failures = []
    for check in BATTERY:
        report = check.make(args.seed, args.trials)
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
    print(f"all {len(BATTERY)} checks passed")
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
