"""Command-line interface.

Subcommands: ``run`` a single config, ``sweep`` a manifest, ``tune`` the
base step size, and ``verify`` the numerical property suite. The paper's
benchmark matrix and its momentum x step-size ablation are the sweep
manifests ``configs/table1.json`` and ``configs/ablation.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import harness, verify
from .aggregators import AggregatorSpec, base_kappa
from .core import ConfigError, RngStream
from .engine import gamma0_cap, run
from .objectives import ObjectiveSpec, OracleConfig, default_smoothness
from .verify import (
    check_descent,
    check_gradient,
    check_l0l1,
    check_robustness,
    measure_heterogeneity,
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
    best, table = harness.tune_gamma0(harness.config_to_dict(config),
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


def _cmd_verify(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    trials = args.trials
    n, B, d = 20, 3, 10
    reports = []
    failures = []

    def record(report, asserted=True):
        reports.append(report)
        ok = report.violations == 0 if asserted else True
        if not ok:
            failures.append(report.name)
        print(f"{'PASS' if ok else 'FAIL'} {report.name}: "
              f"{report.violations}/{report.instances} violations, "
              f"worst margin {report.worst_margin:.3g}")

    for nnm in (False, True):
        for rule in ("gm", "cwmed"):
            spec = AggregatorSpec(rule=rule, n=n, B=B, nnm=nnm)
            record(check_robustness(spec, trials, d, RngStream(args.seed, 1)))
    for rule in ("krum", "trimmed_mean"):
        spec = AggregatorSpec(rule=rule, n=n, B=B)
        rep = check_robustness(spec, trials, d, RngStream(args.seed, 2))
        record(rep, asserted=False)

    mean_spec = AggregatorSpec(rule="mean", n=n, B=B)
    mean_rep = check_robustness(mean_spec, max(trials // 10, 100), d,
                                RngStream(args.seed, 3), kappa=1e6)
    reports.append(mean_rep)
    if mean_rep.violations == 0:
        failures.append("mean-sanity")
        print("FAIL robustness[mean] sanity: fuzzer found no violations for the plain mean")
    else:
        print(f"PASS robustness[mean] sanity: {mean_rep.violations} violations found as expected")

    quartic = ObjectiveSpec(kind="quartic", dim=d)
    record(check_l0l1(quartic, default_smoothness(quartic), trials, radius=5.0,
                      rng=RngStream(args.seed, 4)))

    exp_spec = ObjectiveSpec(kind="exponential", dim=3, direction=(0.5, -0.25, 1.0))
    soft_spec = ObjectiveSpec(kind="softmax", dim=15, n_classes=3, feature_dim=5,
                              feature_seed=7, samples_per_worker=20, n_workers=5)
    for spec in (quartic, exp_spec, soft_spec):
        record(check_gradient(spec, 100, rng=RngStream(args.seed, 5)))

    meta = default_smoothness(quartic)
    kappa = base_kappa("gm", n, B, d)
    K = 400
    cfg = harness.parse_config({
        "schema": 1,
        "objective": {"kind": "quartic", "dim": d},
        "oracle": {"noise_variance": 1e-5, "shift_variance": 1e-3},
        "n": n, "B": B,
        "attack": {"kind": "bit_flip"},
        "aggregator": {"rule": "gm", "nnm": True},
        "schedule": {"kind": "constant", "gamma0": min(0.01, gamma0_cap(meta.L1, kappa, K)),
                     "momentum_beta": 0.9},
        "optimizer": "byz_nsgdm",
        "K": K, "seed": args.seed, "x0": "ones", "log_every": 1,
    })
    result = run(cfg, capture_states=True)
    record(check_descent(result, cfg, meta))

    zeta = measure_heterogeneity(quartic, OracleConfig(shift_variance=1e-3), points=20,
                                 rng=RngStream(args.seed, 6), G=n - B)
    print(f"INFO heterogeneity zeta = {zeta:.6g}, bias-floor bound 4*kappa*zeta = "
          f"{4 * kappa * zeta:.6g} (gm, n={n}, B={B})")

    for rep in reports:
        with open(args.out / f"{rep.name.replace('[', '_').strip(']')}.json", "w") as fh:
            fh.write(rep.to_json())
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print(f"all {len(reports)} checks passed")
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
