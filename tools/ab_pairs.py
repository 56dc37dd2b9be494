"""Alternating A/B pairs of the benchmark: a parent revision against the
working tree.

    python3 tools/ab_pairs.py --parent HEAD --workload softmax-labelflip --pairs 10 --seed 61

Run from the root of a byzsim checkout. The parent revision is exported
with ``git archive`` into a temporary directory, so each side runs
``python3 bench/run.py`` in a checkout of its own and imports its own
``src/``. Pair i runs the parent first when i is even and the working
tree first when i is odd. The end-to-end metrics of every run are written
to ``BENCH_<workload>.json`` (or ``--out``): each side's median and
quartiles, how many pairs the working tree won on each metric (lower or
higher is better as ``BENCHMARK.json`` declares), the seed and the
machine (cores, Python, numpy, OpenBLAS, the SIMD extensions numpy
dispatches to, and any ``OPENBLAS_CORETYPE`` or ``NPY_DISABLE_CPU_FEATURES``
set for the runs).

Each metric's relative change of the medians, (change - parent) / parent,
is printed and written as ``relative_change``. An end-to-end metric whose
change is worse than its ``BENCHMARK.json`` bound is flagged
(``past_bound``, a ``REGRESSION`` line), and the script then exits with
status 1.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` under ``dest`` and return its commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def _bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one ``bench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: bench/run.py exited with {proc.returncode}\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["correct"]:
        raise SystemExit(f"{checkout}: {report['failed']} operations failed\n{proc.stderr}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


# Settings that choose the BLAS kernels and numpy's SIMD dispatch of the
# runs, which inherit this environment: times and bits depend on both.
DISPATCH_ENV = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def _machine() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"]["found"],
            "env": {name: os.environ[name] for name in DISPATCH_ENV if name in os.environ}}


def relative_change(parent: float, change: float) -> float:
    """(change - parent) / parent; 0 when both are 0."""
    if parent == change:
        return 0.0
    return (change - parent) / parent if parent else math.copysign(math.inf, change - parent)


def past_bound(rel: float, better: str, bound: float | None) -> bool:
    """Whether a relative change is worse than ``bound`` in the metric's
    worse direction; a metric with no bound never is."""
    return bound is not None and (rel > bound if better == "lower" else rel < -bound)


def _exit_on_sigterm(signum, frame):
    # SystemExit, unlike SIGTERM's default action, lets ``subprocess.run``
    # kill a running bench child and the ``with`` block remove the
    # exported parent checkout.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", default="softmax-labelflip",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        sha = _export(args.parent, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_bench(sides[side], args.workload, args.seed, args.seconds))
            p, c = runs["parent"][-1], runs["change"][-1]
            print(f"pair {i + 1}/{args.pairs}: wall_s {p['wall_s']:.3f} -> {c['wall_s']:.3f}",
                  file=sys.stderr)

    metrics = {}
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        direction = better.get(name, "lower")
        sign = -1 if direction == "lower" else 1
        m = metrics[name] = {
            "better": direction,
            "parent": _summary(parent),
            "change": _summary(change),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
        m["relative_change"] = rel = relative_change(m["parent"]["median"],
                                                     m["change"]["median"])
        m["past_bound"] = past_bound(rel, direction, bounds.get(name))
        print(f"{'REGRESSION' if m['past_bound'] else 'ok'} {name}: "
              f"{m['parent']['median']:.6g} -> {m['change']['median']:.6g} ({rel:+.1%}, "
              f"bound {bounds.get(name, 'none')}, {m['wins']}/{args.pairs} pairs won)",
              file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "seconds": args.seconds, "parent": sha, "machine": _machine(),
              "metrics": metrics}
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if any(m["past_bound"] for m in metrics.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
