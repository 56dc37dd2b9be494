"""byzsim benchmark: one workload per invocation, in one fresh process.

    python3 bench/run.py --workload sweep-quartic --seed 1 --seconds 33 --trace 0

Run from the root of a byzsim checkout; the program is imported from
its ``src/`` directory. The run repeats whole rounds of the workload's
operations until the next round would end after ``--seconds``. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and prints the per-layer metrics.
The last line of standard output is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 3


def _probe_setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that do this workload's set-up and
    exit: imports, inputs written, the softmax dataset built."""
    samples = []
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only", str(i)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return samples


def _measure(pieces, seconds: float, tracer=None):
    """Whole rounds until the next one would end after ``seconds``. With a
    tracer, rounds go in pairs: one untraced, then one traced."""
    untraced, traced = [], []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append([piece() for piece in pieces])
        if tracer is not None:
            with tracer.installed():
                traced.append([piece() for piece in pieces])
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return untraced, traced


def _round_seconds(rounds) -> float:
    """One round's time: each piece's median over the rounds, summed, so
    that one slow piece does not move the figure."""
    return sum(statistics.median(piece_runs) for piece_runs in
               zip(*([r.seconds for r in results] for results in rounds)))


def _end_to_end(untraced, setup_samples) -> dict[str, tuple[float, str]]:
    """Medians over the run's rounds and pieces, so that a burst of
    machine load moves them less than it moves a total."""
    wall = _round_seconds(untraced)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "sim_iters_per_s": (sum(r.iters for r in untraced[0]) / wall, "iter/s"),
    }
    for rule in ("gm", "krum", "cwmed"):
        rates = [r.work[rule][0] / r.work[rule][1] * 1e6
                 for results in untraced for r in results if rule in r.work]
        metrics[f"us_per_iter.{rule}"] = (statistics.median(rates) if rates else 0.0, "us")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-quartic", "verify-battery", "softmax-labelflip"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="PROBE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "byzsim" / "__init__.py").is_file():
        print(f"error: no byzsim sources under {src}; run from a byzsim checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread, fixed before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    out = BENCH_DIR / "out" / args.workload
    if args.setup_only is not None:
        workloads.setup(args.workload, args.seed, out.with_name(f"setup-{args.setup_only}"))
        return 0

    setup_samples = [] if args.trace else _probe_setup_seconds(args.workload, args.seed)
    pieces = workloads.setup(args.workload, args.seed, out)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    untraced, traced = _measure(pieces, args.seconds, tracer)

    ops = [(name, problems) for rnd in untraced + traced for r in rnd
           for name, problems in r.ops.items()]
    failed = [(name, problems) for name, problems in ops if problems]
    for name, problems in failed:
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    if tracer is None:
        metrics = _end_to_end(untraced, setup_samples)
    else:
        metrics = tracer.metrics(_round_seconds(traced) / _round_seconds(untraced))
        for name in sorted(tracer.absent):
            print(f"absent: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
