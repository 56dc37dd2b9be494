"""Output checks for the three workloads, computed apart from byzsim.

Each check reads what the program wrote (trajectory CSVs, sweep
summaries, verify reports, run results) and compares it with a value the
benchmark works out itself: the quartic identity, the step-size schedule,
closed-form robustness coefficients, and a numpy log-sum-exp evaluation
of the softmax loss on a dataset the benchmark regenerates. A check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

OPTIMIZERS = ("baseline", "baseline_decay", "byz_nsgdm")
# byzsim's default gamma0 tuning grid, as its documentation states it.
TUNING_GRID = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
EXACT_REL = 1e-12
STEP_REL = 1e-12
SOFTMAX_REL = 1e-9

# The battery's own sizes: n workers, B Byzantine, dimension d, the
# per-check counts it requests besides --trials, and its descent-run K.
VERIFY_N, VERIFY_B, VERIFY_D = 20, 3, 10
VERIFY_GRADIENT_POINTS = 100
VERIFY_DESCENT_STEPS = 400


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def read_trajectory(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {"k": int(row["k"]), **{c: float(row[c]) for c in
                                    ("grad_norm", "f_value", "agg_error", "step_size")}}
            for row in csv.DictReader(fh)
        ]


# ---------------------------------------------------------------------------
# sweep-quartic


def sweep_cell_dir(out_dir, attack: str, rule: str, optimizer: str) -> Path:
    return Path(out_dir) / f"{attack}-{rule}+nnm-{optimizer}"


def check_sweep(out_dir, attack: str, rule: str, seeds, K: int) -> list[str]:
    """One `byzsim sweep` call over a single (attack, rule+NNM) pair and the
    three optimizers."""
    out_dir = Path(out_dir)
    problems: list[str] = []
    summary = json.loads((out_dir / "summary.json").read_text())
    cells = {(c["attack"], c["aggregator"], c["optimizer"]): c for c in summary["cells"]}
    mean_final: dict[str, float] = {}
    for opt in OPTIMIZERS:
        cell = cells.get((attack, f"{rule}+nnm", opt))
        if cell is None:
            problems.append(f"{opt}: no summary cell")
            continue
        gamma0 = cell["gamma0"]
        if gamma0 not in TUNING_GRID:
            problems.append(f"{opt}: tuned gamma0 {gamma0!r} is not on the grid")
        finals = []
        for seed in seeds:
            name = f"{opt} seed {seed}"
            rows = read_trajectory(sweep_cell_dir(out_dir, attack, rule, opt) / f"seed_{seed}.csv")
            if not rows:
                problems.append(f"{name}: empty trajectory")
                finals.append(math.inf)
                continue
            for r in rows:
                want = 4.0 * r["f_value"] ** 0.75
                if not _close(r["grad_norm"], want, EXACT_REL):
                    problems.append(f"{name} k={r['k']}: grad_norm {r['grad_norm']!r} "
                                    f"!= 4 f^(3/4) = {want!r}")
                    break
            finished = rows[-1]["k"] == K and math.isfinite(rows[-1]["grad_norm"])
            finals.append(rows[-1]["grad_norm"] if finished else math.inf)
            if opt != "byz_nsgdm":
                continue
            if not finished:
                problems.append(f"{name}: did not finish finite (last k={rows[-1]['k']})")
            for r in rows[1:]:
                k, step = r["k"], r["step_size"]
                want = gamma0 if k == 1 else gamma0 / math.sqrt(k - 1)
                if step != 0.0 and not _close(step, want, STEP_REL):
                    problems.append(f"{name} k={k}: step_size {step!r}, schedule gives {want!r}")
                    break
        mean_final[opt] = sum(finals) / len(finals) if finals else math.inf
    if len(mean_final) == len(OPTIMIZERS):
        ours = mean_final["byz_nsgdm"]
        for base in ("baseline", "baseline_decay"):
            if not ours < mean_final[base]:
                problems.append(f"mean final grad norm of byz_nsgdm ({ours:.4g}) is not below "
                                f"{base} ({mean_final[base]:.4g})")
    return problems


# ---------------------------------------------------------------------------
# verify-battery


def verify_reports(trials: int) -> dict[str, int]:
    """Report name -> the instance count the battery requests for it."""
    counts = {f"robustness[{r}]": trials for r in
              ("gm", "cwmed", "gm+nnm", "cwmed+nnm", "krum", "trimmed_mean")}
    counts["robustness[mean]"] = max(trials // 10, 100)
    counts["l0l1[quartic]"] = trials
    for kind in ("quartic", "exponential", "softmax"):
        counts[f"gradient[{kind}]"] = VERIFY_GRADIENT_POINTS
    counts["descent"] = VERIFY_DESCENT_STEPS
    return counts


def kappa_bound(rule: str, n: int = VERIFY_N, B: int = VERIFY_B, d: int = VERIFY_D) -> float:
    """Closed-form robustness coefficient of the bare geometric median and
    coordinate-wise median: 2(1 + B/(n-2B)), times sqrt(d) for cwmed."""
    base = 2.0 * (1.0 + B / (n - 2 * B))
    return base if rule == "gm" else math.sqrt(d) * base


def check_verify(out_dir, exit_status: int, trials: int) -> dict[str, list[str]]:
    """One `byzsim verify` call: one operation per report of the battery."""
    found = {}
    for path in Path(out_dir).glob("*.json"):
        report = json.loads(path.read_text())
        found[report["name"]] = report
    ops: dict[str, list[str]] = {}
    for name, instances in verify_reports(trials).items():
        problems = ops.setdefault(name, [])
        if exit_status != 0:
            problems.append(f"verify exit status {exit_status}")
        report = found.get(name)
        if report is None:
            problems.append("no report written")
            continue
        if report["instances"] != instances:
            problems.append(f"{report['instances']} instances, {instances} requested")
        violations = report["violations"]
        if name == "robustness[mean]":
            if violations == 0:
                problems.append("the plain mean shows no violations")
        elif report["parameters"].get("asserted", True) and violations != 0:
            problems.append(f"{violations} violations")
        if name in ("robustness[gm]", "robustness[cwmed]"):
            rule = name[len("robustness["):-1]
            kappa = report["parameters"]["kappa_empirical"]
            if not kappa <= kappa_bound(rule):
                problems.append(f"empirical kappa {kappa!r} above {kappa_bound(rule)!r}")
    return ops


# ---------------------------------------------------------------------------
# softmax-labelflip


def softmax_dataset(n_classes: int, feature_dim: int, feature_seed: int, rows: int):
    """The synthetic clustered dataset byzsim documents for the softmax
    objective: Philox stream (feature_seed, 0); class means 3*N(0, I);
    labels i mod C, sorted; features = class mean + N(0, I)."""
    gen = np.random.Generator(np.random.Philox(key=np.array([feature_seed, 0], dtype=np.uint64)))
    means = 3.0 * gen.standard_normal(n_classes * feature_dim).reshape(n_classes, feature_dim)
    labels = np.sort(np.arange(rows) % n_classes)
    feats = means[labels] + gen.standard_normal(rows * feature_dim).reshape(rows, feature_dim)
    return feats, labels


def softmax_loss_and_grad_norm(x, feats, labels, n_classes: int):
    """Mean cross-entropy of the linear classifier x (row-major C x F) and
    the norm of its gradient, by log-sum-exp, each as (value, scale). The
    scale bounds the terms that cancel in the value, so a correct float64
    evaluation is off by a few ulps of the scale, not of the value: near
    a loss of 1e-7, two correct evaluations differ by 1e-9 of it."""
    w = np.asarray(x, dtype=float).reshape(n_classes, -1)
    z = feats @ w.T
    top = z.max(axis=1)
    lse = top + np.log(np.exp(z - top[:, None]).sum(axis=1))
    rows = np.arange(len(labels))
    loss = float(np.mean(lse - z[rows, labels]))
    p = np.exp(z - lse[:, None])
    p[rows, labels] -= 1.0
    gnorm = float(np.linalg.norm(p.T @ feats / len(labels)))
    loss_scale = float(np.mean(np.abs(lse) + np.abs(z[rows, labels])))
    grad_scale = float(np.mean(np.linalg.norm(feats, axis=1)))
    return (loss, loss_scale), (gnorm, grad_scale)


def _agree(a: float, b: float, scale: float) -> bool:
    """SOFTMAX_REL relative, or 8 ulps of the cancelling terms' scale."""
    return abs(a - b) <= SOFTMAX_REL * max(abs(a), abs(b)) + 8 * np.finfo(float).eps * scale


def check_softmax(result, x0, feats, labels, n_classes: int, K: int) -> list[str]:
    """One `byzsim.run` of the label-flip softmax config."""
    problems: list[str] = []
    records = result.records
    if result.diverged or not records or records[-1].k != K:
        return [f"run did not finish: diverged={result.diverged}, "
                f"last k={records[-1].k if records else None}"]
    ln_c = math.log(n_classes)
    first, last = records[0], records[-1]
    if not _close(first.f_value, ln_c, EXACT_REL):
        problems.append(f"row 0 loss {first.f_value!r} != ln C = {ln_c!r}")
    for label, rec, x in (("row 0", first, x0), ("final iterate", last, result.final_x)):
        (loss, loss_scale), (gnorm, grad_scale) = softmax_loss_and_grad_norm(
            x, feats, labels, n_classes)
        if not _agree(rec.f_value, loss, loss_scale):
            problems.append(f"{label}: loss {rec.f_value!r}, log-sum-exp gives {loss!r}")
        if not _agree(rec.grad_norm, gnorm, grad_scale):
            problems.append(f"{label}: grad norm {rec.grad_norm!r}, log-sum-exp gives {gnorm!r}")
    if not last.f_value < ln_c:
        problems.append(f"final loss {last.f_value!r} is not below ln C = {ln_c!r}")
    return problems
