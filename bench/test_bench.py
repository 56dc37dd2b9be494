"""Self-test of the benchmark: every workload at a tiny size, and every
output check shown to reject a corrupted output.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import byzsim  # noqa: E402
import byzsim.harness  # noqa: E402
from byzsim.objectives import softmax_dataset  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Small enough for a quick test, large enough that every check still holds.
TINY = workloads.Sizes(sweep_K=200, sweep_prefix=20, sweep_seeds=1, verify_trials=5,
                       softmax_K=30, softmax_samples_per_worker=25, softmax_seeds=1)


def _failing(ops):
    return {name: problems for name, problems in ops.items() if problems}


def _failing_in(results):
    return _failing({name: problems for r in results for name, problems in r.ops.items()})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    pieces = workloads.setup(workload, 3, tmp_path, TINY)
    results = [piece() for piece in pieces]
    assert _failing_in(results) == {}
    assert all(r.seconds > 0 and r.iters > 0 for r in results)
    rules = {rule for r in results for rule in r.work}
    assert rules == set(workloads.RULES)


def test_end_to_end_names_match_benchmark_json(tmp_path):
    pieces = workloads.setup("verify-battery", 2, tmp_path, TINY)
    untraced, _ = run._measure(pieces, 0.0)
    metrics = run._end_to_end(untraced, [0.5])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == declared
    assert all(v > 0 for v, _ in metrics.values())


# ---------------------------------------------------------------------------
# sweep-quartic


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    """One real tiny sweep call's output, copied fresh for each test."""
    out = tmp_path_factory.mktemp("sweep")
    piece = workloads.setup("sweep-quartic", 4, out, TINY)[0]
    assert _failing_in([piece()]) == {}
    return out / "sweep" / "bit_flip-gm", [40]


@pytest.fixture
def sweep_copy(sweep_output, tmp_path):
    src, seeds = sweep_output
    dst = tmp_path / "cell"
    shutil.copytree(src, dst)
    return dst, seeds


def _rewrite_csv(path, edit):
    rows = checks.read_trajectory(path)
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "grad_norm", "f_value", "agg_error", "step_size"])
        for r in rows:
            w.writerow([r["k"]] + [format(r[c], ".17g") for c in
                                   ("grad_norm", "f_value", "agg_error", "step_size")])


def _check_sweep(cell, seeds):
    return checks.check_sweep(cell, "bit_flip", "gm", seeds, TINY.sweep_K)


def test_sweep_clean_output_failing_in(sweep_copy):
    assert _check_sweep(*sweep_copy) == []


def test_sweep_rejects_grad_norm_off_by_1e6(sweep_copy):
    cell, seeds = sweep_copy
    path = checks.sweep_cell_dir(cell, "bit_flip", "gm", "baseline") / f"seed_{seeds[0]}.csv"

    def edit(rows):
        rows[5]["grad_norm"] *= 1 + 1e-6

    _rewrite_csv(path, edit)
    problems = _check_sweep(cell, seeds)
    assert len(problems) == 1 and "4 f^(3/4)" in problems[0]


def test_sweep_rejects_byz_nsgdm_worse_than_baseline(sweep_copy):
    cell, seeds = sweep_copy
    base = checks.read_trajectory(
        checks.sweep_cell_dir(cell, "bit_flip", "gm", "baseline") / f"seed_{seeds[0]}.csv")
    worse = 2.0 * base[-1]["grad_norm"]
    path = checks.sweep_cell_dir(cell, "bit_flip", "gm", "byz_nsgdm") / f"seed_{seeds[0]}.csv"

    def edit(rows):  # keep the quartic identity so only the ordering trips
        rows[-1]["grad_norm"] = worse
        rows[-1]["f_value"] = (worse / 4.0) ** (4.0 / 3.0)

    _rewrite_csv(path, edit)
    problems = _check_sweep(cell, seeds)
    assert len(problems) == 1 and "is not below baseline" in problems[0]


def test_sweep_rejects_off_schedule_step(sweep_copy):
    cell, seeds = sweep_copy
    path = checks.sweep_cell_dir(cell, "bit_flip", "gm", "byz_nsgdm") / f"seed_{seeds[0]}.csv"

    def edit(rows):
        rows[3]["step_size"] *= 1 + 1e-9

    _rewrite_csv(path, edit)
    problems = _check_sweep(cell, seeds)
    assert len(problems) == 1 and "schedule gives" in problems[0]


def test_sweep_rejects_unfinished_byz_nsgdm(sweep_copy):
    cell, seeds = sweep_copy
    path = checks.sweep_cell_dir(cell, "bit_flip", "gm", "byz_nsgdm") / f"seed_{seeds[0]}.csv"
    _rewrite_csv(path, lambda rows: rows.pop())
    problems = _check_sweep(cell, seeds)
    assert any("did not finish finite" in p for p in problems)


def test_sweep_rejects_gamma0_off_grid(sweep_copy):
    cell, seeds = sweep_copy
    summary = json.loads((cell / "summary.json").read_text())
    summary["cells"][0]["gamma0"] = 0.3
    (cell / "summary.json").write_text(json.dumps(summary))
    problems = _check_sweep(cell, seeds)
    assert len(problems) == 1 and "not on the grid" in problems[0]


# ---------------------------------------------------------------------------
# verify-battery


@pytest.fixture(scope="module")
def verify_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    piece = workloads.setup("verify-battery", 5, out, TINY)[0]
    result = piece()
    assert _failing_in([result]) == {}
    assert set(result.ops) == set(checks.verify_reports(TINY.verify_trials))
    return out / "verify"


@pytest.fixture
def verify_copy(verify_output, tmp_path):
    dst = tmp_path / "verify"
    shutil.copytree(verify_output, dst)
    return dst


def _edit_report(out_dir, file_stem, edit):
    path = out_dir / f"{file_stem}.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_verify_rejects_one_violation(verify_copy):
    _edit_report(verify_copy, "robustness_gm+nnm", lambda r: r.update(violations=1))
    failing = _failing(checks.check_verify(verify_copy, 0, TINY.verify_trials))
    assert list(failing) == ["robustness[gm+nnm]"]


def test_verify_rejects_wrong_instance_count(verify_copy):
    _edit_report(verify_copy, "descent", lambda r: r.update(instances=399))
    failing = _failing(checks.check_verify(verify_copy, 0, TINY.verify_trials))
    assert list(failing) == ["descent"]


def test_verify_rejects_kappa_above_bound(verify_copy):
    _edit_report(verify_copy, "robustness_cwmed",
                 lambda r: r["parameters"].update(kappa_empirical=1.01 * checks.kappa_bound("cwmed")))
    failing = _failing(checks.check_verify(verify_copy, 0, TINY.verify_trials))
    assert list(failing) == ["robustness[cwmed]"]


def test_verify_rejects_clean_plain_mean(verify_copy):
    _edit_report(verify_copy, "robustness_mean", lambda r: r.update(violations=0))
    failing = _failing(checks.check_verify(verify_copy, 0, TINY.verify_trials))
    assert list(failing) == ["robustness[mean]"]


def test_verify_rejects_nonzero_exit_and_missing_report(verify_copy):
    (verify_copy / "l0l1_quartic.json").unlink()
    ops = checks.check_verify(verify_copy, 1, TINY.verify_trials)
    assert all(ops.values())
    assert "no report written" in ops["l0l1[quartic]"]


def test_kappa_bounds_are_the_closed_forms():
    assert checks.kappa_bound("gm") == pytest.approx(2 * (1 + 3 / 14))
    assert checks.kappa_bound("cwmed") == pytest.approx(math.sqrt(10) * 2 * (1 + 3 / 14))


# ---------------------------------------------------------------------------
# softmax-labelflip


@pytest.fixture(scope="module")
def softmax_run(tmp_path_factory):
    sizes = TINY
    cfg = byzsim.harness.parse_config(workloads._softmax_config("gm", 7, 6, sizes))
    n_classes, rows = workloads.SOFTMAX["n_classes"], 20 * sizes.softmax_samples_per_worker
    feats, labels = checks.softmax_dataset(n_classes, workloads.SOFTMAX["feature_dim"], 6, rows)
    return byzsim.run(cfg), cfg.x0, feats, labels, n_classes, sizes.softmax_K


def _with_record(result, index, **changes):
    records = list(result.records)
    records[index] = replace(records[index], **changes)
    return replace(result, records=records)


def test_softmax_dataset_matches_the_program():
    sizes = TINY
    spec = byzsim.harness.parse_config(workloads._softmax_config("gm", 1, 9, sizes)).objective
    feats, labels = checks.softmax_dataset(10, 20, 9, 20 * sizes.softmax_samples_per_worker)
    theirs = softmax_dataset(spec)
    assert (feats == theirs[0]).all() and (labels == theirs[1]).all()


def test_softmax_clean_run_failing_in(softmax_run):
    assert checks.check_softmax(*softmax_run) == []


def test_softmax_rejects_final_loss_off_by_1e8(softmax_run):
    result, *rest = softmax_run
    bad = _with_record(result, -1, f_value=result.records[-1].f_value * (1 + 1e-8))
    problems = checks.check_softmax(bad, *rest)
    assert len(problems) == 1 and "final iterate: loss" in problems[0]


def test_softmax_rejects_row0_grad_norm_and_loss(softmax_run):
    result, *rest = softmax_run
    bad = _with_record(result, 0, f_value=2.0, grad_norm=result.records[0].grad_norm * (1 + 1e-8))
    problems = checks.check_softmax(bad, *rest)
    assert any("ln C" in p for p in problems)
    assert any("row 0: grad norm" in p for p in problems)


def test_softmax_tolerance_at_a_near_zero_loss():
    """Feature seed 303 separates the classes: the final loss is about
    1e-7, where the program and the check differ by 1e-9 of it."""
    sizes = workloads.Sizes()
    cfg = byzsim.harness.parse_config(workloads._softmax_config("gm", 3031, 303, sizes))
    feats, labels = checks.softmax_dataset(10, 20, 303, 20 * sizes.softmax_samples_per_worker)
    result = byzsim.run(cfg)
    assert result.records[-1].f_value < 1e-6
    assert checks.check_softmax(result, cfg.x0, feats, labels, 10, sizes.softmax_K) == []
    bad = _with_record(result, -1, f_value=result.records[-1].f_value * (1 + 1e-5))
    problems = checks.check_softmax(bad, cfg.x0, feats, labels, 10, sizes.softmax_K)
    assert len(problems) == 1 and "final iterate: loss" in problems[0]


def test_softmax_rejects_final_loss_not_below_ln_c(softmax_run):
    result, x0, feats, labels, n_classes, K = softmax_run
    stuck = replace(result, final_x=x0.copy())
    stuck = _with_record(stuck, -1, f_value=result.records[0].f_value,
                         grad_norm=result.records[0].grad_norm)
    problems = checks.check_softmax(stuck, x0, feats, labels, n_classes, K)
    assert len(problems) == 1 and "is not below ln C" in problems[0]


# ---------------------------------------------------------------------------
# tracing and the command


def _originals():
    import byzsim.attacks
    import byzsim.core
    import byzsim.engine
    import inspect

    return (byzsim.engine.aggregate, byzsim.run, byzsim.harness.run,
            inspect.getattr_static(byzsim.core.RngStream, "normal"),
            inspect.getattr_static(byzsim.attacks.AttackContext, "from_honest"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_round_reports_every_per_layer_metric(workload, tmp_path):
    before = _originals()
    pieces = workloads.setup(workload, 3, tmp_path, TINY)
    tracer = tracing.Tracer()
    untraced, traced = run._measure(pieces, 0.0, tracer)
    assert _originals() == before
    assert _failing_in(untraced[0] + traced[0]) == {}
    metrics = tracer.metrics(1.2)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == declared
    assert tracer.absent == set()
    assert metrics["engine.run.calls"][0] > 0 and metrics["engine.steps"][0] > 0
    if workload == "sweep-quartic":
        assert metrics["core.RngStream.normal.calls"][0] > 0
        assert metrics["harness.run_sweep.s"][0] > 0
        assert metrics["aggregators.geometric_median.passes_per_call"][0] >= 1
    if workload == "softmax-labelflip":
        assert metrics["objectives.gradient_with_labels.calls"][0] > 0
    if workload == "verify-battery":
        assert metrics["verify.check_robustness.us_per_instance.gm_nnm"][0] > 0


def test_missing_name_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("byzsim.engine", "no_such_function", "engine.no_such_function", None),))
    pieces = workloads.setup("softmax-labelflip", 3, tmp_path, TINY)
    tracer = tracing.Tracer()
    _, traced = run._measure(pieces[:1], 0.0, tracer)
    assert _failing_in(traced[0]) == {}
    assert tracer.absent == {"byzsim.engine.no_such_function"}


def test_command_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify-battery",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 12 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify-battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
