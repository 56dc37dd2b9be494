import copy
import csv
import json
import math
import re
import typing
from pathlib import Path

import pytest

from byzsim.core import ConfigError, field_hints
from byzsim.engine import RunConfig, RunResult, TrajectoryRecord, run
from byzsim.harness import (
    CSV_COLUMNS,
    OPTIMIZER_SCHEDULE,
    ConfigFileError,
    ExperimentManifest,
    config_to_dict,
    final_grad_norm,
    load_config,
    load_manifest,
    parse_config,
    run_sweep,
    tune_gamma0,
    with_changes,
    write_trajectory_csv,
)
from reference_engine import reference_run
from test_golden import GOLDEN, golden_config, tree_sha256

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = {
    "schema": 1,
    "objective": {"kind": "quartic", "dim": 10},
    "oracle": {"noise_variance": 1e-5, "shift_variance": 1e-3},
    "n": 6,
    "B": 1,
    "attack": {"kind": "bit_flip"},
    "aggregator": {"rule": "cwmed", "nnm": True},
    "schedule": {"kind": "practical_decay", "gamma0": 0.1, "momentum_beta": 0.9},
    "optimizer": "byz_nsgdm",
    "K": 50,
    "seed": 3,
    "x0": "ones",
    "log_every": 5,
}


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, overrides=None, name="config.json"):
    data = dict(BASE_CONFIG)
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def test_config_roundtrip():
    """config_to_dict writes every field, through JSON, so that parse_config
    reads the same config back: the quartic here and every golden config
    (softmax, label tables, theoretical horizon, zero initial momentum)."""
    for data in [BASE_CONFIG, *(golden_config(name) for name in sorted(GOLDEN))]:
        d = config_to_dict(parse_config(data))
        assert config_to_dict(parse_config(json.loads(json.dumps(d)))) == d, data


def test_load_config_rejects_bad_schema(tmp_path):
    path = write_config(tmp_path, {"schema": 99})
    with pytest.raises(ConfigFileError, match="schema"):
        load_config(path)


def test_load_config_json_error_has_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema": 1,\n  "n": ,\n}\n')
    with pytest.raises(ConfigFileError, match=r"broken\.json:3"):
        load_config(path)


def test_load_config_semantic_error_references_key(tmp_path):
    path = write_config(tmp_path, {"B": 5})  # B >= n/2
    with pytest.raises(ConfigFileError, match=r"config\.json"):
        load_config(path)


def test_csv_roundtrip_exact(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    result = run(cfg)
    path = tmp_path / "t.csv"
    write_trajectory_csv(result.records, path)
    back = [TrajectoryRecord(int(row["k"]), *(float(row[c]) for c in CSV_COLUMNS[1:]))
            for row in read_rows(path)]
    assert back == result.records  # 17 significant digits round-trip


def test_csv_byte_identical_between_runs(tmp_path):
    cfg1 = parse_config(BASE_CONFIG)
    cfg2 = parse_config(BASE_CONFIG)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(run(cfg1).records, p1)
    write_trajectory_csv(run(cfg2).records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_final_grad_norm_diverged():
    cfg = parse_config({**BASE_CONFIG, "optimizer": "baseline",
                        "schedule": {"kind": "constant", "gamma0": 0.5}})
    result = run(cfg)
    assert result.diverged
    assert math.isinf(final_grad_norm(result))


def fake_run_batch(scores):
    """A ``run_batch`` stand-in whose rows end at ``scores[gamma0]``."""
    def run_batch(configs, capture_states=False):
        return [RunResult(records=[TrajectoryRecord(0, scores[c.schedule.gamma0], 0.0, 0.0, 0.0)],
                          final_x=c.x0, honest_shifts=None,
                          diverged=math.isinf(scores[c.schedule.gamma0]))
                for c in configs]
    return run_batch


def test_tune_prefers_smaller_rate_on_tie(monkeypatch):
    import byzsim.harness as harness_mod

    scores = {0.01: 3.0, 0.05: 1.0, 0.2: 1.0, 1.0: math.inf}
    monkeypatch.setattr(harness_mod, "run_batch", fake_run_batch(scores))

    config = parse_config({**BASE_CONFIG, "schedule": {"kind": "constant", "gamma0": 0.1},
                           "K": 5})
    [(best, table)] = tune_gamma0([config], grid=(1.0, 0.2, 0.05, 0.01))
    assert best == 0.05  # smaller rate wins the tie, diverged scores lose
    assert table[1.0] == math.inf


def test_tune_returns_one_choice_per_config():
    """Candidates of several configs run in lockstep groups; each config
    gets the choice and table of tuning it alone."""
    configs = [parse_config({**BASE_CONFIG, "optimizer": opt, "attack": {"kind": attack},
                             "K": 20, "log_every": 20})
               for attack in ("alie", "bit_flip") for opt in ("byz_nsgdm", "baseline")]
    grid = (0.01, 0.1, 0.5)
    tuned = tune_gamma0(configs, grid=grid)
    assert tuned == [tune_gamma0([c], grid=grid)[0] for c in configs]
    assert all(list(table) == list(grid) for _, table in tuned)


def test_manifest_from_dict():
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": BASE_CONFIG,
        "sweep": {
            "seeds": [1, 2],
            "attacks": [{"kind": "none"}, {"kind": "alie"}],
            "aggregators": [{"rule": "gm", "nnm": True}],
            "optimizers": ["byz_nsgdm"],
        },
        "tuning": {"enabled": False},
    })
    cells = [cell for cell, _ in manifest.cells]
    assert [c.attack.kind for c in cells] == ["none", "alie"]
    assert {(c.aggregator.name, c.optimizer) for c in cells} == {("gm+nnm", "byz_nsgdm")}
    assert manifest.seeds == [1, 2]
    assert not manifest.tune


def test_run_sweep_writes_outputs(tmp_path):
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "K": 30},
        "sweep": {
            "seeds": [1, 2],
            "attacks": [{"kind": "bit_flip"}],
            "aggregators": [{"rule": "cwmed", "nnm": True}],
            "optimizers": ["byz_nsgdm", "baseline"],
        },
        "tuning": {"enabled": False},
    })
    table = run_sweep(manifest, tmp_path / "out")
    assert len(table.cells) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary["cells"]) == 2
    csvs = sorted(p.name for p in (tmp_path / "out").rglob("*.csv"))
    assert csvs == ["seed_1.csv", "seed_1.csv", "seed_2.csv", "seed_2.csv"]
    cell = table.cell("bit_flip", "cwmed+nnm", "byz_nsgdm")
    assert len(cell.final_grad_norms) == 2
    assert table.format_table()


def test_sweep_summary_recomputable_from_csvs(tmp_path):
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "K": 30},
        "sweep": {"seeds": [1], "attacks": [{"kind": "none"}],
                  "aggregators": [{"rule": "mean"}], "optimizers": ["byz_nsgdm"]},
        "tuning": {"enabled": False},
    })
    table = run_sweep(manifest, tmp_path / "out")
    rows = read_rows(tmp_path / "out" / "none-mean-byz_nsgdm" / "seed_1.csv")
    assert float(rows[-1]["grad_norm"]) == table.cells[0].final_grad_norms[0]


def test_sweep_parallel_jobs_identical(tmp_path):
    spec = {
        "schema": 1,
        "base": {**BASE_CONFIG, "K": 30},
        "sweep": {
            "seeds": [1, 2],
            "attacks": [{"kind": "alie"}],
            "aggregators": [{"rule": "gm", "nnm": True}],
            "optimizers": ["byz_nsgdm", "baseline"],
        },
        "tuning": {"enabled": False},
    }
    run_sweep(ExperimentManifest.from_dict(spec), tmp_path / "j1", jobs=1)
    run_sweep(ExperimentManifest.from_dict(spec), tmp_path / "j2", jobs=2)
    for p1 in sorted((tmp_path / "j1").rglob("*.csv")):
        p2 = tmp_path / "j2" / p1.relative_to(tmp_path / "j1")
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_one_lockstep_group_is_cut_over_the_jobs(monkeypatch):
    """A phase of one lockstep group still gives each of the jobs rows:
    the group runs as contiguous chunks of at most ceil(N / jobs) rows,
    whose results are the group's own."""
    import byzsim.harness as harness

    configs = [parse_config(with_changes(BASE_CONFIG, {"K": 15, "schedule.gamma0": g}))
               for g in (0.01, 0.02, 0.05, 0.1, 0.2)]
    batches = []

    class InProcessPool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            batches.extend(len(b) for b in items)
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    cut = harness.run_grouped(configs, jobs=2)
    assert batches == [3, 2]
    for got, want in zip(cut, harness.run_grouped(configs)):
        assert got.records == want.records
        assert (got.final_x == want.final_x).all()


@pytest.mark.parametrize("axes, grid", [
    pytest.param({}, (0.01, 0.1, 0.5), id="practical"),
    # Tuned on the 8-step prefix, a theoretical schedule keeps the horizon
    # of the cell's K (12 or 20), which config_to_dict writes. With a
    # horizon of 8, byz_nsgdm cells would choose 2.0 over 5.0 or 10.0.
    pytest.param({"schedule.kind": ["theoretical"]}, (0.1, 0.5, 1.0, 2.0, 5.0, 10.0),
                 id="theoretical"),
])
def test_sweep_groups_write_the_bytes_of_runs_alone(tmp_path, axes, grid):
    """A sweep whose cells fall into several lockstep groups (a K axis and
    a B axis) writes the same bytes with one process, with two, and from
    each config run alone and tuned alone."""
    prefix = 8
    spec = {
        "schema": 1,
        "base": {**BASE_CONFIG, "K": 20},
        "sweep": {
            "seeds": [1, 2],
            "attacks": [{"kind": "alie"}, {"kind": "bit_flip"}],
            "aggregators": [{"rule": "gm", "nnm": True}],
            "optimizers": ["byz_nsgdm", "baseline"],
            "K": [12, 20],
            "B": [0, 1],
            **axes,
        },
        "tuning": {"enabled": True, "grid": list(grid), "prefix_iters": prefix},
    }
    manifest = ExperimentManifest.from_dict(spec)
    table = run_sweep(manifest, tmp_path / "j1", jobs=1)
    run_sweep(ExperimentManifest.from_dict(spec), tmp_path / "j2", jobs=2)
    assert tree_sha256(tmp_path / "j1") == tree_sha256(tmp_path / "j2")

    tuning = {"seed": 1, "K": prefix, "log_every": prefix}
    for (cell, _), summary in zip(manifest.cells, table.cells):
        d = config_to_dict(cell)
        scores = {g: final_grad_norm(reference_run(
            parse_config(with_changes(d, {**tuning, "schedule.gamma0": g})))) for g in grid}
        gamma0 = min(sorted(grid), key=scores.get)
        assert summary.gamma0 == gamma0
        for seed in (1, 2):
            ref = reference_run(parse_config(with_changes(d, {"schedule.gamma0": gamma0,
                                                                 "seed": seed})))
            path = tmp_path / "ref" / "-".join(summary.name) / f"seed_{seed}.csv"
            write_trajectory_csv(ref.records, path)
            assert path.read_bytes() == (
                tmp_path / "j1" / "-".join(summary.name) / f"seed_{seed}.csv").read_bytes()
    assert len(table.cells) == 16


def test_table1_manifest_shape():
    m = load_manifest(CONFIGS / "table1.json")
    cells = [cell for cell, _ in m.cells]
    assert len(cells) == 27
    assert len({c.attack.kind for c in cells}) == 3
    assert len({c.aggregator.rule for c in cells}) == 3 and all(c.aggregator.nnm for c in cells)
    assert len({c.optimizer for c in cells}) == 3
    assert {(c.n, c.B, c.K) for c in cells} == {(20, 3, 3000)}
    assert m.seeds == [1, 2, 3] and m.tune and m.tuning_prefix == 1000


def test_manifest_omitted_axes_default_to_base():
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "attack": {"kind": "alie"},
                 "aggregator": {"rule": "gm", "nnm": True}},
        "sweep": {"seeds": [1]},
    })
    (cell, _), = manifest.cells
    assert cell.attack.kind == "alie"
    assert (cell.aggregator.rule, cell.aggregator.nnm) == ("gm", True)
    assert cell.optimizer == "byz_nsgdm"


def test_unknown_key_rejected_with_file_line(tmp_path):
    path = write_config(tmp_path, {"optimiser": "baseline"})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1)
                if '"optimiser"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: .*'optimiser'"):
        load_config(path)
    # A key several sections share is found inside the section named.
    path = write_config(tmp_path, {"schedule": {"kind": 1}})
    rows = path.read_text().splitlines()
    schedule = next(i for i, row in enumerate(rows, 1) if '"schedule"' in row)
    line = next(i for i, row in enumerate(rows, 1) if '"kind"' in row and i > schedule)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: 'kind' in schedule"):
        load_config(path)


@pytest.mark.parametrize("changes, match", [
    *(pytest.param({section: {**BASE_CONFIG.get(section, {}), "bogus": 1}},
                   rf"'bogus' in {section}", id=section)
      for section in ("objective", "oracle", "attack", "aggregator", "schedule")),
    # Ill-typed values are rejected, not cast: bool("false") is True, int(3.7) is 3.
    pytest.param({"aggregator": {"rule": "cwmed", "nnm": "false"}},
                 r"'nnm' in aggregator must be a boolean, got 'false'", id="nnm-string"),
    pytest.param({"K": 3.7}, r"'K' in config must be an integer, got 3.7", id="K-float"),
    pytest.param({"seed": 1.5}, r"'seed' in config must be an integer", id="seed-float"),
    pytest.param({"K": "abc"}, r"'K' in config must be an integer", id="K-string"),
    pytest.param({"n": True}, r"'n' in config must be an integer", id="n-bool"),
    pytest.param({"schedule": {"kind": 1}}, r"'kind' in schedule must be a string",
                 id="kind-int"),
    # The aggregator section is the rule and NNM: Weiszfeld's settings and
    # the trim count are not config keys.
    *(pytest.param({"aggregator": {"rule": "gm", key: value}},
                   rf"unknown key '{key}' in aggregator", id=f"aggregator-{key}")
      for key, value in (("gm_nu", 1e-6), ("gm_max_iters", 50), ("gm_tol", 1e-12),
                         ("trim_b", 1))),
])
def test_unknown_nested_key_rejected(changes, match):
    """Unknown keys and ill-typed values raise a ConfigError naming the key."""
    with pytest.raises(ConfigError, match=match):
        parse_config({**BASE_CONFIG, **changes})


def test_negative_seed_rejected_with_file_line(tmp_path):
    path = write_config(tmp_path, {"seed": -1})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if '"seed"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: seed must be >= 0"):
        load_config(path)


def test_seed_past_64_bits_rejected_with_file_line(tmp_path):
    path = write_config(tmp_path, {"seed": 2**64})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if '"seed"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: seed must be < 2\*\*64"):
        load_config(path)


@pytest.mark.parametrize("overrides, key, message", [
    pytest.param({"B": -1}, "B", "need 0 <= B < n/2, got B=-1, n=6", id="negative"),
    pytest.param({"B": 3}, "B", "need 0 <= B < n/2, got B=3, n=6", id="half"),
    # The message names the rule first, so the line is the rule's.
    pytest.param({"n": 3, "B": 1, "aggregator": {"rule": "krum"}}, "krum",
                 "krum needs n - B - 2 >= 1, got n=3, B=1", id="krum"),
])
def test_byzantine_budget_rejected_with_file_line(tmp_path, overrides, key, message):
    path = write_config(tmp_path, overrides)
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if f'"{key}"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: {re.escape(message)}$"):
        load_config(path)


@pytest.mark.parametrize("n_classes, attack, key", [
    pytest.param(4, {"kind": "label_flip", "label_shift": 4}, "label_shift", id="shift-4-of-4"),
    pytest.param(4, {"kind": "label_flip", "label_shift": -8}, "label_shift",
                 id="shift-minus-8-of-4"),
    # The default shift, 5, over 5 classes: no key to point at but the section.
    pytest.param(5, {"kind": "label_flip"}, "attack", id="default-shift-5-of-5"),
])
def test_label_flip_that_flips_nothing_rejected_with_file_line(tmp_path, n_classes, attack, key):
    """A label shift that is a multiple of n_classes maps every label to
    itself, so the "poisoned" workers would be honest."""
    objective = {"kind": "softmax", "dim": 2 * n_classes, "n_classes": n_classes,
                 "feature_dim": 2, "samples_per_worker": 2, "n_workers": 6}
    path = write_config(tmp_path, {"objective": objective, "attack": attack})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if f'"{key}"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: 'label_shift' in attack: "
                                              rf"{attack.get('label_shift', 5)} is a multiple "
                                              rf"of n_classes = {n_classes}"):
        load_config(path)
    path = write_config(tmp_path, {"objective": objective,
                                   "attack": {"kind": "label_flip", "label_shift": n_classes + 1}})
    assert load_config(path).attack.label_shift == n_classes + 1


@pytest.mark.parametrize("rows", [
    pytest.param([[] for _ in range(6)], id="empty-rows"),
    pytest.param([[0, 1] for _ in range(6)], id="label-rows"),
])
def test_label_table_on_quartic_rejected_with_file_line(tmp_path, rows):
    """Only a classification objective reads ``oracle.labels``: on the
    quartic a table of empty rows would load and be ignored, and any
    other table would fail on its row length."""
    path = write_config(tmp_path, {"oracle": {"noise_variance": 1e-5, "labels": rows}})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if '"labels"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: 'labels' in oracle: a label "
                                              rf"table needs a classification objective, "
                                              rf"got 'quartic'"):
        load_config(path)


SOFTMAX_OBJECTIVE = {"kind": "softmax", "dim": 12, "n_classes": 4, "feature_dim": 3,
                     "samples_per_worker": 2, "n_workers": 6}


@pytest.mark.parametrize("overrides, section, key, wording", [
    pytest.param({"oracle": {"noise_variance": -1.0}}, "oracle", "noise_variance",
                 "must be >= 0, got -1.0", id="noise-variance"),
    pytest.param({"oracle": {"shift_variance": -1.0}}, "oracle", "shift_variance",
                 "must be >= 0, got -1.0", id="shift-variance"),
    pytest.param({"attack": {"kind": "mimic", "mimic_warmup": -1}}, "attack", "mimic_warmup",
                 "mimic warmup must be >= 0", id="mimic-warmup"),
    pytest.param({"objective": {"kind": "exponential", "dim": 10, "direction": [1.0, 2.0]}},
                 "objective", "direction", "exponential objective needs a direction of length dim",
                 id="exponential-direction"),
    pytest.param({"objective": {**SOFTMAX_OBJECTIVE, "dim": 3, "n_classes": 1}}, "objective",
                 "n_classes", "softmax needs n_classes >= 2", id="softmax-one-class"),
    *(pytest.param({"objective": {**SOFTMAX_OBJECTIVE, key: 0}}, "objective", key,
                   f"softmax needs {key} >= 1, got 0", id=f"softmax-no-{key}")
      for key in ("feature_dim", "samples_per_worker", "n_workers")),
    pytest.param({"objective": {**SOFTMAX_OBJECTIVE, "dim": 13}}, "objective", "dim",
                 "softmax dim must equal n_classes", id="softmax-dim"),
    pytest.param({"objective": {**SOFTMAX_OBJECTIVE, "n_workers": 3}}, "objective", "n_workers",
                 "softmax objective must be sized for at least n workers", id="softmax-workers"),
])
def test_config_value_error_points_at_its_key(tmp_path, overrides, section, key, wording):
    """A value a dataclass check rejects is reported at the line of its key."""
    path = write_config(tmp_path, overrides)
    rows = path.read_text().splitlines()
    start = next(i for i, row in enumerate(rows, 1) if f'"{section}"' in row)
    line = next(i for i, row in enumerate(rows, 1) if f'"{key}"' in row and i > start)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: '{key}' in {section}"
                                              rf"(: | ).*{re.escape(wording)}") as err:
        load_config(path)
    assert err.value.line == line


@pytest.mark.parametrize("overrides, key, section, value", [
    pytest.param({"schedule": {"kind": "constant", "gamma0": math.nan}}, "gamma0", "schedule",
                 "nan", id="gamma0-nan"),
    pytest.param({"oracle": {"noise_variance": math.inf}}, "noise_variance", "oracle", "inf",
                 id="noise-variance-infinity"),
    pytest.param({"attack": {"kind": "alie", "alie_z": -math.inf}}, "alie_z", "attack", "-inf",
                 id="alie-z-minus-infinity"),
    pytest.param({"x0": [1.0] * 9 + [math.nan]}, "x0", "config", "nan", id="x0-entry-nan"),
    pytest.param({"oracle": {"shift_variance": 10**400}}, "shift_variance", "oracle",
                 "an integer past the float range", id="integer-past-float-range"),
])
def test_non_finite_float_rejected_with_file_line(tmp_path, overrides, key, section, value):
    """Python's ``json`` reads ``NaN`` and ``Infinity``, and integers of
    any size; no float field takes them."""
    path = write_config(tmp_path, overrides)
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if f'"{key}"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: '{key}' in {section} "
                                              rf"must be a finite number, got {value}"):
        load_config(path)


@pytest.mark.parametrize("manifest, key", [
    pytest.param({"tuning": {"grid": [0.1, math.inf]}}, "grid", id="grid-infinity"),
    pytest.param({"tuning": {"enabled": False}, "sweep": {"schedule.gamma0": [0.1, math.nan]}},
                 "schedule.gamma0", id="gamma0-axis-nan"),
    pytest.param({"base": {**BASE_CONFIG, "oracle": {"shift_variance": math.nan}}},
                 "shift_variance", id="base-nan"),
])
def test_non_finite_float_in_manifest_rejected_with_file_line(tmp_path, manifest, key):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema": 1, "base": BASE_CONFIG, **manifest}, indent=2))
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if f'"{key}"' in row)
    with pytest.raises(ConfigFileError, match=rf"manifest\.json:{line}: .*must be a finite number"):
        load_manifest(path)


def test_manifest_base_keeps_its_own_schema(tmp_path):
    """A base that gives a schema is held to it, at the base's line; a base
    that omits it takes the manifest's."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema": 1, "base": {**BASE_CONFIG, "schema": 7}}, indent=2))
    rows = path.read_text().splitlines()
    line = next(i for i, row in enumerate(rows, 1) if '"schema": 7' in row)
    assert line > next(i for i, row in enumerate(rows, 1) if '"base"' in row)
    with pytest.raises(ConfigFileError, match=rf"manifest\.json:{line}: 'schema' in base must "
                                              rf"be 1, got 7"):
        load_manifest(path)
    without = {k: v for k, v in BASE_CONFIG.items() if k != "schema"}
    path.write_text(json.dumps({"schema": 1, "base": without}, indent=2))
    assert [config_to_dict(c) for c, _ in load_manifest(path).cells] == [
        config_to_dict(c)
        for c, _ in ExperimentManifest.from_dict({"schema": 1, "base": BASE_CONFIG}).cells]


def test_integer_accepted_for_float_field():
    cfg = parse_config({**BASE_CONFIG, "schedule": {"kind": "constant", "gamma0": 1},
                        "oracle": {"noise_variance": 0}})
    assert type(cfg.schedule.gamma0) is float and cfg.schedule.gamma0 == 1.0
    assert type(cfg.oracle.noise_variance) is float


@pytest.mark.parametrize("section", ["manifest", "sweep", "tuning"])
def test_unknown_manifest_key_rejected(section):
    spec = {"schema": 1, "base": BASE_CONFIG, "sweep": {}, "tuning": {}}
    if section == "manifest":
        spec["bogus"] = 1
    else:
        spec[section] = {"bogus": 1}
    with pytest.raises(ConfigError, match=rf"'bogus' in {section}"):
        ExperimentManifest.from_dict(spec)


def test_shipped_configs_parse():
    for path in sorted(CONFIGS.glob("*.json")):
        if "base" in json.loads(path.read_text()):
            load_manifest(path)
        else:
            load_config(path)
    assert load_config(CONFIGS / "example_run.json").aggregator.rule == "gm"
    ablation = load_manifest(CONFIGS / "ablation.json")
    assert {k: len(v) for k, v in ablation.axes.items()} == {
        "seeds": 1, "schedule.momentum_beta": 7, "schedule.gamma0": 6}
    assert len(ablation.cells) == 42 and not ablation.tune


@pytest.mark.parametrize("sweep, tuning, key", [
    pytest.param({"optimizers": ["byz_nsgmd"]}, {}, "optimizers", id="unknown-optimizer"),
    pytest.param({"schedule.gamma": [0.1]}, {}, "schedule.gamma", id="axis-no-field"),
    pytest.param({"aggregator.n": [10]}, {}, "aggregator.n", id="axis-derived-field"),
    pytest.param({"schedule.gamma0": [0.1]}, {"enabled": True}, "schedule.gamma0",
                 id="gamma0-axis-with-tuning"),
    pytest.param({"schedule.momentum_beta": [0.9, "x"]}, {"enabled": False},
                 "schedule.momentum_beta", id="axis-ill-typed"),
    pytest.param({"schedule.momentum_beta": [1.5]}, {"enabled": False},
                 "schedule.momentum_beta", id="axis-out-of-range"),
    pytest.param({"seeds": []}, {}, "seeds", id="empty-axis"),
    pytest.param({"seeds": [1, -1]}, {}, "seeds", id="negative-seed"),
    pytest.param({"seeds": [1, 2**64]}, {}, "seeds", id="seed-past-64-bits"),
    # The line is the sweep's "B", not the base's.
    pytest.param({"B": [1, 3]}, {}, "B", id="B-makes-aggregator-invalid"),
    pytest.param({"seed": [1, 2]}, {}, "seed", id="path-of-a-named-axis"),
    # Each value is valid alone, with the base's n=6 and B=1; n=3 with B=2 is not.
    pytest.param({"n": [3, 6], "B": [1, 2]}, {}, "n", id="n-and-B-invalid-together"),
    # Cells are named by parsed values: 1 and 1.0 are one gamma0.
    pytest.param({"schedule.gamma0": [1, 1.0]}, {"enabled": False}, "schedule.gamma0",
                 id="gamma0-int-and-float-one-name"),
    # Cells are named by attack kind and rule: these pairs would share a name.
    pytest.param({"attacks": [{"kind": "alie"}, {"kind": "alie", "alie_z": 3.0}]}, {},
                 "attacks", id="attack-cell-name-collision"),
    pytest.param({"aggregators": [{"rule": "gm"}, {"rule": "gm", "nnm": False}]}, {},
                 "aggregators", id="aggregator-cell-name-collision"),
    # Parses, but cannot run: label_flip needs a classification objective.
    pytest.param({"attacks": [{"kind": "bit_flip"}, {"kind": "label_flip"}]}, {}, "attacks",
                 id="label-flip-on-quartic-base"),
    # Tuning settings that no candidate could run with.
    pytest.param({}, {"grid": []}, "grid", id="empty-tuning-grid"),
    pytest.param({}, {"grid": [0.1, 0]}, "grid", id="zero-rate-in-tuning-grid"),
    pytest.param({}, {"prefix_iters": 0}, "prefix_iters", id="zero-tuning-prefix"),
])
def test_bad_sweep_axis_rejected_at_load_with_file_line(tmp_path, sweep, tuning, key):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema": 1, "base": BASE_CONFIG, "sweep": sweep,
                                "tuning": tuning}, indent=2))
    rows = path.read_text().splitlines()
    sweep = next(i for i, row in enumerate(rows, 1) if '"sweep"' in row)
    line = next(i for i, row in enumerate(rows, 1) if f'"{key}"' in row and i > sweep)
    with pytest.raises(ConfigFileError, match=rf"manifest\.json:{line}: .*'{key}'"):
        load_manifest(path)


def test_unrunnable_base_rejected_at_load_with_file_line(tmp_path):
    """A manifest base that parses but cannot run (label 7 of 4 classes in
    its label table) fails when the manifest is loaded, at the key's line."""
    base = {**BASE_CONFIG, "n": 2, "B": 0, "attack": {"kind": "none"},
            "aggregator": {"rule": "mean"}, "x0": "zeros",
            "objective": {"kind": "softmax", "dim": 8, "n_classes": 4, "feature_dim": 2,
                          "samples_per_worker": 2, "n_workers": 2},
            "oracle": {"labels": [[0, 1], [7, 0]]}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema": 1, "base": base, "sweep": {"seeds": [1]}}, indent=2))
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if '"labels"' in row)
    with pytest.raises(ConfigFileError,
                       match=rf"manifest\.json:{line}: 'labels' in oracle: row 1 has label 7"):
        load_manifest(path)


def test_dotted_axes_sweep_the_named_fields(tmp_path):
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "K": 20},
        "sweep": {"seeds": [1], "schedule.momentum_beta": [0.5, 0.9],
                  "schedule.gamma0": [0.01, 0.1]},
        "tuning": {"enabled": False},
    })
    table = run_sweep(manifest, tmp_path / "out")
    got = [(c.axes["schedule.momentum_beta"], c.axes["schedule.gamma0"], c.gamma0)
           for c in table.cells]
    assert got == [(0.5, 0.01, 0.01), (0.5, 0.1, 0.1), (0.9, 0.01, 0.01), (0.9, 0.1, 0.1)]
    cell = table.cell("bit_flip", "cwmed+nnm", "byz_nsgdm",
                      "schedule.momentum_beta=0.9", "schedule.gamma0=0.01")
    path = tmp_path / "out" / "-".join(cell.name) / "seed_1.csv"
    assert float(read_rows(path)[-1]["grad_norm"]) == cell.final_grad_norms[0]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["cells"][2]["axes"] == {"schedule.momentum_beta": 0.9,
                                          "schedule.gamma0": 0.01}
    assert "schedule.momentum_beta=0.5 schedule.gamma0=0.1" in table.format_table()


def test_cell_config_keeps_base_init_momentum():
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "init_momentum": "zero",
                 "schedule": {"kind": "constant", "gamma0": 0.1}},
    })
    (cell, axes), = manifest.cells
    assert cell.init_momentum == "zero" and axes == {}
    assert cell.schedule.kind == OPTIMIZER_SCHEDULE["byz_nsgdm"]


def test_optimizer_schedule_covers_every_optimizer():
    names = typing.get_args(field_hints(RunConfig)["optimizer"])
    assert sorted(OPTIMIZER_SCHEDULE) == sorted(names)


def test_with_changes_sets_paths_and_leaves_input():
    d = copy.deepcopy(BASE_CONFIG)
    new = parse_config(with_changes(d, {"schedule.gamma0": 0.02, "aggregator.nnm": False,
                                        "K": 7}))
    assert (new.schedule.gamma0, new.aggregator.nnm, new.K) == (0.02, False, 7)
    assert new.schedule.momentum_beta == BASE_CONFIG["schedule"]["momentum_beta"]
    assert d == BASE_CONFIG


def test_changed_n_and_K_rederive_aggregator_and_horizon(tmp_path):
    """The rule runs with the changed n and B, and the horizon follows K:
    the run's bytes are those of a config file that states them."""
    theoretical = {**BASE_CONFIG, "schedule": {"kind": "theoretical", "gamma0": 0.1}}
    cfg = parse_config(with_changes(theoretical, {"n": 10, "B": 4, "K": 30}))
    assert (cfg.n, cfg.B, cfg.schedule.horizon) == (10, 4, 30)
    stated = load_config(write_config(tmp_path, {
        "n": 10, "B": 4, "K": 30,
        "schedule": {"kind": "theoretical", "gamma0": 0.1, "horizon": 30}}))
    for name, config in (("changed", cfg), ("stated", stated)):
        write_trajectory_csv(run(config).records, tmp_path / f"{name}.csv")
    assert (tmp_path / "changed.csv").read_bytes() == (tmp_path / "stated.csv").read_bytes()


def test_B_axis_sets_the_aggregators_B(tmp_path):
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "K": 10},
        "sweep": {"seeds": [1], "B": [1, 2]},
        "tuning": {"enabled": False},
    })
    assert [(cell.B, axes) for cell, axes in manifest.cells] == [(1, {"B": 1}), (2, {"B": 2})]
    run_sweep(manifest, tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "bit_flip-cwmed+nnm-byz_nsgdm-B=1", "bit_flip-cwmed+nnm-byz_nsgdm-B=2", "summary.json"]
    # Each cell's rule runs with the cell's own B: its trajectory is the
    # run of a config that states that B.
    swept = {}
    for B in (1, 2):
        stated = parse_config({**BASE_CONFIG, "K": 10, "B": B, "seed": 1})
        write_trajectory_csv(run(stated).records, tmp_path / f"B={B}.csv")
        swept[B] = (tmp_path / "out" / f"bit_flip-cwmed+nnm-byz_nsgdm-B={B}" / "seed_1.csv")
        assert swept[B].read_bytes() == (tmp_path / f"B={B}.csv").read_bytes()
    assert swept[1].read_bytes() != swept[2].read_bytes()


def test_K_axis_sets_the_run_length(tmp_path):
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": BASE_CONFIG,
        "sweep": {"seeds": [1], "K": [7, 12]},
        "tuning": {"enabled": False},
    })
    run_sweep(manifest, tmp_path / "out")
    for K in (7, 12):
        rows = read_rows(tmp_path / "out" / f"bit_flip-cwmed+nnm-byz_nsgdm-K={K}" / "seed_1.csv")
        assert int(rows[-1]["k"]) == K


@pytest.mark.parametrize("name", ["table1.json", "ablation.json"])
def test_building_cells_leaves_the_manifest_base_as_read(name):
    spec = json.loads((CONFIGS / name).read_text())
    manifest = ExperimentManifest.from_dict(copy.deepcopy(spec))
    assert manifest.base == spec["base"]
