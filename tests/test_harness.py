import copy
import csv
import json
import math
import typing
from pathlib import Path

import pytest

from byzsim.core import ConfigError, field_hints
from byzsim.engine import RunConfig, TrajectoryRecord, run
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
from test_golden import GOLDEN, golden_config

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


def test_tune_prefers_smaller_rate_on_tie(monkeypatch):
    import byzsim.harness as harness_mod

    scores = {0.01: 3.0, 0.05: 1.0, 0.2: 1.0, 1.0: math.inf}
    monkeypatch.setattr(harness_mod, "_run_for_final",
                        lambda cfg: scores[cfg.schedule.gamma0])

    config = {**BASE_CONFIG, "schedule": {"kind": "constant", "gamma0": 0.1}}
    best, table = tune_gamma0(config, {"K": 5}, grid=(1.0, 0.2, 0.05, 0.01))
    assert best == 0.05  # smaller rate wins the tie, diverged scores lose
    assert table[1.0] == math.inf


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
    cells = [cell for cell, _ in manifest.cells()]
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


def test_table1_manifest_shape():
    m = load_manifest(CONFIGS / "table1.json")
    cells = [cell for cell, _ in m.cells()]
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
    (cell, _), = manifest.cells()
    assert cell.attack.kind == "alie"
    assert (cell.aggregator.rule, cell.aggregator.nnm) == ("gm", True)
    assert cell.optimizer == "byz_nsgdm"


def test_unknown_key_rejected_with_file_line(tmp_path):
    path = write_config(tmp_path, {"optimiser": "baseline"})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1)
                if '"optimiser"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: .*'optimiser'"):
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
])
def test_unknown_nested_key_rejected(changes, match):
    """Unknown keys and ill-typed values raise a ConfigError naming the key."""
    with pytest.raises(ConfigError, match=match):
        parse_config({**BASE_CONFIG, **changes})


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
    assert len(ablation.cells()) == 42 and not ablation.tune


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
    # The line is the sweep's "B", not the base's.
    pytest.param({"B": [1, 3]}, {}, "B", id="B-makes-aggregator-invalid"),
    pytest.param({"seed": [1, 2]}, {}, "seed", id="path-of-a-named-axis"),
    # Cells are named by parsed values: 1 and 1.0 are one gamma0.
    pytest.param({"schedule.gamma0": [1, 1.0]}, {"enabled": False}, "schedule.gamma0",
                 id="gamma0-int-and-float-one-name"),
    # Cells are named by attack kind and rule: these pairs would share a name.
    pytest.param({"attacks": [{"kind": "alie"}, {"kind": "alie", "alie_z": 3.0}]}, {},
                 "attacks", id="attack-cell-name-collision"),
    pytest.param({"aggregators": [{"rule": "gm"}, {"rule": "gm", "gm_nu": 1e-6}]}, {},
                 "aggregators", id="aggregator-cell-name-collision"),
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
    (cell, axes), = manifest.cells()
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


def test_changed_n_and_K_rederive_aggregator_and_horizon():
    theoretical = {**BASE_CONFIG, "schedule": {"kind": "theoretical", "gamma0": 0.1}}
    cfg = parse_config(with_changes(theoretical, {"n": 10, "B": 4, "K": 30}))
    assert (cfg.aggregator.n, cfg.aggregator.B, cfg.schedule.horizon) == (10, 4, 30)


def test_B_axis_sets_the_aggregators_B(tmp_path):
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "K": 10},
        "sweep": {"seeds": [1], "B": [1, 2]},
        "tuning": {"enabled": False},
    })
    assert [(cell.B, cell.aggregator.B, axes) for cell, axes in manifest.cells()] == [
        (1, 1, {"B": 1}), (2, 2, {"B": 2})]
    run_sweep(manifest, tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "bit_flip-cwmed+nnm-byz_nsgdm-B=1", "bit_flip-cwmed+nnm-byz_nsgdm-B=2", "summary.json"]


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
    manifest.cells()
    assert manifest.base == spec["base"]
