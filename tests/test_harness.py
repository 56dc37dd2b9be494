import json
import math
from pathlib import Path

import pytest

from byzsim.core import ConfigError
from byzsim.engine import TrajectoryRecord, run
from byzsim.harness import (
    OPTIMIZER_SCHEDULE,
    ConfigFileError,
    ExperimentManifest,
    _cell_config,
    config_to_dict,
    final_grad_norm,
    load_config,
    load_manifest,
    parse_config,
    read_trajectory_csv,
    run_sweep,
    table1_manifest,
    tune_gamma0,
    write_plot_data,
    write_trajectory_csv,
)

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


def write_config(tmp_path, overrides=None, name="config.json"):
    data = dict(BASE_CONFIG)
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def test_config_roundtrip(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    again = parse_config(config_to_dict(cfg))
    assert config_to_dict(cfg) == config_to_dict(again)
    assert again.aggregator.nnm and again.n == 6


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
    back = read_trajectory_csv(path)
    assert back == result.records  # 17 significant digits round-trip


def test_csv_byte_identical_between_runs(tmp_path):
    cfg1 = parse_config(BASE_CONFIG)
    cfg2 = parse_config(BASE_CONFIG)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(run(cfg1).records, p1)
    write_trajectory_csv(run(cfg2).records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_plot_data_format(tmp_path):
    records = [TrajectoryRecord(0, 1.0, 2.0, 0.0, 0.0)]
    path = tmp_path / "t.dat"
    write_plot_data(records, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# k grad_norm")
    assert lines[1].split() == ["0", "1", "2", "0", "0"]


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

    def make(gamma0):
        return parse_config({**BASE_CONFIG, "K": 5,
                             "schedule": {"kind": "constant", "gamma0": gamma0}})

    best, table = tune_gamma0(make, grid=(1.0, 0.2, 0.05, 0.01))
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
    assert len(manifest.attacks) == 2 and manifest.seeds == (1, 2)
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
    rows = read_trajectory_csv(tmp_path / "out" / "none-mean-byz_nsgdm" / "seed_1.csv")
    assert rows[-1].grad_norm == table.cells[0].final_grad_norms[0]


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
    m = table1_manifest()
    assert len(m.attacks) == 3 and len(m.aggregators) == 3 and len(m.optimizers) == 3
    assert all(a.nnm for a in m.aggregators)
    assert m.base.n == 20 and m.base.B == 3 and m.base.K == 3000
    assert m.seeds == (1, 2, 3)


def test_manifest_omitted_axes_default_to_base():
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "attack": {"kind": "alie"},
                 "aggregator": {"rule": "gm", "nnm": True}},
        "sweep": {"seeds": [1]},
    })
    assert [a.kind for a in manifest.attacks] == ["alie"]
    assert [(g.rule, g.nnm) for g in manifest.aggregators] == [("gm", True)]
    assert manifest.optimizers == ("byz_nsgdm",)


def test_unknown_key_rejected_with_file_line(tmp_path):
    path = write_config(tmp_path, {"optimiser": "baseline"})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1)
                if '"optimiser"' in row)
    with pytest.raises(ConfigFileError, match=rf"config\.json:{line}: .*'optimiser'"):
        load_config(path)


@pytest.mark.parametrize("section", ["objective", "oracle", "attack", "aggregator", "schedule"])
def test_unknown_nested_key_rejected(section):
    with pytest.raises(ConfigError, match=rf"'bogus' in {section}"):
        parse_config({**BASE_CONFIG, section: {**BASE_CONFIG.get(section, {}), "bogus": 1}})


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
    root = Path(__file__).resolve().parent.parent / "configs"
    assert load_config(root / "example_run.json").aggregator.rule == "gm"
    assert len(load_manifest(root / "example_manifest.json").attacks) == 3


def test_cell_config_keeps_base_init_momentum():
    manifest = ExperimentManifest.from_dict({
        "schema": 1,
        "base": {**BASE_CONFIG, "init_momentum": "zero",
                 "schedule": {"kind": "constant", "gamma0": 0.1}},
    })
    cell = _cell_config(manifest, manifest.attacks[0], manifest.aggregators[0],
                        "byz_nsgdm", 0.05, 1, 10)
    assert cell.init_momentum == "zero"
    assert cell.schedule.kind == OPTIMIZER_SCHEDULE["byz_nsgdm"]
