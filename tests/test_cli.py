import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import byzsim
from byzsim import cli, harness
from byzsim.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = str(Path(byzsim.__file__).resolve().parent.parent)

CONFIG = {
    "schema": 1,
    "objective": {"kind": "quartic", "dim": 10},
    "oracle": {"noise_variance": 1e-10, "shift_variance": 0.0},
    "n": 6,
    "B": 1,
    "attack": {"kind": "bit_flip"},
    "aggregator": {"rule": "cwmed", "nnm": True},
    "schedule": {"kind": "practical_decay", "gamma0": 0.1, "momentum_beta": 0.9},
    "optimizer": "byz_nsgdm",
    "K": 60,
    "seed": 2,
    "x0": "ones",
    "log_every": 5,
}


def write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def test_run_smoke(tmp_path, capsys):
    cfg = write(tmp_path, CONFIG)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:")
    csv_path = tmp_path / "out" / "trajectory.csv"
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "k,grad_norm,f_value,agg_error,step_size"
    assert 0 < len(rows) - 1 <= 61
    # grad_norm column strictly positive on this run
    assert all(float(r.split(",")[1]) > 0 for r in rows[1:])
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["trajectory.csv"]


def test_run_byte_identical_repeats(tmp_path):
    cfg = write(tmp_path, CONFIG)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_run_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, {**CONFIG, "oracle": {"noise_variance": 1e-5}})
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a != b


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    cfg = write(tmp_path, {**CONFIG, "B": 3})  # B >= n/2
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,\n "n": }')
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "bad.json:2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["run", "--log-every", "0"], "log_every must be >= 1", id="run-log-every-0"),
    pytest.param(["run", "--seed", "-1"], "seed must be >= 0", id="run-seed-minus-1"),
    pytest.param(["run", "--seed", str(2**64)], "seed must be < 2**64", id="run-seed-2-to-64"),
    pytest.param(["tune", "--prefix", "0"], "--prefix must be >= 1", id="tune-prefix-0"),
])
def test_bad_override_quotes_no_file_line(tmp_path, capsys, argv, message):
    """A flag value that cannot run is the flag's error, not a line of the
    valid config file it overrides."""
    rc = main([*argv, "--config", str(CONFIGS / "example_run.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_verify_negative_seed_exits_with_error(tmp_path, capsys):
    rc = main(["verify", "--seed", "-1", "--trials", "10", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0\n"


def test_verify_seed_past_64_bits_exits_with_error(tmp_path, capsys):
    rc = main(["verify", "--seed", str(2**64), "--trials", "10", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --seed must be < 2**64\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["sweep", "--config", str(CONFIGS / "ablation.json"), "--jobs", "0"],
                 id="sweep-jobs-0"),
    pytest.param(["tune", "--config", str(CONFIGS / "example_run.json"), "--prefix", "5",
                  "--jobs", "0"], id="tune-jobs-0"),
    pytest.param(["tune", "--config", str(CONFIGS / "example_run.json"), "--prefix", "5",
                  "--jobs", "-3"], id="tune-jobs-minus-3"),
])
def test_jobs_below_one_exits_with_error(tmp_path, capsys, argv):
    rc = main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --jobs must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_run_has_no_jobs_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(CONFIGS / "example_run.json"), "--jobs", "2",
              "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_ill_typed_value_reports_line(tmp_path, capsys):
    path = write(tmp_path, {**CONFIG, "K": "abc"})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1) if '"K"' in row)
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config.json:{line}: 'K' in config must be an integer" in capsys.readouterr().err


def test_misspelled_optimizer_reports_line(tmp_path, capsys):
    path = write(tmp_path, {**CONFIG, "optimizer": "byz_nsgmd"})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1)
                if '"optimizer"' in row)
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"config.json:{line}: unknown optimizer 'byz_nsgmd' in config"
            in capsys.readouterr().err)


def test_bad_label_table_reports_line(tmp_path, capsys):
    """``byzsim run`` checks an ``oracle.labels`` table when it loads the
    config, and points at the table's line."""
    config = {**CONFIG, "n": 2, "B": 0, "attack": {"kind": "none"},
              "aggregator": {"rule": "mean"}, "x0": "zeros",
              "objective": {"kind": "softmax", "dim": 8, "n_classes": 4, "feature_dim": 2,
                            "samples_per_worker": 3, "n_workers": 2},
              "oracle": {"labels": [[0, 1, 2], [3, 7, 0]]}}
    path = write(tmp_path, config)
    line = next(i for i, row in enumerate(path.read_text().splitlines(), 1)
                if '"labels"' in row)
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"config.json:{line}: 'labels' in oracle: row 1 has label 7"
            in capsys.readouterr().err)


def test_cli_import_loads_no_scipy():
    """A fresh interpreter that imports the CLI has no scipy module loaded."""
    code = "import sys, byzsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "[]"


def test_diverged_run_exits_zero(tmp_path, capsys):
    cfg = write(tmp_path, {
        **CONFIG,
        "optimizer": "baseline",
        "schedule": {"kind": "constant", "gamma0": 0.9, "momentum_beta": 0.0},
    })
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("diverged")


def test_tune_writes_choice(tmp_path, capsys):
    cfg = write(tmp_path, CONFIG)
    rc = main(["tune", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "--prefix", "50"])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "tuned.json").read_text())
    assert str(payload["gamma0"]) in payload["scores"]
    assert "tuned gamma0" in capsys.readouterr().out


def test_tune_keeps_theoretical_horizon(tmp_path, monkeypatch):
    """Candidates run on the prefix with the horizon of the full K, which
    the config leaves for the parser to derive."""
    horizons = []

    def record(configs, capture_states=False):
        horizons.extend(config.schedule.horizon for config in configs)
        return [harness.RunResult(records=[], final_x=config.x0, honest_shifts=None)
                for config in configs]

    monkeypatch.setattr(harness, "run_batch", record)
    cfg = write(tmp_path, {**CONFIG, "schedule": {"kind": "theoretical", "gamma0": 0.1}})
    assert main(["tune", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--prefix", "20"]) == 0
    assert horizons == [CONFIG["K"]] * len(harness.DEFAULT_TUNING_GRID)


def test_tune_passes_jobs(tmp_path, monkeypatch):
    calls = []

    def tune_gamma0(configs, grid=harness.DEFAULT_TUNING_GRID, jobs=1):
        calls.append(jobs)
        return [(0.1, {0.1: 1.0})]

    monkeypatch.setattr(harness, "tune_gamma0", tune_gamma0)
    cfg = write(tmp_path, CONFIG)
    assert main(["tune", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--jobs", "2"]) == 0
    assert calls == [2]


def test_sweep_smoke(tmp_path, capsys):
    manifest = {
        "schema": 1,
        "base": {**CONFIG, "K": 40},
        "sweep": {
            "seeds": [1, 2],
            "attacks": [{"kind": "alie"}],
            "aggregators": [{"rule": "cwmed", "nnm": True}],
            "optimizers": ["byz_nsgdm", "baseline"],
        },
        "tuning": {"enabled": False},
    }
    cfg = write(tmp_path, manifest, "manifest.json")
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert "byz_nsgdm" in capsys.readouterr().out


def test_ablation_smoke(tmp_path, capsys):
    """configs/ablation.json, shortened to K=30, sweeps 7 betas x 6 gamma0s."""
    manifest = json.loads((CONFIGS / "ablation.json").read_text())
    manifest["base"].update(K=30, log_every=30)
    cfg = write(tmp_path, manifest, "ablation.json")
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary["cells"]) == 42
    assert {c["axes"]["schedule.momentum_beta"] for c in summary["cells"]} == {
        0.0, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99}
    assert "schedule.momentum_beta=0.99 schedule.gamma0=0.5" in capsys.readouterr().out


def test_attack_free_smoke_run_shape(tmp_path):
    """B=0, no attack, K=100: at most 101 rows, gradient norm positive
    throughout on a run that never reaches the exact optimum."""
    cfg = write(tmp_path, {
        **CONFIG, "n": 4, "B": 0,
        "attack": {"kind": "none"},
        "aggregator": {"rule": "mean"},
        "K": 100, "log_every": 1,
    })
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    assert 0 < len(rows) <= 101
    assert all(float(r.split(",")[1]) > 0 for r in rows)


def test_verify_battery_smoke(tmp_path, capsys):
    rc = main(["verify", "--trials", "60", "--out", str(tmp_path / "reports")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all 12 checks passed" in out
    assert "PASS robustness[mean]: " in out and "(teeth)" in out
    reports = list((tmp_path / "reports").glob("*.json"))
    assert len(reports) == 12
    payload = json.loads(reports[0].read_text())
    assert {"name", "instances", "violations", "worst_margin"} <= payload.keys()
    names = {json.loads(p.read_text())["name"] for p in reports}
    assert names == {name for check in cli.BATTERY for name in check.names}


def test_verify_streams_its_lines(tmp_path, capsys, monkeypatch):
    """Each report line is printed when its check returns: the seven
    robustness lines are out before the smoothness check starts."""
    seen = []
    check_l0l1 = cli.check_l0l1

    def recording(*args, **kwargs):
        seen.append(capsys.readouterr().out)
        return check_l0l1(*args, **kwargs)

    monkeypatch.setattr(cli, "check_l0l1", recording)
    assert main(["verify", "--trials", "20", "--out", str(tmp_path)]) == 0
    (printed,) = seen
    lines = [line for line in printed.splitlines() if line.startswith("PASS robustness[")]
    assert len(lines) == 7
