"""Experiment orchestration: JSON configs, CSV trajectories, learning-rate
tuning, and sweeps over run configs.

Config files are JSON with a ``schema`` version field. One function
(``_build``) reads them by walking the fields and type hints of
``RunConfig`` and its section dataclasses: every key must name a field
and every value must have the field's type (a JSON integer is accepted
for a float; an enumerated field takes one of the names its
``Literal[...]`` hint lists), and an omitted field takes its ``DEFAULTS``
entry or else the dataclass default. ``config_to_dict`` walks the same
fields back out.

A sweep manifest is a base config plus axes: ``seeds``, ``attacks``,
``aggregators``, ``optimizers``, and dotted paths such as
``"schedule.momentum_beta"`` that name a field of a config section. Every
sweep cell and tuning candidate is the base with overrides applied
(``override``); ``configs/table1.json`` and ``configs/ablation.json`` are
the paper's benchmark matrix and its momentum x step-size ablation. Two
entries of one axis that would give cells the same name, and so the same
output directory, are rejected at load.

Trajectories are CSV with fixed columns
``k,grad_norm,f_value,agg_error,step_size`` and floats rendered with 17
significant digits so they round-trip exactly. Sweep cells can run in
parallel processes; per-run determinism is unaffected because every run
re-derives its random streams from (seed, stream id) alone.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .aggregators import AggregatorSpec
from .attacks import AttackSpec
from .core import ConfigError, check_choice, field_hints
from .engine import RunConfig, RunResult, Schedule, TrajectoryRecord, run

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULTS",
    "ConfigFileError",
    "ExperimentManifest",
    "SummaryTable",
    "load_config",
    "load_manifest",
    "parse_config",
    "config_to_dict",
    "override",
    "write_trajectory_csv",
    "tune_gamma0",
    "run_sweep",
    "DEFAULT_TUNING_GRID",
    "final_grad_norm",
]

SCHEMA_VERSION = 1
CSV_COLUMNS = tuple(f.name for f in fields(TrajectoryRecord))
DEFAULT_TUNING_GRID = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)

# Parse-time defaults by dotted path. An omitted field without an entry
# takes its dataclass default. Two more values are implied by other keys:
# the aggregator's n and B are always the run's, and a theoretical
# schedule's horizon defaults to K.
DEFAULTS = {
    "objective.kind": "quartic",
    "objective.dim": 10,
    "n": 20,
    "B": 0,
    "K": 1000,
    "seed": 0,
    "optimizer": "byz_nsgdm",
    "x0": "ones",
    "aggregator.rule": "mean",
    "schedule.kind": "constant",
    "schedule.gamma0": 0.1,
}
FROM_RUN = ("n", "B")  # AggregatorSpec fields never read from a file

# Which step schedule each optimizer variant pairs with in sweeps.
OPTIMIZER_SCHEDULE = {
    "baseline": "constant",
    "baseline_decay": "practical_decay",
    "byz_nsgdm": "practical_decay",
}


class ConfigFileError(ConfigError):
    """Config problem annotated with file and (best-effort) line number."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        loc = f"{self.path}:{line}" if line else self.path
        super().__init__(f"{loc}: {message}")


def _key_line(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for i, row in enumerate(text.splitlines(), start=1):
        if needle in row:
            return i
    return None


def _error_line(text: str, message: str) -> int | None:
    """Best effort: the line of the first key the message quotes, else of
    the first word of the message that is a key in the file."""
    tokens = re.findall(r"'([^']+)'", message)
    tokens += [t.strip("'\":") for t in message.replace(",", " ").split()]
    for token in tokens:
        line = _key_line(text, token)
        if line:
            return line
    return None


def _check_keys(d, allowed, where: str) -> dict:
    """Return ``d`` if it is an object whose keys all lie in ``allowed``;
    otherwise raise a ConfigError that quotes the offending key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return d


def _check_schema(d: dict) -> None:
    if d.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported or missing schema version (want {SCHEMA_VERSION})")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# Config building and serialization


TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
              dict: "a JSON object"}


def _typed(hint, raw, key: str, where: str):
    """``raw`` checked against the type hint ``hint`` and returned as the
    field holds it: lists become tuples, sections become dataclasses, and
    an integer becomes a float where the hint is ``float``. A
    ``Literal[...]`` hint admits only the names it lists."""
    if typing.get_origin(hint) is typing.Literal:
        raw = _typed(type(typing.get_args(hint)[0]), raw, key, where)
        check_choice(hint, raw, key, f" in {where}")
        return raw
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # ``X | None``
        if raw is None:
            return None
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    if is_dataclass(hint):
        return _build(hint, raw, key)
    if typing.get_origin(hint) is tuple:  # ``tuple[X, ...]``
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{key!r} in {where} must be a list, got {raw!r}")
        return tuple(_typed(typing.get_args(hint)[0], v, key, where) for v in raw)
    if hint is float and isinstance(raw, int) and not isinstance(raw, bool):
        return float(raw)
    if not isinstance(raw, hint) or (isinstance(raw, bool) and hint is not bool):
        raise ConfigError(f"{key!r} in {where} must be {TYPE_NAMES[hint]}, got {raw!r}")
    return raw


def _build(cls, d, section: str, **given):
    """``cls`` built from the JSON object ``d`` of config ``section``.
    Every key must name a field outside ``given`` and carry a value of
    the field's type; an omitted field takes its ``DEFAULTS`` entry, else
    an empty section, else the dataclass default."""
    hints = {k: v for k, v in field_hints(cls).items() if k not in given}
    _check_keys(d, hints.keys(), section)
    prefix = "" if cls is RunConfig else f"{section}."
    kwargs = dict(given)
    for name, hint in hints.items():
        if name in d:
            raw = d[name]
        elif prefix + name in DEFAULTS:
            raw = DEFAULTS[prefix + name]
        elif is_dataclass(hint):
            raw = {}
        else:
            continue
        kwargs[name] = _typed(hint, raw, name, section)
    return cls(**kwargs)


def _parse_x0(raw, dim: int) -> np.ndarray:
    if raw == "ones":
        return np.ones(dim)
    if raw == "zeros":
        return np.zeros(dim)
    x0 = np.array(_typed(tuple[float, ...], raw, "x0", "config"))
    if x0.shape != (dim,):
        raise ConfigError(f"x0 has length {x0.size}, expected {dim}")
    return x0


def parse_config(d: dict) -> RunConfig:
    """Build a RunConfig from a config dict; unknown keys and ill-typed
    values at any level raise ConfigError."""
    _check_keys(d, field_hints(RunConfig).keys() | {"schema"}, "config")
    _check_schema(d)
    # The aggregator, the schedule and x0 depend on n, B, K and dim: they
    # are built once those are read.
    late = dict.fromkeys(("aggregator", "schedule", "x0"))
    draft = _build(RunConfig, {k: v for k, v in d.items() if k not in late and k != "schema"},
                   "config", **late)
    schedule = d.get("schedule", {})
    if isinstance(schedule, dict) and schedule.get(
            "kind", DEFAULTS["schedule.kind"]) == "theoretical":
        schedule = {"horizon": draft.K, **schedule}
    return replace(
        draft,
        aggregator=_build(AggregatorSpec, d.get("aggregator", {}), "aggregator",
                          n=draft.n, B=draft.B),
        schedule=_build(Schedule, schedule, "schedule"),
        x0=_parse_x0(d.get("x0", DEFAULTS["x0"]), draft.objective.dim),
    )


def _to_json(value):
    if is_dataclass(value):
        skip = FROM_RUN if isinstance(value, AggregatorSpec) else ()
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)
                if f.name not in skip}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_to_dict(config: RunConfig) -> dict:
    """Every field of ``config``, as ``parse_config`` reads it back."""
    return {"schema": SCHEMA_VERSION, **_to_json(config)}


def override(config: RunConfig, changes: dict) -> RunConfig:
    """``config`` with ``changes`` applied through ``dataclasses.replace``.
    A key names a RunConfig field, or with a dot a field of one of its
    sections (``"schedule.gamma0"``); the sections check their new values
    as they are built."""
    top, nested = {}, {}
    for path, value in changes.items():
        section, _, name = path.partition(".")
        if name:
            nested.setdefault(section, {})[name] = value
        else:
            top[path] = value
    for section, values in nested.items():
        top[section] = replace(top.get(section, getattr(config, section)), **values)
    return replace(config, **top)


def _load(path, parse):
    path = Path(path)
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigFileError(path, e.lineno, e.msg) from e
    try:
        return parse(data)
    except ConfigError as e:
        raise ConfigFileError(path, _error_line(text, str(e)), str(e)) from e


def load_config(path) -> RunConfig:
    """Parse a run config file; errors carry ``file:line``."""
    return _load(path, parse_config)


def load_manifest(path) -> "ExperimentManifest":
    """Parse a sweep manifest file; errors carry ``file:line``."""
    return _load(path, ExperimentManifest.from_dict)


# ---------------------------------------------------------------------------
# Trajectory I/O


def _row(r: TrajectoryRecord) -> list[str]:
    return [str(r.k), *(_fmt(getattr(r, c)) for c in CSV_COLUMNS[1:])]


def write_trajectory_csv(records: list[TrajectoryRecord], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_row(r) for r in records)


def final_grad_norm(result: RunResult) -> float:
    """Gradient norm of the last logged iteration; infinite for runs that
    did not finish (divergence)."""
    if result.diverged or not result.records:
        return math.inf
    return result.records[-1].grad_norm


# ---------------------------------------------------------------------------
# Sweeps


MANIFEST_KEYS = frozenset({"schema", "base", "sweep", "tuning"})
SWEEP_KEYS = frozenset({"seeds", "attacks", "aggregators", "optimizers"})
TUNING_KEYS = frozenset({"enabled", "grid", "prefix_iters"})


def _dotted_axis(base: RunConfig, path: str, values) -> tuple:
    """The values of the sweep axis ``path``, each checked against the
    field's type hint and by the section it is applied to."""
    section, _, name = path.partition(".")
    cls = field_hints(RunConfig).get(section)
    hints = field_hints(cls) if is_dataclass(cls) else {}
    if name not in hints or (section == "aggregator" and name in FROM_RUN):
        raise ConfigError(f"sweep axis {path!r} names no config field")
    values = _typed(tuple[hints[name], ...], values, path, "sweep")
    for value in values:
        try:
            override(base, {path: value})
        except ConfigError as e:
            raise ConfigError(f"sweep axis {path!r}: {e}") from e
    return values


@dataclass
class ExperimentManifest:
    """A base run configuration plus the sweep axes and tuning settings.
    ``axes`` maps dotted config paths to the values they sweep."""

    base: RunConfig
    seeds: tuple[int, ...]
    attacks: tuple[AttackSpec, ...]
    aggregators: tuple[AggregatorSpec, ...]
    optimizers: tuple[str, ...]
    axes: dict[str, tuple] = field(default_factory=dict)
    tune: bool = True
    tuning_grid: tuple[float, ...] = DEFAULT_TUNING_GRID
    tuning_prefix: int = 1000

    def __post_init__(self):
        # Each axis value as it appears in cell names and CSV file names.
        labels = {"seeds": self.seeds, "attacks": [a.kind for a in self.attacks],
                  "aggregators": [a.name for a in self.aggregators],
                  "optimizers": self.optimizers, **self.axes}
        for name, values in labels.items():
            if not values:
                raise ConfigError(f"sweep axis {name!r} is empty")
            if len({str(v) for v in values}) < len(values):
                raise ConfigError(f"sweep axis {name!r} has two entries with one name; "
                                  "the second would overwrite the first's output")
        for optimizer in self.optimizers:
            check_choice(field_hints(RunConfig)["optimizer"], optimizer, "optimizer", " in sweep")
        if self.tune and "schedule.gamma0" in self.axes:
            raise ConfigError("sweep axis 'schedule.gamma0' needs tuning.enabled false")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentManifest":
        """Parse a manifest dict. Sweep axes it omits default to the base
        config's single setting; unknown keys and ill-typed values at any
        level raise ConfigError."""
        _check_keys(d, MANIFEST_KEYS, "manifest")
        _check_schema(d)
        if not isinstance(d.get("base"), dict):
            raise ConfigError("manifest needs a 'base' config object")
        base = parse_config({**d["base"], "schema": SCHEMA_VERSION})
        sweep = d.get("sweep", {})
        dotted = {k: v for k, v in sweep.items() if "." in k} if isinstance(sweep, dict) else {}
        _check_keys(sweep, SWEEP_KEYS | dotted.keys(), "sweep")
        tuning = _check_keys(d.get("tuning", {}), TUNING_KEYS, "tuning")
        attacks = sweep.get("attacks")
        aggregators = sweep.get("aggregators")
        return cls(
            base=base,
            seeds=_typed(tuple[int, ...], sweep.get("seeds", [base.seed]), "seeds", "sweep"),
            attacks=(base.attack,) if attacks is None else tuple(
                _build(AttackSpec, a, "attack")
                for a in _typed(tuple[dict, ...], attacks, "attacks", "sweep")
            ),
            aggregators=(base.aggregator,) if aggregators is None else tuple(
                _build(AggregatorSpec, a, "aggregator", n=base.n, B=base.B)
                for a in _typed(tuple[dict, ...], aggregators, "aggregators", "sweep")
            ),
            optimizers=_typed(tuple[str, ...], sweep.get("optimizers", [base.optimizer]),
                              "optimizers", "sweep"),
            axes={k: _dotted_axis(base, k, v) for k, v in dotted.items()},
            tune=_typed(bool, tuning.get("enabled", True), "enabled", "tuning"),
            tuning_grid=_typed(tuple[float, ...], tuning.get("grid", DEFAULT_TUNING_GRID),
                               "grid", "tuning"),
            tuning_prefix=_typed(int, tuning.get("prefix_iters", 1000), "prefix_iters",
                                 "tuning"),
        )

    def cells(self) -> list[tuple[RunConfig, dict]]:
        """One (config, dotted-axis values) pair per sweep cell: the base
        with the cell's attack, aggregator and optimizer, the schedule
        kind ``OPTIMIZER_SCHEDULE`` pairs with the optimizer, and the
        dotted-axis values applied last. Seed and gamma0 are set per run."""
        return [
            (override(self.base, {"attack": atk, "aggregator": agg, "optimizer": opt,
                                  "schedule.kind": OPTIMIZER_SCHEDULE[opt], **axes}), axes)
            for atk in self.attacks
            for agg in self.aggregators
            for opt in self.optimizers
            for axes in (dict(zip(self.axes, v)) for v in itertools.product(*self.axes.values()))
        ]


@dataclass
class CellSummary:
    attack: str
    aggregator: str
    optimizer: str
    gamma0: float
    final_grad_norms: list[float | None]
    seeds: list[int]
    axes: dict = field(default_factory=dict)

    @property
    def name(self) -> tuple[str, ...]:
        """Attack, aggregator, optimizer, then ``path=value`` per dotted axis."""
        return (self.attack, self.aggregator, self.optimizer,
                *(f"{k}={v}" for k, v in self.axes.items()))

    @property
    def finite_values(self) -> list[float]:
        return [v for v in self.final_grad_norms if v is not None]

    @property
    def mean(self) -> float:
        vals = self.finite_values
        return float(np.mean(vals)) if vals else math.inf

    @property
    def std(self) -> float:
        vals = self.finite_values
        return float(np.std(vals)) if vals else math.inf

    def as_dict(self) -> dict:
        d = {
            "attack": self.attack,
            "aggregator": self.aggregator,
            "optimizer": self.optimizer,
            "gamma0": self.gamma0,
            "seeds": self.seeds,
            "final_grad_norms": [
                v if v is not None else "diverged" for v in self.final_grad_norms
            ],
            "mean_final_grad_norm": self.mean if self.finite_values else "diverged",
            "std_final_grad_norm": self.std if self.finite_values else "diverged",
        }
        if self.axes:
            d["axes"] = self.axes
        return d


@dataclass
class SummaryTable:
    cells: list[CellSummary] = field(default_factory=list)

    def cell(self, *name: str) -> CellSummary:
        """The cell named (attack, aggregator, optimizer, *dotted-axis
        labels), as ``CellSummary.name`` spells it."""
        for c in self.cells:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "cells": [c.as_dict() for c in self.cells]}

    def format_table(self) -> str:
        """Mean +/- std of the final gradient norm per cell, in units of
        1e-6, one row per (attack, aggregator) and dotted-axis values,
        one column per optimizer."""
        rows = sorted(dict.fromkeys((c.name[:2], c.name[3:]) for c in self.cells),
                      key=lambda row: row[0])
        opts = sorted({c.optimizer for c in self.cells})
        lines = ["attack     aggregator   " + "  ".join(f"{o:>24}" for o in opts)]
        for (a, g), labels in rows:
            row = [f"{a:<10} {g:<12}" + "".join(f" {label}" for label in labels)]
            for o in opts:
                try:
                    c = self.cell(a, g, o, *labels)
                except KeyError:
                    row.append(f"{'-':>24}")
                    continue
                if not c.finite_values:
                    row.append(f"{'diverged':>24}")
                else:
                    row.append(f"{c.mean / 1e-6:>12.2f}+-{c.std / 1e-6:<10.2f}")
            lines.append("  ".join(row))
        lines.append("(final gradient norm, units 1e-6)")
        return "\n".join(lines)


def _run_for_final(config: RunConfig) -> float:
    return final_grad_norm(run(config))


def tune_gamma0(
    make_config,
    grid=DEFAULT_TUNING_GRID,
    executor: ProcessPoolExecutor | None = None,
) -> tuple[float, dict[float, float]]:
    """Evaluate each candidate gamma0 with ``make_config(gamma0)`` and
    return the one minimizing the final gradient norm (ties toward the
    smaller rate). Diverged candidates score infinity."""
    configs = [make_config(g) for g in grid]
    scores = list((executor.map if executor else map)(_run_for_final, configs))
    table = dict(zip(grid, scores))
    best = min(sorted(grid), key=lambda g: table[g])
    return best, table


def run_sweep(manifest: ExperimentManifest, out_dir, jobs: int = 1) -> SummaryTable:
    """Tune gamma0 (optionally, on the first seed and a short prefix) and
    run every cell of ``manifest.cells()`` across all seeds; write
    per-run CSVs and a summary JSON."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = manifest.cells()
    prefix = {"seed": manifest.seeds[0], "K": manifest.tuning_prefix,
              "log_every": manifest.tuning_prefix}
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as executor:
        gamma0s = []
        for cell, _ in cells:
            if manifest.tune:
                best, _ = tune_gamma0(
                    lambda g, c=cell: override(c, {"schedule.gamma0": g, **prefix}),
                    grid=manifest.tuning_grid,
                    executor=executor,
                )
            else:
                best = cell.schedule.gamma0
            gamma0s.append(best)
        run_configs = [
            override(cell, {"schedule.gamma0": gamma0, "seed": seed})
            for (cell, _), gamma0 in zip(cells, gamma0s)
            for seed in manifest.seeds
        ]
        results = list((executor.map if executor else map)(run, run_configs))

    table = SummaryTable()
    per_cell = iter(results)
    for (cell, axes), gamma0 in zip(cells, gamma0s):
        summary = CellSummary(
            attack=cell.attack.kind,
            aggregator=cell.aggregator.name,
            optimizer=cell.optimizer,
            gamma0=gamma0,
            final_grad_norms=[],
            seeds=[],
            axes=axes,
        )
        table.cells.append(summary)
        for seed in manifest.seeds:
            result = next(per_cell)
            value = final_grad_norm(result)
            summary.final_grad_norms.append(None if math.isinf(value) else value)
            summary.seeds.append(seed)
            cell_dir = out_dir / "-".join(summary.name)
            write_trajectory_csv(result.records, cell_dir / f"seed_{seed}.csv")

    with open(out_dir / "summary.json", "w") as fh:
        json.dump(table.as_dict(), fh, indent=2, sort_keys=True)
    return table
