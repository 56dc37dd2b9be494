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

``parse_config`` is the one place a ``RunConfig`` is built from data.
Every sweep cell, tuning candidate and run is a config dict with some
paths set (``with_changes``) and parsed again, so the fields derived from
others follow them: a theoretical horizon follows K, and the aggregator's
(n, B) follow the run's.

A sweep manifest is a base config dict plus axes. The named axes
``seeds``, ``attacks``, ``aggregators`` and ``optimizers`` set the config
paths ``seed``, ``attack``, ``aggregator`` and ``optimizer``; any other
sweep key is itself a config path, top-level (``"K"``, ``"B"``) or dotted
(``"schedule.momentum_beta"``). ``configs/table1.json`` and
``configs/ablation.json`` are the paper's benchmark matrix and its
momentum x step-size ablation. Each axis value is checked at load by
parsing the base with that one value set, then every cell is built, so
values that are valid alone but not together (an ``n`` and a ``B``) fail
at load too. Two entries of one axis that would give cells the same
name, and so the same output directory, are rejected.

Trajectories are CSV with fixed columns
``k,grad_norm,f_value,agg_error,step_size`` and floats rendered with 17
significant digits so they round-trip exactly. A sweep runs every
cell's tuning candidates, then every cell's seeds, each phase as
lockstep groups of the configs that differ only in seed, schedule and
optimizer (``run_grouped``); the groups can run in parallel processes,
a group of more than its share of the phase cut into chunks. Neither
changes a byte: every row of a lockstep batch is its run alone,
and every run re-derives its random streams from (seed, stream id).
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
from .core import ConfigError, check_choice, field_hints
# ``run`` is not called here; it stays importable as ``byzsim.harness.run``,
# a name bench/tracing.py times.
from .engine import (  # noqa: F401
    RunConfig,
    RunResult,
    Schedule,
    TrajectoryRecord,
    lockstep_mismatch,
    run,
    run_batch,
)

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
    "with_changes",
    "write_trajectory_csv",
    "tune_gamma0",
    "run_grouped",
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
# schedule's horizon defaults to K; both are derived again on every parse.
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


def _key_line(text: str, key: str, start: int = 1) -> int | None:
    needle = f'"{key}"'
    for i, row in enumerate(text.splitlines()[start - 1:], start=start):
        if needle in row:
            return i
    return None


def _error_line(text: str, message: str) -> int | None:
    """Best effort: the line of the first key the message quotes, else of
    the first word of the message that is a key in the file, looked for
    from the section the message names on: from the ``sweep`` block for a
    sweep axis, past a base key of the same name (``"B"``), and from the
    ``schedule`` key for ``'kind' in schedule``, past the objective's."""
    section = re.match(r"(sweep) ax|.*? in (\w+)", message)
    start = (section and _key_line(text, section[1] or section[2])) or 1
    tokens = re.findall(r"'([^']+)'", message)
    tokens += [t.strip("'\":") for t in message.replace(",", " ").split()]
    for token in tokens:
        line = _key_line(text, token, start)
        if line:
            return line
    return None


def _object(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    return d


def _check_keys(d, allowed, where: str) -> dict:
    """Return ``d`` if it is an object whose keys all lie in ``allowed``;
    otherwise raise a ConfigError that quotes the offending key."""
    for key in _object(d, where):
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


def with_changes(d: dict, changes: dict) -> dict:
    """A copy of the config dict ``d`` with each path of ``changes`` set:
    a top-level key (``"K"``) or a dotted path into a section
    (``"schedule.gamma0"``). ``d`` and its sections are left as they are."""
    out = dict(_object(d, "config"))
    for path, value in changes.items():
        *sections, name = path.split(".")
        node = out
        for section in sections:
            node[section] = dict(_object(node.get(section, {}), section))
            node = node[section]
        node[name] = value
    return out


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


def load_config(path, changes: dict | None = None) -> RunConfig:
    """Parse a run config file with ``changes`` set (``with_changes``);
    errors carry ``file:line``."""
    return _load(path, lambda d: parse_config(with_changes(d, changes or {})))


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
TUNING_KEYS = frozenset({"enabled", "grid", "prefix_iters"})
# Named sweep axis -> the config path it sets, and the path of the value
# that names it in output: cells by attack kind, rule name and optimizer,
# runs by seed.
NAMED_AXES = {
    "seeds": ("seed", "seed"),
    "attacks": ("attack", "attack.kind"),
    "aggregators": ("aggregator", "aggregator.name"),
    "optimizers": ("optimizer", "optimizer"),
}


def _label(config: RunConfig, path: str):
    """The value at the dotted ``path`` of ``config``, as JSON holds it."""
    value = config
    for name in path.split("."):
        value = getattr(value, name)
    return _to_json(value)


@dataclass
class ExperimentManifest:
    """A base config dict plus the sweep axes and tuning settings. ``axes``
    maps each sweep key to its list of raw config values: a named axis
    (``NAMED_AXES``) sets its config path, any other key is the config
    path it sets."""

    base: dict
    axes: dict[str, list] = field(default_factory=dict)
    tune: bool = True
    tuning_grid: tuple[float, ...] = DEFAULT_TUNING_GRID
    tuning_prefix: int = 1000

    def __post_init__(self):
        self.config({})  # the base alone, so that its own errors name no axis
        named_paths = {path: key for key, (path, _) in NAMED_AXES.items()}
        for key, values in self.axes.items():
            path, label = NAMED_AXES.get(key, (key, key))
            if key in named_paths:
                raise ConfigError(f"sweep axis {key!r}: use the named axis {named_paths[key]!r}")
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"{key!r} in sweep must be a list, got {values!r}")
            if not values:
                raise ConfigError(f"sweep axis {key!r} is empty")
            try:
                labels = {str(_label(self.config({path: v}), label)) for v in values}
            except ConfigError as e:
                raise ConfigError(f"sweep axis {key!r}: {e}") from e
            if len(labels) < len(values):
                raise ConfigError(f"sweep axis {key!r} has two entries with one name; "
                                  "the second would overwrite the first's output")
        if self.tune and "schedule.gamma0" in self.axes:
            raise ConfigError("sweep axis 'schedule.gamma0' needs tuning.enabled false")
        self.cells()  # values that are valid alone may not be together

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentManifest":
        """Parse a manifest dict. Sweep axes it omits hold the base
        config's single setting; unknown keys and ill-typed values at any
        level raise ConfigError."""
        _check_keys(d, MANIFEST_KEYS, "manifest")
        _check_schema(d)
        tuning = _check_keys(d.get("tuning", {}), TUNING_KEYS, "tuning")
        return cls(
            base=_object(d.get("base"), "manifest base"),
            axes=_object(d.get("sweep", {}), "sweep"),
            tune=_typed(bool, tuning.get("enabled", True), "enabled", "tuning"),
            tuning_grid=_typed(tuple[float, ...], tuning.get("grid", DEFAULT_TUNING_GRID),
                               "grid", "tuning"),
            tuning_prefix=_typed(int, tuning.get("prefix_iters", 1000), "prefix_iters",
                                 "tuning"),
        )

    def config(self, changes: dict) -> RunConfig:
        """The base config with ``changes`` set (``with_changes``), parsed."""
        return parse_config(with_changes(self.base, {"schema": SCHEMA_VERSION, **changes}))

    @property
    def seeds(self) -> list[int]:
        """The ``seeds`` axis, else the base config's seed."""
        return list(self.axes.get("seeds") or [self.config({}).seed])

    def cells(self) -> list[tuple[RunConfig, dict]]:
        """One (config, path-axis values) pair per sweep cell, one cell per
        combination of attack, aggregator, optimizer and path-axis values,
        in that order: the base with the schedule kind
        ``OPTIMIZER_SCHEDULE`` pairs with the optimizer set, then the
        cell's values (so a ``schedule.kind`` axis wins). Seed and gamma0
        are set per run."""
        keys = [k for k in NAMED_AXES if k in self.axes and k != "seeds"]
        keys += [k for k in self.axes if k not in NAMED_AXES]
        cells = []
        for values in itertools.product(*(self.axes[k] for k in keys)):
            changes = {NAMED_AXES.get(k, (k,))[0]: v for k, v in zip(keys, values)}
            optimizer = changes.get("optimizer", self.base.get("optimizer", DEFAULTS["optimizer"]))
            try:
                config = self.config({"schedule.kind": OPTIMIZER_SCHEDULE[optimizer], **changes})
            except ConfigError as e:
                raise ConfigError(f"sweep axes {', '.join(map(repr, keys))} at {values}: {e}") from e
            cells.append((config, {k: _label(config, k) for k in keys if k not in NAMED_AXES}))
        return cells


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
        """Attack, aggregator, optimizer, then ``path=value`` per path axis."""
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
        """The cell named (attack, aggregator, optimizer, *path-axis
        labels), as ``CellSummary.name`` spells it."""
        for c in self.cells:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, "cells": [c.as_dict() for c in self.cells]}

    def format_table(self) -> str:
        """Mean +/- std of the final gradient norm per cell, in units of
        1e-6, one row per (attack, aggregator) and path-axis values,
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


def run_grouped(configs: list[RunConfig], jobs: int = 1) -> list[RunResult]:
    """Run every config and return their results in input order. Configs
    that may run in lockstep (``engine.lockstep_mismatch``) form one
    ``run_batch`` group, in input order. With ``jobs`` > 1 the groups are
    mapped over that many worker processes, each group cut into
    contiguous chunks of at most ceil(len(configs) / jobs) rows, so that
    a phase of one large group still keeps every worker busy."""
    groups: list[list[int]] = []
    for i, config in enumerate(configs):
        for group in groups:
            if lockstep_mismatch(configs[group[0]], config) is None:
                group.append(i)
                break
        else:
            groups.append([i])
    if jobs > 1:
        size = -(-len(configs) // jobs)
        groups = [group[j:j + size] for group in groups for j in range(0, len(group), size)]
    batches = [[configs[i] for i in group] for group in groups]
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as executor:
        batches = list((executor.map if executor else map)(run_batch, batches))
    results: list[RunResult] = [None] * len(configs)
    for group, batch in zip(groups, batches):
        for i, result in zip(group, batch):
            results[i] = result
    return results


def tune_gamma0(
    configs: list[dict],
    changes: dict,
    grid=DEFAULT_TUNING_GRID,
    jobs: int = 1,
) -> list[tuple[float, dict[float, float]]]:
    """Run each config dict of ``configs`` with ``changes`` (a short
    prefix) and each candidate gamma0 set, all in one ``run_grouped``
    call, and return per config the gamma0 minimizing the final gradient
    norm (ties toward the smaller rate) and the score of each candidate.
    Diverged candidates score infinity."""
    candidates = [parse_config(with_changes(config, {**changes, "schedule.gamma0": g}))
                  for config in configs for g in grid]
    scores = iter([final_grad_norm(r) for r in run_grouped(candidates, jobs)])
    tuned = []
    for _ in configs:
        table = {g: next(scores) for g in grid}
        tuned.append((min(sorted(grid), key=lambda g: table[g]), table))
    return tuned


def run_sweep(manifest: ExperimentManifest, out_dir, jobs: int = 1) -> SummaryTable:
    """Tune gamma0 (optionally, on the first seed and a short prefix) and
    run every cell of ``manifest.cells()`` across all seeds; write
    per-run CSVs and a summary JSON. Each phase is one ``run_grouped``
    call: every cell's tuning candidates, then every cell's seeds."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = manifest.cells()
    seeds = manifest.seeds
    # config_to_dict writes a theoretical schedule's horizon, which the
    # tuning prefix's K then leaves at the cell's.
    cell_dicts = [config_to_dict(cell) for cell, _ in cells]
    prefix = {"seed": seeds[0], "K": manifest.tuning_prefix, "log_every": manifest.tuning_prefix}
    if manifest.tune:
        gamma0s = [best for best, _ in tune_gamma0(cell_dicts, prefix, manifest.tuning_grid, jobs)]
    else:
        gamma0s = [cell.schedule.gamma0 for cell, _ in cells]
    run_configs = [
        parse_config(with_changes(d, {"schedule.gamma0": gamma0, "seed": seed}))
        for d, gamma0 in zip(cell_dicts, gamma0s)
        for seed in seeds
    ]
    results = run_grouped(run_configs, jobs)

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
        for seed in seeds:
            result = next(per_cell)
            value = final_grad_norm(result)
            summary.final_grad_norms.append(None if math.isinf(value) else value)
            summary.seeds.append(seed)
            cell_dir = out_dir / "-".join(summary.name)
            write_trajectory_csv(result.records, cell_dir / f"seed_{seed}.csv")

    with open(out_dir / "summary.json", "w") as fh:
        json.dump(table.as_dict(), fh, indent=2, sort_keys=True)
    return table
