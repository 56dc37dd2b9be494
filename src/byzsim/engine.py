"""Distributed optimization loop with Byzantine workers.

One iteration: every worker draws a stochastic gradient at the current
point and advances its momentum recursion; the adversary then sees all
honest traffic and chooses what the Byzantine workers transmit; the
server aggregates the n transmitted vectors and steps. The normalized
optimizer rescales the aggregate to unit norm so the step length is
exactly the scheduled gamma (or zero when the aggregate vanishes);
the two baselines step with the raw aggregate and may diverge on
rapidly-growing objectives, which the run reports rather than raises.

``run_batch`` runs any list of configs. It groups those that agree
outside seed, schedule and optimizer (``ROW_FIELDS``), first-fit in
input order, and steps each group's R runs in lockstep along a leading
run axis; ``run`` is ``run_batch`` with one config. The rows of a group
share the objective, the attack and the rule, and every stage takes all
rows in one call:
the iterates are one (R, d) array, the worker state (R, n, d) arrays,
one row per worker with the G honest rows first: fixed shifts, momenta,
and this step's stochastic gradients. Each row's K step sizes are
tabulated up front beside its momentum weight, which is fixed over k,
and a per-row mask picks the normalized or the raw step. A row that
diverges leaves the batch, as a converged row leaves the batched
Weiszfeld iteration: every per-row array is dropped in one place
(``_Rows.keep``), and the others run on. Each row's arithmetic is the
arithmetic of its run alone, so every row's trajectory is bit for bit
the one ``run`` gives it. The exact gradient is taken once per iterate,
right after the step (``next_grad``, dropped with its row): the log line
reads its norm and the next step's oracle adds noise to it. On a log
step the same call gives the log line's f: a softmax pass returns it
beside its gradients, the other objectives take it from ``value``.

A worker's oracle draw is ``(gradient + noise) + shift``, row-wise over
the whole array. Worker i's noise comes from its own stream
``RngStream(seed, i)``, drawn in chunks of at most ``NOISE_CHUNK`` steps;
a Philox draw of c*d normals equals c successive draws of d normals bit
for bit, so the chunking leaves every trajectory unchanged. Noise and
shifts are drawn once per distinct seed of a batch and gathered to its
rows: the candidates of a tuning grid share a seed, and so their
streams. Only workers with a label table (label-flipped Byzantine
workers, or all workers of an ``oracle.labels`` table) replace the
full-data gradient with their own shard gradient; they are always a
suffix of the worker axis. Every softmax run takes each row's exact
gradient, those shard gradients and, on a log step, f from one softmax
pass at its iterate (``objectives.gradient_with_labels`` with the shard
tables and the full-data table, checked and indexed once per lockstep
batch), and the oracle writes the shard gradients to the suffix's
columns in one slice assignment.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import Literal

import numpy as np

from .aggregators import AggregatorSpec, aggregate, base_kappa, check_budget
from .attacks import AttackSpec, byzantine_update, shift_labels
from .core import (
    SHIFT_STREAM,
    ConfigError,
    NORM_EPS,
    RngStream,
    check_choices,
    check_seed,
    gaussian_vector,
    norms,
)
from .objectives import (
    ObjectiveSpec,
    OracleConfig,
    default_smoothness,
    gradient,
    gradient_with_labels,
    index_tables,
    make_shifts,
    softmax_dataset,
    value,
    worker_shard,
)

__all__ = [
    "Schedule",
    "RunConfig",
    "TrajectoryRecord",
    "RunResult",
    "validate",
    "run",
    "run_batch",
    "schedule_values",
    "gamma0_cap",
]

logger = logging.getLogger("byzsim")

# Most steps of oracle noise drawn per worker at once: 64 x n x d floats
# for each distinct seed of a batch, about 2 MB at n=20, d=200.
NOISE_CHUNK = 64
# The RunConfig fields in which the rows of one lockstep batch may differ.
ROW_FIELDS = ("seed", "schedule", "optimizer")


@dataclass(frozen=True)
class Schedule:
    """Step-size / momentum schedule.

    theoretical: gamma = gamma0/(K+1)^(3/4) and eta = (K+1)^(-1/2), both
    constant over k, with K taken from ``horizon``. practical_decay:
    gamma_k = gamma0/sqrt(k) for k >= 1 (gamma0 at k=0) with fixed
    eta = 1 - momentum_beta. constant: fixed gamma0 and eta.
    """

    kind: Literal["theoretical", "practical_decay", "constant"]
    gamma0: float
    momentum_beta: float = 0.9
    horizon: int | None = None

    def __post_init__(self):
        check_choices(self)
        if self.gamma0 <= 0:
            raise ConfigError("gamma0 must be > 0")
        if not 0 <= self.momentum_beta < 1:
            raise ConfigError("momentum_beta must lie in [0, 1)")
        if self.kind == "theoretical" and (self.horizon is None or self.horizon < 1):
            raise ConfigError("theoretical schedule needs a horizon K >= 1")


@dataclass
class RunConfig:
    objective: ObjectiveSpec
    oracle: OracleConfig
    n: int
    B: int
    attack: AttackSpec
    aggregator: AggregatorSpec
    schedule: Schedule
    optimizer: Literal["byz_nsgdm", "baseline", "baseline_decay"]
    K: int
    seed: int
    x0: np.ndarray
    log_every: int = 1
    init_momentum: Literal["stochastic_gradient", "zero"] = "stochastic_gradient"


@dataclass
class TrajectoryRecord:
    """One logged row: iteration, exact gradient norm and value at x^k,
    the aggregation error ||v^k - grad f(x^{k-1})||, and the step length
    taken (for the normalized optimizer this is the scheduled gamma, or 0
    on a vanishing aggregate)."""

    k: int
    grad_norm: float
    f_value: float
    agg_error: float
    step_size: float


@dataclass
class RunResult:
    """Trajectory log, divergence status and the (G, d) honest oracle shifts;
    ``states``/``aggregates`` hold the per-iteration iterates and aggregated
    vectors when the run was asked to capture them (for the descent checker)."""

    records: list[TrajectoryRecord]
    final_x: np.ndarray
    honest_shifts: np.ndarray
    diverged: bool = False
    divergence_step: int | None = None
    states: list[np.ndarray] | None = None
    aggregates: list[np.ndarray] | None = None


def schedule_values(s: Schedule, k: int) -> tuple[float, float]:
    """(gamma_k, eta_k) for iteration index k >= 0."""
    if k < 0:
        raise ConfigError(f"schedule index must be >= 0, got {k}")
    if s.kind == "theoretical":
        kp1 = s.horizon + 1
        return s.gamma0 / kp1**0.75, kp1**-0.5
    eta = 1.0 - s.momentum_beta
    if s.kind == "practical_decay":
        gamma = s.gamma0 if k == 0 else s.gamma0 / math.sqrt(k)
        return gamma, eta
    return s.gamma0, eta


def gamma0_cap(L1: float, kappa: float, K: int) -> float:
    """Largest base step size the convergence guarantee admits: the
    minimum of 1/(2 L1), (K+1)^(1/4)/(sqrt(32) L1), and
    1/(sqrt(128 (1+2 kappa)) L1)."""
    if L1 <= 0:
        raise ConfigError("L1 must be > 0")
    return min(
        1.0 / (2.0 * L1),
        (K + 1) ** 0.25 / (math.sqrt(32.0) * L1),
        1.0 / (math.sqrt(128.0 * (1.0 + 2.0 * kappa)) * L1),
    )


def validate(config: RunConfig) -> None:
    """Raise ConfigError unless ``config`` can run."""
    check_choices(config)
    # The run's n and B are the only ones: the rule is applied with them.
    check_budget(config.aggregator.rule, config.n, config.B)
    if config.x0.shape != (config.objective.dim,):
        raise ConfigError(
            f"x0 has shape {config.x0.shape}, expected ({config.objective.dim},)"
        )
    check_seed(config.seed)
    if config.K < 1:
        raise ConfigError("K must be >= 1")
    if config.log_every < 1:
        raise ConfigError("log_every must be >= 1")
    if config.attack.kind == "label_flip":
        if not config.objective.is_classification:
            raise ConfigError("label_flip requires a classification objective")
        C = config.objective.n_classes
        if config.attack.label_shift % C == 0:
            raise ConfigError(f"'label_shift' in attack: {config.attack.label_shift} is a "
                              f"multiple of n_classes = {C}, so label_flip flips no label")
    if config.objective.is_classification and config.objective.n_workers < config.n:
        raise ConfigError(f"'n_workers' in objective: softmax objective must be sized for at "
                          f"least n workers, got {config.objective.n_workers} < n = {config.n}")
    table = config.oracle.labels
    if table is None:
        return
    if not config.objective.is_classification:
        raise ConfigError(f"'labels' in oracle: a label table needs a classification "
                          f"objective, got {config.objective.kind!r}")
    # One row per worker, each one label in [0, n_classes) per shard sample.
    if len(table) != config.n:
        raise ConfigError(f"oracle.labels needs one row per worker, {config.n} rows")
    m, C = config.objective.samples_per_worker, config.objective.n_classes
    for i, row in enumerate(table):
        if len(row) != m:
            raise ConfigError(f"'labels' in oracle: row {i} has {len(row)} labels, "
                              f"expected samples_per_worker = {m}")
        bad = [v for v in row if not 0 <= v < C]
        if bad:
            raise ConfigError(f"'labels' in oracle: row {i} has label {bad[0]}, "
                              f"expected 0 <= label < n_classes = {C}")


def _worker_shifts(config: RunConfig) -> np.ndarray:
    """(n, d) heterogeneity shifts: centered draws for the G honest rows,
    zero rows for the Byzantine workers, whose oracles are vanilla
    (gradient + noise)."""
    d = config.objective.dim
    G = config.n - config.B
    shifts = np.zeros((config.n, d))
    shifts[:G] = make_shifts(
        RngStream(config.seed, SHIFT_STREAM), G, d, config.oracle.shift_variance
    )
    return shifts


def _label_tables(config: RunConfig) -> tuple[int, list[tuple[slice, np.ndarray]]]:
    """The first worker whose oracle uses its own labels, and the (rows,
    labels) table of each worker from there on. Those workers are a suffix
    of the worker axis: all n with an ``oracle.labels`` table, else the
    label-flipped Byzantine workers, the last B. n when no worker has one."""
    spec = config.objective
    if not spec.is_classification:
        return config.n, []
    G = config.n - config.B
    given, flip = config.oracle.labels, config.attack.kind == "label_flip"
    lo = 0 if given is not None else G if flip else config.n
    tables = []
    for i in range(lo, config.n):
        shard = worker_shard(spec, i)
        labels = np.asarray(given[i]) if given is not None else softmax_dataset(spec)[1][shard]
        if i >= G and flip:
            labels = shift_labels(labels, config.attack.label_shift, spec.n_classes)
        tables.append((shard, labels))
    return lo, tables


def _noise_steps(config: RunConfig, steps: int) -> Iterator[np.ndarray]:
    """Yield the (n, d) oracle noise of each of ``steps`` steps. Worker i
    draws from ``RngStream(seed, i)`` in chunks of at most NOISE_CHUNK
    steps, never past the steps that are left."""
    d = config.objective.dim
    rngs = [RngStream(config.seed, i) for i in range(config.n)]
    while steps > 0:
        c = min(NOISE_CHUNK, steps)
        steps -= c
        yield from np.stack(
            [gaussian_vector(rng, c * d, config.oracle.noise_variance).reshape(c, d)
             for rng in rngs],
            axis=1,
        )


def _warn_gamma0(config: RunConfig) -> None:
    if config.schedule.kind != "theoretical":
        return
    kappa = base_kappa(config.aggregator.rule, config.n, config.B, config.objective.dim)
    if kappa is None:
        return
    meta = default_smoothness(config.objective)
    cap = gamma0_cap(meta.L1, kappa, config.K)
    if config.schedule.gamma0 > cap:
        logger.warning(
            "gamma0=%.6g exceeds the guarantee cap %.6g (L1=%g, kappa=%g, K=%d)",
            config.schedule.gamma0, cap, meta.L1, kappa, config.K,
        )


def _lockstep(a: RunConfig, b: RunConfig) -> bool:
    """Whether two configs agree outside ``ROW_FIELDS``, and so can run
    in one lockstep batch."""
    for f in fields(RunConfig):
        if f.name in ROW_FIELDS:
            continue
        u, v = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v):
            return False
    return True


class _Rows:
    """The per-row arrays of the runs still in a lockstep batch, row j of
    each array belonging to one run; ``keep`` drops rows from all at once."""

    def __init__(self, **arrays: np.ndarray):
        self.__dict__.update(arrays)

    def keep(self, mask: np.ndarray) -> None:
        self.__dict__.update({name: a[mask] for name, a in vars(self).items()})


def _diverge(results: list[RunResult], rows: _Rows, out: np.ndarray, k: int,
             finals: np.ndarray) -> None:
    """Flag the rows ``out`` diverged at step k, ending at their ``finals``,
    and drop them from ``rows``."""
    for r, final in zip(rows.run[out], finals[out]):
        results[r].diverged, results[r].divergence_step, results[r].final_x = True, k, final
    rows.keep(~out)


def run_batch(configs: list[RunConfig], capture_states: bool = False) -> list[RunResult]:
    """Execute K iterations of every config and return one result per
    config, in input order, each bit for bit the result of its run alone.

    Configs that agree outside ``ROW_FIELDS`` step as one lockstep batch;
    the batches are formed first-fit in input order. A non-finite iterate
    or objective value stops that row: its result is flagged diverged and
    keeps every record up to the last finite point (expected for the
    unnormalized baselines on fast-growing objectives), and the other rows
    go on.
    """
    configs = list(configs)
    for config in configs:
        validate(config)
        _warn_gamma0(config)
    groups: list[list[int]] = []
    for i, config in enumerate(configs):
        for group in groups:
            if _lockstep(configs[group[0]], config):
                group.append(i)
                break
        else:
            groups.append([i])
    results: list[RunResult] = [None] * len(configs)
    for group in groups:
        for i, result in zip(group, _run_lockstep([configs[i] for i in group], capture_states)):
            results[i] = result
    return results


def _run_lockstep(configs: list[RunConfig], capture_states: bool) -> list[RunResult]:
    """``run_batch`` of configs that agree outside ``ROW_FIELDS``: one
    lockstep batch, one row per config."""
    head = configs[0]
    spec, G = head.objective, head.n - head.B
    by_seed: dict[int, RunConfig] = {}
    for config in configs:
        by_seed.setdefault(config.seed, config)
    seed_shifts = [_worker_shifts(config) for config in by_seed.values()]
    noise_streams = [_noise_steps(config, head.K + 1) for config in by_seed.values()]
    lo, tables = _label_tables(head)
    if spec.is_classification:
        # Checked and indexed once for the group. The full-data table goes
        # last, where it may take the pass's own probabilities.
        tables = index_tables(spec, [*tables, (slice(None), softmax_dataset(spec)[1])])

    row_seed = np.array([list(by_seed).index(config.seed) for config in configs])
    rows = _Rows(
        run=np.arange(len(configs)),  # the row's index in configs
        seed=row_seed,  # its seed's index in by_seed
        normalized=np.array([config.optimizer == "byz_nsgdm" for config in configs]),
        # Each row's K step sizes and its momentum weight, which no
        # schedule varies over k.
        gamma=np.array([[schedule_values(config.schedule, k)[0] for k in range(head.K)]
                        for config in configs]),
        eta=np.array([schedule_values(config.schedule, 0)[1] for config in configs])[:, None, None],
        shifts=np.stack(seed_shifts)[row_seed],
        x=np.array([config.x0 for config in configs], dtype=float),
    )

    def exact_gradients(log: bool) -> None:
        """The exact gradient at each row's iterate (``next_grad``), each
        labeled worker's shard gradient there (``shard_grads``) and, on a
        log step, f there (``f_val``): one softmax pass per row gives them
        all."""
        if spec.is_classification:
            g = gradient_with_labels(spec, rows.x, tables, loss=log)
            if log:
                g, rows.f_val = g
            rows.next_grad, rows.shard_grads = g[:, -1], g[:, :-1]
        else:
            rows.next_grad = gradient(spec, rows.x)
            if log:
                rows.f_val = value(spec, rows.x)

    def oracle() -> np.ndarray:
        noise = [next(stream) for stream in noise_streams]
        # One seed's (n, d) noise broadcasts to every row.
        noise = noise[0] if len(noise) == 1 else np.stack(noise)[rows.seed]
        grads = rows.base_grad[:, None, :] + noise
        if lo < head.n:
            grads[:, lo:] = rows.shard_grads + noise[..., lo:, :]
        grads += rows.shifts
        return grads

    exact_gradients(log=True)
    rows.base_grad = rows.next_grad
    grads = oracle()
    if head.init_momentum == "stochastic_gradient":
        rows.momenta = grads.copy()
    else:
        rows.momenta = np.zeros_like(grads)

    results = [
        RunResult(
            records=[TrajectoryRecord(0, gn, f, 0.0, 0.0)],
            final_x=x_r,
            honest_shifts=seed_shifts[s][:G],
            states=[x_r.copy()] if capture_states else None,
            aggregates=[] if capture_states else None,
        )
        for x_r, s, gn, f in zip(rows.x, row_seed, norms(rows.base_grad).tolist(),
                                 rows.f_val.tolist())
    ]

    for k in range(1, head.K + 1):
        rows.base_grad = rows.next_grad
        grads = oracle()
        rows.momenta *= 1.0 - rows.eta
        rows.momenta += rows.eta * grads

        sent = rows.momenta
        if head.B > 0:
            byz = byzantine_update(head.attack, k - 1, rows.momenta, grads, G)
            sent = np.concatenate((rows.momenta[:, :G], byz), axis=1)

        rows.v = v = aggregate(head.aggregator, sent, head.B)
        rows.v_norm = norms(v)
        # The normalized optimizer steps gamma along v/|v|, or not at all
        # on a vanishing aggregate; the baselines step gamma * v.
        unit = rows.normalized & (rows.v_norm > NORM_EPS)
        rows.stepped = unit | ~rows.normalized
        direction = np.divide(v, rows.v_norm[:, None], out=v.copy(), where=unit[:, None])
        rows.x_prev, rows.x = rows.x, np.where(
            rows.stepped[:, None], rows.x - rows.gamma[:, k - 1, None] * direction, rows.x)

        # Abort before x**4-scale quantities can overflow downstream. A NaN
        # or infinite coordinate fails the bound as well.
        out = ~(np.abs(rows.x).max(axis=-1) <= 1e25)
        if out.any():
            _diverge(results, rows, out, k, rows.x_prev)
            if not len(rows.run):
                break

        if capture_states:
            for r, x_r, v_r in zip(rows.run, rows.x, rows.v):
                results[r].states.append(x_r.copy())
                results[r].aggregates.append(v_r)

        # The one pass at x^k: the log's loss and gradient and the next
        # oracle's gradient.
        log = k % head.log_every == 0 or k == head.K
        exact_gradients(log)
        if log:
            rows.grad_norm = norms(rows.next_grad)
            out = ~(np.isfinite(rows.f_val) & np.isfinite(rows.grad_norm))
            if out.any():
                _diverge(results, rows, out, k, rows.x)
            gamma = rows.gamma[:, k - 1]
            step_size = np.where(rows.normalized, gamma * rows.stepped, gamma * rows.v_norm)
            agg_err = norms(rows.v - rows.base_grad)
            for r, *fields_ in zip(rows.run, rows.grad_norm.tolist(), rows.f_val.tolist(),
                                   agg_err.tolist(), step_size.tolist()):
                results[r].records.append(TrajectoryRecord(k, *fields_))
        if not len(rows.run):
            break

    for r, x_r in zip(rows.run, rows.x):
        results[r].final_x = x_r
    return results


def run(config: RunConfig, capture_states: bool = False) -> RunResult:
    """Execute K iterations of one config: ``run_batch`` with one row."""
    return run_batch([config], capture_states)[0]
