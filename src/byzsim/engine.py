"""Distributed optimization loop with Byzantine workers.

One iteration: every worker draws a stochastic gradient at the current
point and advances its momentum recursion; the adversary then sees all
honest traffic and chooses what the Byzantine workers transmit; the
server aggregates the n transmitted vectors and steps. The normalized
optimizer rescales the aggregate to unit norm so the step length is
exactly the scheduled gamma (or zero when the aggregate vanishes);
the two baselines step with the raw aggregate and may diverge on
rapidly-growing objectives, which the run reports rather than raises.

Worker state is held as (n, d) arrays, one row per worker, the G honest
rows first: fixed shifts, momenta, and this step's stochastic gradients.
A worker's oracle draw is ``(gradient + noise) + shift``, row-wise over
the whole array. Worker i's noise comes from its own stream
``RngStream(seed, i)``, drawn in chunks of at most ``NOISE_CHUNK`` steps;
a Philox draw of c*d normals equals c successive draws of d normals bit
for bit, so the chunking leaves every trajectory unchanged. Only rows
with a label table (label-flipped Byzantine workers, or all rows of an
``oracle.labels`` table) replace the full-data gradient with their own
shard gradient.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .aggregators import AggregatorSpec, aggregate, base_kappa
from .attacks import AttackSpec, byzantine_update, shift_labels
from .core import (
    SHIFT_STREAM,
    ConfigError,
    RngStream,
    gaussian_vector,
    normalize,
)
from .objectives import (
    ObjectiveSpec,
    OracleConfig,
    default_smoothness,
    gradient,
    gradient_with_labels,
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
    "run",
    "schedule_values",
    "gamma0_cap",
    "momentum_step",
]

logger = logging.getLogger("byzsim")

OPTIMIZERS = ("byz_nsgdm", "baseline", "baseline_decay")
SCHEDULE_KINDS = ("theoretical", "practical_decay", "constant")
# Most steps of oracle noise drawn per worker at once: 64 x n x d floats,
# about 2 MB at n=20, d=200.
NOISE_CHUNK = 64


@dataclass(frozen=True)
class Schedule:
    """Step-size / momentum schedule.

    theoretical: gamma = gamma0/(K+1)^(3/4) and eta = (K+1)^(-1/2), both
    constant over k, with K taken from ``horizon``. practical_decay:
    gamma_k = gamma0/sqrt(k) for k >= 1 (gamma0 at k=0) with fixed
    eta = 1 - momentum_beta. constant: fixed gamma0 and eta.
    """

    kind: str
    gamma0: float
    momentum_beta: float = 0.9
    horizon: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind: {self.kind!r}")
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
    optimizer: str
    K: int
    seed: int
    x0: np.ndarray
    log_every: int = 1
    init_momentum: str = "stochastic_gradient"


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
    """Trajectory log plus divergence status; ``states``/``aggregates``
    hold the full per-iteration iterates and aggregated vectors when the
    run was asked to capture them (needed by the descent checker)."""

    records: list[TrajectoryRecord]
    final_x: np.ndarray
    diverged: bool = False
    divergence_step: int | None = None
    honest_shifts: list[np.ndarray] = field(default_factory=list)
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


def momentum_step(v_prev: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
    """(1 - eta) * v_prev + eta * g."""
    if not 0 < eta <= 1:
        raise ConfigError(f"eta must lie in (0, 1], got {eta}")
    return (1.0 - eta) * v_prev + eta * g


def _validate(config: RunConfig) -> None:
    if config.optimizer not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer: {config.optimizer!r}")
    if not 0 <= config.B < config.n / 2:
        raise ConfigError(f"need 0 <= B < n/2, got B={config.B}, n={config.n}")
    if config.aggregator.n != config.n or config.aggregator.B != config.B:
        raise ConfigError("aggregator (n, B) must match the run's (n, B)")
    if config.x0.shape != (config.objective.dim,):
        raise ConfigError(
            f"x0 has shape {config.x0.shape}, expected ({config.objective.dim},)"
        )
    if config.K < 1:
        raise ConfigError("K must be >= 1")
    if config.log_every < 1:
        raise ConfigError("log_every must be >= 1")
    if config.init_momentum not in ("stochastic_gradient", "zero"):
        raise ConfigError(f"unknown init_momentum: {config.init_momentum!r}")
    if config.attack.kind == "label_flip" and not config.objective.is_classification:
        raise ConfigError("label_flip requires a classification objective")
    if config.objective.is_classification and config.objective.n_workers < config.n:
        raise ConfigError("softmax objective must be sized for at least n workers")
    if config.oracle.labels is not None and len(config.oracle.labels) != config.n:
        raise ConfigError(f"oracle.labels needs one row per worker, {config.n} rows")


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


def _labeled_rows(config: RunConfig) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(worker, labels, shard features) for each worker whose oracle uses
    its own labels: every row of an ``oracle.labels`` table, and the
    label-flipped Byzantine workers."""
    spec = config.objective
    if not spec.is_classification:
        return []
    G = config.n - config.B
    feats, dataset_labels = softmax_dataset(spec)
    rows = []
    for i in range(config.n):
        shard = worker_shard(spec, i)
        labels = None
        if config.oracle.labels is not None:
            labels = np.asarray(config.oracle.labels[i])
        if i >= G and config.attack.kind == "label_flip":
            base = labels if labels is not None else dataset_labels[shard]
            labels = shift_labels(base, config.attack.label_shift, spec.n_classes)
        if labels is not None:
            rows.append((i, labels, feats[shard]))
    return rows


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


def run(config: RunConfig, capture_states: bool = False) -> RunResult:
    """Execute K iterations and return the trajectory log.

    A non-finite iterate or objective value aborts the run: the result is
    flagged diverged and keeps every record up to the last finite point
    (expected for the unnormalized baselines on fast-growing objectives).
    """
    _validate(config)
    _warn_gamma0(config)
    spec = config.objective
    G = config.n - config.B
    shifts = _worker_shifts(config)
    labeled = _labeled_rows(config)
    noise_steps = _noise_steps(config, config.K + 1)
    x = np.array(config.x0, dtype=float)

    def oracle(x: np.ndarray, base_grad: np.ndarray) -> np.ndarray:
        noise = next(noise_steps)
        grads = base_grad + noise
        for i, labels, feats in labeled:
            grads[i] = gradient_with_labels(spec, x, labels, feats=feats) + noise[i]
        grads += shifts
        return grads

    base_grad = gradient(spec, x)
    grads = oracle(x, base_grad)
    if config.init_momentum == "stochastic_gradient":
        momenta = grads.copy()
    else:
        momenta = np.zeros_like(grads)

    result = RunResult(
        records=[],
        final_x=x,
        honest_shifts=list(shifts[:G]),
        states=[x.copy()] if capture_states else None,
        aggregates=[] if capture_states else None,
    )
    result.records.append(
        TrajectoryRecord(0, float(np.linalg.norm(base_grad)), value(spec, x), 0.0, 0.0)
    )

    for k in range(1, config.K + 1):
        gamma, eta = schedule_values(config.schedule, k - 1)
        base_grad = gradient(spec, x)
        grads = oracle(x, base_grad)
        momenta *= 1.0 - eta
        momenta += eta * grads

        sent = momenta
        if config.B > 0:
            byz = byzantine_update(config.attack, k - 1, momenta, grads, G)
            sent = np.concatenate((momenta[:G], byz))

        v = aggregate(config.aggregator, sent)
        if config.optimizer == "byz_nsgdm":
            direction = normalize(v)
            stepped = bool(direction.any())
            x_new = x - gamma * direction if stepped else x
            step_size = gamma if stepped else 0.0
        else:
            x_new = x - gamma * v
            step_size = gamma * float(np.linalg.norm(v))

        # Abort before x**4-scale quantities can overflow downstream.
        if not np.all(np.isfinite(x_new)) or np.abs(x_new).max() > 1e25:
            result.diverged = True
            result.divergence_step = k
            break

        x = x_new
        result.final_x = x
        if capture_states:
            result.states.append(x.copy())
            result.aggregates.append(v)

        if k % config.log_every == 0 or k == config.K:
            f_val = value(spec, x)
            grad_now = gradient(spec, x)
            gn = float(np.linalg.norm(grad_now))
            if not (math.isfinite(f_val) and math.isfinite(gn)):
                result.diverged = True
                result.divergence_step = k
                break
            agg_err = float(np.linalg.norm(v - base_grad))
            result.records.append(TrajectoryRecord(k, gn, f_val, agg_err, step_size))

    return result
