"""Test-only reference: the engine's loop for one run at a time.

``reference_run`` steps a single config with (n, d) worker arrays and a
``break`` on divergence, as ``engine.run`` did before the engine gained
its leading run axis. It shares the engine's stream, shift and label
helpers, so a test comparing the two checks the lockstep arithmetic and
the per-row bookkeeping: every row of ``engine.run_batch`` must equal
this loop's result for that config alone, bit for bit.
"""

import math

import numpy as np

from byzsim.aggregators import aggregate
from byzsim.attacks import byzantine_update
from byzsim.engine import (
    RunConfig,
    RunResult,
    TrajectoryRecord,
    _labeled_rows,
    _noise_steps,
    _validate,
    _worker_shifts,
    schedule_values,
)
from byzsim.objectives import gradient, gradient_with_labels, value


def _normalize(v: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v / n if n > eps else np.zeros_like(v)


def reference_run(config: RunConfig, capture_states: bool = False) -> RunResult:
    _validate(config)
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
        honest_shifts=shifts[:G],
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
            direction = _normalize(v)
            stepped = bool(direction.any())
            x_new = x - gamma * direction if stepped else x
            step_size = gamma if stepped else 0.0
        else:
            x_new = x - gamma * v
            step_size = gamma * float(np.linalg.norm(v))

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
            gn = float(np.linalg.norm(gradient(spec, x)))
            if not (math.isfinite(f_val) and math.isfinite(gn)):
                result.diverged = True
                result.divergence_step = k
                break
            agg_err = float(np.linalg.norm(v - base_grad))
            result.records.append(TrajectoryRecord(k, gn, f_val, agg_err, step_size))

    return result
