"""Test-only references: the engine's loop for one run at a time, the
one-worker oracle, and the row-major softmax arithmetic.

``reference_run`` steps a single config with (n, d) worker arrays and a
``break`` on divergence, as ``engine.run`` did before the engine gained
its leading run axis. It shares the engine's stream, shift and label
helpers, so a test comparing the two checks the lockstep arithmetic and
the per-row bookkeeping: every row of ``engine.run_batch`` must equal
this loop's result for that config alone, bit for bit. It takes each
labeled worker's shard gradient in a pass of its own, one table per
``gradient_with_labels`` call, and the exact gradient by ``gradient``,
twice per logged step, where the engine takes them all from one pass.

``stochastic_gradient`` is one worker's oracle draw, which the engine
draws for all workers at once. ``reference_gradient_with_labels`` and
``reference_softmax_value`` are the softmax gradients and value with the
program's two products (the logits ``W @ features.T`` and each table's
``Q @ features[rows]``) and plain loops for the rest: each row's max and
sum taken class by class (``running_class_sum``), and one subtracted at
each label in turn. Every output of the class-major pass must equal
theirs bit for bit, whichever tables share it.

``reference_sq_dists``, ``reference_nnm_transform`` and ``reference_krum``
are the aggregators' distance kernel, NNM and Krum as they were before the
kernel computed each pair once: all n x n differences, and the neighbour
mean as a ``mean`` over the gathered (..., n, G, d) array
(``reference_nnm_neighbours``). The current kernels must return their
bits, except NNM at d = 1: there that ``mean`` runs over a contiguous
axis, which numpy sums pairwise, where NNM adds the neighbours in order.
"""

import math

import numpy as np

from byzsim.aggregators import aggregate
from byzsim.attacks import byzantine_update
from byzsim.engine import (
    RunConfig,
    RunResult,
    TrajectoryRecord,
    _label_tables,
    _noise_steps,
    _worker_shifts,
    schedule_values,
    validate,
)
from byzsim.core import NORM_EPS, ConfigError, RngStream, gaussian_vector, norms
from byzsim.objectives import (
    ObjectiveSpec,
    gradient,
    gradient_with_labels,
    index_tables,
    softmax_dataset,
    value,
)


def normalize(v: np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    """Rescale v to unit norm; below the eps threshold return the zero
    vector (the server then takes a zero step). A (R, d) array is
    rescaled row by row, each row as it would be alone."""
    if eps <= 0:
        raise ConfigError(f"normalize eps must be > 0, got {eps}")
    v = np.asarray(v, dtype=float)
    n = norms(v)[..., None]
    return np.divide(v, n, out=np.zeros_like(v), where=n > eps)


def stochastic_gradient(
    spec: ObjectiveSpec,
    x: np.ndarray,
    shift: np.ndarray,
    rng: RngStream,
    noise_variance: float,
) -> np.ndarray:
    """Honest oracle draw: exact gradient plus Gaussian noise plus the
    worker's fixed shift."""
    return gradient(spec, x) + gaussian_vector(rng, spec.dim, noise_variance) + shift


def local_gradient(spec: ObjectiveSpec, x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    return gradient(spec, x) + shift


def running_class_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of each row of an (N, C) array, its C entries added one
    after another in class order."""
    total = rows[:, 0].copy()
    for c in range(1, rows.shape[1]):
        total += rows[:, c]
    return total


def reference_logits(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """The (N, C) logits of every data row, each row less its maximum
    (taken class by class). The product is the program's own,
    ``W @ features.T``, read back as rows."""
    feats = softmax_dataset(spec)[0]
    logits = (x.reshape(spec.n_classes, spec.feature_dim) @ feats.T).T.copy()
    top = logits[:, 0].copy()
    for c in range(1, spec.n_classes):
        np.maximum(top, logits[:, c], out=top)
    logits -= top[:, None]
    return logits


def reference_softmax_value(spec: ObjectiveSpec, x: np.ndarray) -> float:
    """Mean cross-entropy at the flattened weight matrix x."""
    labels = softmax_dataset(spec)[1]
    logits = reference_logits(spec, x)
    logz = np.log(running_class_sum(np.exp(logits)))
    return float(np.mean(logz - logits[np.arange(len(labels)), labels]))


def reference_gradient_with_labels(spec: ObjectiveSpec, x: np.ndarray, tables) -> np.ndarray:
    """The (T, dim) mean cross-entropy gradients of the ``(rows, labels)``
    tables at the point x. The probabilities are (N, C) rows; each table
    takes its rows, subtracts one at each row's label in a loop, and
    multiplies by the same feature rows as the program, from a contiguous
    (C, m) copy, which is the program's second product."""
    if spec.kind != "softmax":
        raise ConfigError("gradient_with_labels only applies to softmax objectives")
    feats = softmax_dataset(spec)[0]
    probs = np.exp(reference_logits(spec, x))
    probs /= running_class_sum(probs)[:, None]
    out = []
    for rows, labels in tables:
        table = probs[rows].copy()
        for j, label in enumerate(labels):
            table[j, label] -= 1.0
        q = np.ascontiguousarray(table.T)
        out.append((q @ feats[rows]).ravel() / len(labels))
    return np.array(out)


def _reference_take_rows(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of an (n, d) matrix, or rows ``idx[t, ...]`` of each
    matrix t of a (T, n, d) block, as one gather from the stacked rows."""
    if mat.ndim == 3:
        idx = idx + mat.shape[1] * np.arange(len(mat)).reshape(-1, *[1] * (idx.ndim - 1))
    return mat.reshape(-1, mat.shape[-1]).take(idx, axis=0)


def reference_sq_dists(mat: np.ndarray) -> np.ndarray:
    """(..., n, n) squared Euclidean distances from direct differences,
    which keep their precision when the rows share a large common offset
    (the expansion |a|^2 + |b|^2 - 2a.b cancels there)."""
    diff = mat[..., :, None, :] - mat[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", diff, diff)


def reference_nnm_neighbours(vectors, B: int) -> np.ndarray:
    """The (..., n, G, d) array of each vector's n - B nearest vectors, in
    sorted order (Euclidean distance, pivot included, ties to the smaller
    index)."""
    mat = np.asarray(vectors, dtype=float)
    n = mat.shape[-2]
    if not 0 <= B < n / 2:
        raise ConfigError(f"need 0 <= B < n/2, got B={B}, n={n}")
    order = np.argsort(reference_sq_dists(mat), axis=-1, kind="stable")[..., :n - B]
    return _reference_take_rows(mat, order)


def reference_nnm_transform(vectors, B: int) -> np.ndarray:
    """Replace each vector by the mean of its n - B nearest vectors."""
    return reference_nnm_neighbours(vectors, B).mean(axis=-2)


def reference_krum(vectors, B: int) -> np.ndarray:
    """Return the input vector whose summed squared distance to its
    n - B - 2 nearest other vectors is smallest (ties to the smaller
    index)."""
    mat = np.asarray(vectors, dtype=float)
    n = mat.shape[-2]
    m = n - B - 2
    if m < 1:
        raise ConfigError(f"krum needs n - B - 2 >= 1, got n={n}, B={B}")
    d2 = reference_sq_dists(mat)
    diagonal = np.arange(n)
    d2[..., diagonal, diagonal] = np.inf
    scores = np.sort(d2, axis=-1)[..., :m].sum(axis=-1)
    return _reference_take_rows(mat, np.argmin(scores, axis=-1))


def reference_run(config: RunConfig, capture_states: bool = False) -> RunResult:
    validate(config)
    spec = config.objective
    G = config.n - config.B
    shifts = _worker_shifts(config)
    lo, tables = _label_tables(config)
    tables = index_tables(spec, tables) if tables else []
    noise_steps = _noise_steps(config, config.K + 1)
    x = np.array(config.x0, dtype=float)

    def oracle(x: np.ndarray, base_grad: np.ndarray) -> np.ndarray:
        noise = next(noise_steps)
        grads = base_grad + noise
        for i, table in enumerate(tables, lo):
            grads[i] = gradient_with_labels(spec, x, [table])[0] + noise[i]
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
        TrajectoryRecord(0, float(norms(base_grad)), value(spec, x), 0.0, 0.0)
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

        v = aggregate(config.aggregator, sent, config.B)
        if config.optimizer == "byz_nsgdm":
            direction = normalize(v)
            stepped = bool(direction.any())
            x_new = x - gamma * direction if stepped else x
            step_size = gamma if stepped else 0.0
        else:
            x_new = x - gamma * v
            step_size = gamma * float(norms(v))

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
            gn = float(norms(gradient(spec, x)))
            if not (math.isfinite(f_val) and math.isfinite(gn)):
                result.diverged = True
                result.divergence_step = k
                break
            agg_err = float(norms(v - base_grad))
            result.records.append(TrajectoryRecord(k, gn, f_val, agg_err, step_size))

    return result
