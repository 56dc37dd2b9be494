"""Objective functions with closed-form gradients and smoothness metadata.

Three objectives are provided:

* ``quartic``: f(x) = ||x||^4, the synthetic benchmark. Its gradient
  4x||x||^2 has a state-dependent Lipschitz constant, which is exactly
  what the generalized-smoothness machinery is built for.
* ``softmax``: mean cross-entropy of a linear classifier on a synthetic
  Gaussian-cluster dataset. Exists to give label flipping a semantic
  target; the dataset is built deterministically from a seed and split
  into class-sorted per-worker shards.
* ``exponential``: f(x) = exp(<a, x>), the classic example of a function
  that is smooth in the generalized sense but not L-smooth.

The heterogeneous stochastic oracle adds Gaussian noise plus a fixed
per-worker shift to the exact gradient; the honest shifts are one (G, d)
array, centered so that its rows sum to zero and the oracle stays
unbiased. The local objective of a worker with shift s is read as
f_i(x) = f(x) + <s, x>, which makes the shifted oracle an exact
stochastic gradient of f_i.

The softmax arithmetic runs class-major, on the one stored copy of the
features: a contiguous feature-major (F, N) array, which
``softmax_dataset`` hands out as its (N, F) transpose view. The logits
come straight out of ``W @ features.T`` as a contiguous (C, N) array, so
that the max, subtract, exp, sum and divide each run over N-long rows
instead of numpy's 10-long inner loops over each sample's C classes. The
sum over classes, ``z.sum(axis=-2)``, adds the C rows one after another:
a running sum in class order, at every C, as long as N > 1. A single
column is one contiguous C-long reduction, which numpy adds pairwise, so
``_running_class_sum`` takes the last entry of a running ``np.add.accumulate``
there instead. One pass at a point gives the shifted logits z, their
class sums s and the (C, N) probabilities P, and every softmax quantity
there comes from it. The loss f = mean(log(s) - z[label, i]) gathers
each row's logit at its label before exp overwrites z. A ``(rows,
labels)`` table's gradient takes P's columns ``rows``, less one at each
row's label, times the same rows of the features, ``Q (C, m) @
features[rows]``. Tables are checked and indexed once (``index_tables``);
the full-data table is indexed once per spec, cached with the dataset.
A label-flipped or ``oracle.labels`` shard is the table of its rows and
its own labels. Each table's Q is a contiguous (C, m) array, whichever
tables share the pass, so each gradient has the bits of its table alone.
``value`` on R points is one stacked (R, C, F) @ (F, N) product, whose
slices have the bits of R separate products; flattened to one (R C, F)
product it would round differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .core import ConfigError, RngStream, check_choices, dot, gaussian_vector, norms

__all__ = [
    "ObjectiveSpec",
    "SmoothnessMeta",
    "OracleConfig",
    "value",
    "gradient",
    "make_shifts",
    "default_smoothness",
    "softmax_dataset",
    "worker_shard",
    "index_tables",
    "gradient_with_labels",
]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which objective to optimize, plus kind-specific parameters.

    Frozen (hashable) so the synthetic softmax dataset can be cached per
    spec. ``direction`` is the exponential's vector a; the softmax fields
    size a dataset of n_workers * samples_per_worker points in
    feature_dim dimensions with n_classes Gaussian clusters, and require
    dim == n_classes * feature_dim (the flattened weight matrix).
    """

    kind: Literal["quartic", "softmax", "exponential"]
    dim: int
    direction: tuple[float, ...] | None = None
    n_classes: int = 0
    feature_dim: int = 0
    feature_seed: int = 0
    samples_per_worker: int = 0
    n_workers: int = 0

    def __post_init__(self):
        check_choices(self)
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.kind == "exponential":
            if self.direction is None or len(self.direction) != self.dim:
                raise ConfigError("'direction' in objective: exponential objective needs a "
                                  "direction of length dim")
        if self.kind == "softmax":
            if self.n_classes < 2:
                raise ConfigError("'n_classes' in objective: softmax needs n_classes >= 2")
            for key in ("feature_dim", "samples_per_worker", "n_workers"):
                if getattr(self, key) < 1:
                    raise ConfigError(f"{key!r} in objective: softmax needs {key} >= 1, "
                                      f"got {getattr(self, key)}")
            if self.dim != self.n_classes * self.feature_dim:
                raise ConfigError(f"'dim' in objective: softmax dim must equal n_classes*feature"
                                  f"_dim = {self.n_classes * self.feature_dim}, got {self.dim}")

    @property
    def is_classification(self) -> bool:
        return self.kind == "softmax"


@dataclass
class SmoothnessMeta:
    """Constants (L0, L1) declared valid for an objective, possibly
    conservative, plus the global minimum when known (None otherwise)."""

    L0: float
    L1: float
    f_star: float | None = None


@dataclass
class OracleConfig:
    """Stochastic-oracle settings: per-coordinate noise variance, the
    per-coordinate variance of the fixed worker shifts, and an optional
    per-worker label table for classification objectives (worker index ->
    labels for its shard)."""

    noise_variance: float = 0.0
    shift_variance: float = 0.0
    labels: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        for name in ("noise_variance", "shift_variance"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name!r} in oracle must be >= 0, got {getattr(self, name)}")


@lru_cache(maxsize=8)
def softmax_dataset(spec: ObjectiveSpec):
    """Deterministic synthetic dataset for a softmax spec.

    Returns (features, labels) with N = n_workers * samples_per_worker
    rows; labels are sorted so that contiguous per-worker shards are
    class-skewed (non-IID). The (N, F) features are the transpose view of
    the one stored array, a contiguous feature-major (F, N) one.
    """
    n = spec.n_workers * spec.samples_per_worker
    rng = RngStream(spec.feature_seed, 0)
    means = 3.0 * rng.normal(spec.n_classes * spec.feature_dim).reshape(
        spec.n_classes, spec.feature_dim
    )
    labels = np.sort(np.arange(n) % spec.n_classes)
    feats = means[labels] + rng.normal(n * spec.feature_dim).reshape(n, spec.feature_dim)
    return np.ascontiguousarray(feats.T).T, labels


def worker_shard(spec: ObjectiveSpec, worker_id: int) -> slice:
    """Row slice of the softmax dataset owned by one worker."""
    m = spec.samples_per_worker
    return slice(worker_id * m, (worker_id + 1) * m)


def _points(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """``x`` checked to be one point (dim,) or a (R, dim) row of points."""
    if x.ndim not in (1, 2) or x.shape[-1] != spec.dim:
        raise ConfigError(f"point has shape {x.shape}, expected ({spec.dim},) or (R, {spec.dim})")
    return x


def value(spec: ObjectiveSpec, x: np.ndarray):
    """f at the point x, or the (R,) values at each row of a (R, dim) x."""
    x = _points(spec, x)
    if spec.kind == "softmax":
        # One stacked pass for all rows; f is mean(log(s) - z[label, i]).
        z = _shifted_logits(spec, x)
        picked = z.reshape(*x.shape[:-1], -1)[..., _full_table(spec)[1]]
        out = np.mean(np.log(_running_class_sum(np.exp(z))) - picked, axis=-1)
    elif spec.kind == "quartic":
        s = dot(x, x)
        out = s * s
    else:
        out = np.exp(dot(x, np.asarray(spec.direction)))
    return float(out) if x.ndim == 1 else out


def _shifted_logits(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """The (C, N) class-major logits of the flattened weight matrix x on
    every data row, each column less its maximum; a (R, C, N) stack of
    them, from one stacked product, for a (R, dim) x."""
    feats = softmax_dataset(spec)[0]
    z = x.reshape(*x.shape[:-1], spec.n_classes, spec.feature_dim) @ feats.T
    z -= np.maximum.reduce(z, axis=-2, keepdims=True)
    return z


def _running_class_sum(z: np.ndarray) -> np.ndarray:
    """The (..., N) sums over the classes of the (..., C, N) array z, each
    a running sum in class order."""
    if z.shape[-1] == 1:
        return np.add.accumulate(z[..., 0], axis=-1)[..., -1:]
    return z.sum(axis=-2)


def index_tables(spec: ObjectiveSpec, tables) -> list[tuple[slice, np.ndarray, int]]:
    """Check each ``(rows, labels)`` table, the data rows of the slice
    ``rows`` with one label per row, and index it for
    ``gradient_with_labels``: ``(rows, flat label index, m)``, where row
    j's entry for its label sits at label*m + j of the flat (C, m) Q."""
    if spec.kind != "softmax":
        raise ConfigError("label tables only apply to softmax objectives")
    n_rows = len(softmax_dataset(spec)[1])
    indexed = []
    for rows, labels in tables:
        labels = np.asarray(labels)
        m = len(range(n_rows)[rows])
        if len(labels) != m:
            raise ConfigError(f"{len(labels)} labels for {m} feature rows")
        if labels.min() < 0 or labels.max() >= spec.n_classes:
            raise ConfigError(f"labels must lie in [0, {spec.n_classes})")
        indexed.append((rows, labels * m + np.arange(m), m))
    return indexed


@lru_cache(maxsize=8)
def _full_table(spec: ObjectiveSpec) -> tuple[slice, np.ndarray, int]:
    """The indexed table of every data row and the dataset's labels."""
    return index_tables(spec, [(slice(None), softmax_dataset(spec)[1])])[0]


def gradient(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """The gradient at the point x, or the (R, dim) gradients at each row
    of a (R, dim) x, each row as it would be alone."""
    x = _points(spec, x)
    if spec.kind == "quartic":
        return 4.0 * x * dot(x, x)[..., None]
    if spec.kind == "exponential":
        a = np.asarray(spec.direction)
        return a * np.exp(dot(x, a))[..., None]
    return gradient_with_labels(spec, x, [_full_table(spec)])[..., 0, :]


def gradient_with_labels(spec: ObjectiveSpec, x: np.ndarray, tables, loss: bool = False):
    """The mean cross-entropy gradient of each table of ``index_tables``,
    all from one softmax pass per point: a (T, dim) array for one point x,
    a (R, T, dim) one for a (R, dim) row of points. With ``loss``, also f
    at each point from the same pass, the bits of ``value``: returns
    ``(gradients, f)``.

    The full-data gradient is the table ``(slice(None), labels)``; a
    worker's shard with flipped or given labels is one more table.
    """
    if spec.kind != "softmax":
        raise ConfigError("gradient_with_labels only applies to softmax objectives")
    x = _points(spec, x)
    passes = [_table_gradients(spec, row, tables, loss) for row in x.reshape(-1, spec.dim)]
    grads = np.array([g for g, _ in passes]).reshape(*x.shape[:-1], len(tables), spec.dim)
    if not loss:
        return grads
    f = np.array([f for _, f in passes])
    return grads, (f if x.ndim == 2 else float(f[0]))


def _table_gradients(spec: ObjectiveSpec, x: np.ndarray, tables, loss: bool):
    """One softmax pass at the point x: the (T, dim) gradients of the
    indexed tables, and f there with ``loss`` (else None)."""
    feats = softmax_dataset(spec)[0]
    p = _shifted_logits(spec, x)
    # f = mean(log(s) - z[label, i]) takes each row's logit before exp.
    picked = p.reshape(-1)[_full_table(spec)[1]] if loss else None
    np.exp(p, out=p)
    s = _running_class_sum(p)
    p /= s
    out = np.empty((len(tables), spec.dim))
    for t, (rows, flat, m) in enumerate(tables):
        # The last table may take P's own columns in place; the others copy
        # theirs. Either way Q is a contiguous (C, m) array.
        q = p[:, rows]
        if t < len(tables) - 1 or not q.flags.c_contiguous:
            q = q.copy()
        q.reshape(-1)[flat] -= 1.0
        out[t] = (q @ feats[rows]).ravel() / m
    return out, (float(np.mean(np.log(s) - picked)) if loss else None)


def make_shifts(rng: RngStream, G: int, d: int, shift_variance: float) -> np.ndarray:
    """(G, d) per-worker shifts ~ N(0, shift_variance I), drawn as one
    block of G*d normals (row i equals the i-th of G successive d-draws)
    and centered so that the rows sum to zero (up to round-off)."""
    if G < 1:
        raise ConfigError(f"need G >= 1, got {G}")
    raw = gaussian_vector(rng, G * d, shift_variance).reshape(G, d)
    return raw - raw.mean(axis=0)


def default_smoothness(spec: ObjectiveSpec) -> SmoothnessMeta:
    """Conservative (L0, L1) constants valid on the regions the runs visit.

    quartic: the Hessian of ||x||^4 has norm 12||x||^2 and the gradient
    norm is 4||x||^3, so (12, 3) works globally (L0 covers ||x|| <= 1,
    the L1 term covers the rest). exponential: exact proportionality
    ||H|| = ||a||*||grad||, padded with a unit L0. softmax: a standard
    L-smooth loss; L0 bounded by the mean squared feature norm.
    """
    if spec.kind == "quartic":
        return SmoothnessMeta(L0=12.0, L1=3.0, f_star=0.0)
    if spec.kind == "exponential":
        a = float(norms(np.asarray(spec.direction)))
        return SmoothnessMeta(L0=1.0, L1=max(a, 1e-6), f_star=0.0)
    feats, _ = softmax_dataset(spec)
    l0 = float(np.mean(dot(feats, feats)))
    return SmoothnessMeta(L0=max(l0, 1.0), L1=1.0, f_star=None)
