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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .core import ConfigError, RngStream, check_choices, gaussian_vector

__all__ = [
    "ObjectiveSpec",
    "SmoothnessMeta",
    "OracleConfig",
    "value",
    "gradient",
    "make_shifts",
    "stochastic_gradient",
    "default_smoothness",
    "local_gradient",
    "softmax_dataset",
    "worker_shard",
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
                raise ConfigError("exponential objective needs a direction of length dim")
        if self.kind == "softmax":
            if self.n_classes < 2:
                raise ConfigError("softmax needs n_classes >= 2")
            if self.feature_dim < 1 or self.samples_per_worker < 1 or self.n_workers < 1:
                raise ConfigError("softmax needs feature_dim, samples_per_worker, n_workers >= 1")
            if self.dim != self.n_classes * self.feature_dim:
                raise ConfigError(
                    f"softmax dim must equal n_classes*feature_dim = "
                    f"{self.n_classes * self.feature_dim}, got {self.dim}"
                )

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
        if self.noise_variance < 0 or self.shift_variance < 0:
            raise ConfigError("variances must be >= 0")


@lru_cache(maxsize=8)
def softmax_dataset(spec: ObjectiveSpec):
    """Deterministic synthetic dataset for a softmax spec.

    Returns (features, labels) with N = n_workers * samples_per_worker
    rows; labels are sorted so that contiguous per-worker shards are
    class-skewed (non-IID).
    """
    n = spec.n_workers * spec.samples_per_worker
    rng = RngStream(spec.feature_seed, 0)
    means = 3.0 * rng.normal(spec.n_classes * spec.feature_dim).reshape(
        spec.n_classes, spec.feature_dim
    )
    labels = np.sort(np.arange(n) % spec.n_classes)
    feats = means[labels] + rng.normal(n * spec.feature_dim).reshape(n, spec.feature_dim)
    return feats, labels


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
        if x.ndim == 2:
            return np.array([_softmax_value(spec, row) for row in x])
        return _softmax_value(spec, x)
    if spec.kind == "quartic":
        s = np.vecdot(x, x)
        out = s * s
    else:
        out = np.exp(np.vecdot(x, np.asarray(spec.direction)))
    return float(out) if x.ndim == 1 else out


def _softmax_value(spec: ObjectiveSpec, x: np.ndarray) -> float:
    """Mean cross-entropy at the flattened weight matrix x."""
    feats, labels = softmax_dataset(spec)
    logits = feats @ x.reshape(spec.n_classes, spec.feature_dim).T
    logits -= logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(logits).sum(axis=1))
    return float(np.mean(logz - logits[np.arange(len(labels)), labels]))


def gradient(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """The gradient at the point x, or the (R, dim) gradients at each row
    of a (R, dim) x, each row as it would be alone."""
    x = _points(spec, x)
    if spec.kind == "quartic":
        return 4.0 * x * np.vecdot(x, x)[..., None]
    if spec.kind == "exponential":
        a = np.asarray(spec.direction)
        return a * np.exp(np.vecdot(x, a))[..., None]
    feats, labels = softmax_dataset(spec)
    if x.ndim == 2:
        return np.array([gradient_with_labels(spec, row, labels, feats=feats) for row in x])
    return gradient_with_labels(spec, x, labels, feats=feats)


def gradient_with_labels(
    spec: ObjectiveSpec,
    x: np.ndarray,
    labels: np.ndarray,
    feats: np.ndarray | None = None,
) -> np.ndarray:
    """Mean cross-entropy gradient over the given (features, labels) rows.

    Used both for the clean gradient and for label-flipped variants.
    """
    if spec.kind != "softmax":
        raise ConfigError("gradient_with_labels only applies to softmax objectives")
    if feats is None:
        feats = softmax_dataset(spec)[0]
    labels = np.asarray(labels)
    w = x.reshape(spec.n_classes, spec.feature_dim)
    logits = feats @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(labels)), labels] -= 1.0
    return (probs.T @ feats).ravel() / len(labels)


def make_shifts(rng: RngStream, G: int, d: int, shift_variance: float) -> np.ndarray:
    """(G, d) per-worker shifts ~ N(0, shift_variance I), drawn as one
    block of G*d normals (row i equals the i-th of G successive d-draws)
    and centered so that the rows sum to zero (up to round-off)."""
    if G < 1:
        raise ConfigError(f"need G >= 1, got {G}")
    raw = gaussian_vector(rng, G * d, shift_variance).reshape(G, d)
    return raw - raw.mean(axis=0)


def stochastic_gradient(
    spec: ObjectiveSpec,
    x: np.ndarray,
    shift: np.ndarray,
    rng: RngStream,
    noise_variance: float,
) -> np.ndarray:
    """Honest oracle draw: exact gradient plus Gaussian noise plus the
    worker's fixed shift. The engine draws all workers' values at once as
    (n, d) arrays; this one-worker form is the reference it is tested
    against."""
    return gradient(spec, x) + gaussian_vector(rng, spec.dim, noise_variance) + shift


def local_gradient(spec: ObjectiveSpec, x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    return gradient(spec, x) + shift


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
        a = float(np.linalg.norm(np.asarray(spec.direction)))
        return SmoothnessMeta(L0=1.0, L1=max(a, 1e-6), f_star=0.0)
    feats, _ = softmax_dataset(spec)
    l0 = float(np.mean(np.sum(feats * feats, axis=1)))
    return SmoothnessMeta(L0=max(l0, 1.0), L1=1.0, f_star=None)
