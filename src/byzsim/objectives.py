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
per-worker shift to the exact gradient; shifts are centered so that they
sum to zero over the honest workers and the oracle stays unbiased. The
local objective of a worker with shift s is read as f_i(x) = f(x) + <s, x>,
which makes the shifted oracle an exact stochastic gradient of f_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .core import ConfigError, RngStream, gaussian_vector

__all__ = [
    "ObjectiveSpec",
    "SmoothnessMeta",
    "OracleConfig",
    "value",
    "gradient",
    "make_shifts",
    "stochastic_gradient",
    "default_smoothness",
    "local_value",
    "local_gradient",
    "local_min_value",
    "softmax_dataset",
    "worker_shard",
    "gradient_with_labels",
]

KINDS = ("quartic", "softmax", "exponential")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which objective to optimize, plus kind-specific parameters.

    Frozen (hashable) so the synthetic softmax dataset can be cached per
    spec. ``direction`` is the exponential's vector a; the softmax fields
    size a dataset of n_workers * samples_per_worker points in
    feature_dim dimensions with n_classes Gaussian clusters, and require
    dim == n_classes * feature_dim (the flattened weight matrix).
    """

    kind: str
    dim: int
    direction: tuple[float, ...] | None = None
    n_classes: int = 0
    feature_dim: int = 0
    feature_seed: int = 0
    samples_per_worker: int = 0
    n_workers: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown objective kind: {self.kind!r}")
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
    conservative, plus the global minimum when known. f_star is None when
    it has to be obtained numerically."""

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


def _softmax_ce(x: np.ndarray, feats: np.ndarray, labels: np.ndarray, spec: ObjectiveSpec):
    w = x.reshape(spec.n_classes, spec.feature_dim)
    logits = feats @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(logits).sum(axis=1))
    loss = float(np.mean(logz - logits[np.arange(len(labels)), labels]))
    return loss, logits, logz


def value(spec: ObjectiveSpec, x: np.ndarray) -> float:
    if x.shape != (spec.dim,):
        raise ConfigError(f"point has shape {x.shape}, expected ({spec.dim},)")
    if spec.kind == "quartic":
        s = float(np.dot(x, x))
        return s * s
    if spec.kind == "exponential":
        return float(np.exp(np.dot(np.asarray(spec.direction), x)))
    feats, labels = softmax_dataset(spec)
    return _softmax_ce(x, feats, labels, spec)[0]


def gradient(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    if x.shape != (spec.dim,):
        raise ConfigError(f"point has shape {x.shape}, expected ({spec.dim},)")
    if spec.kind == "quartic":
        return 4.0 * x * float(np.dot(x, x))
    if spec.kind == "exponential":
        a = np.asarray(spec.direction)
        return a * float(np.exp(np.dot(a, x)))
    feats, labels = softmax_dataset(spec)
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


def make_shifts(rng: RngStream, G: int, d: int, shift_variance: float) -> list[np.ndarray]:
    """Draw G per-worker shift vectors ~ N(0, shift_variance I) and center
    them so their sum is zero (up to round-off)."""
    if G < 1:
        raise ConfigError(f"need G >= 1, got {G}")
    raw = [gaussian_vector(rng, d, shift_variance) for _ in range(G)]
    mean = np.mean(raw, axis=0)
    return [s - mean for s in raw]


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


def local_value(spec: ObjectiveSpec, x: np.ndarray, shift: np.ndarray) -> float:
    """Worker-local objective f_i(x) = f(x) + <s_i, x>."""
    return value(spec, x) + float(np.dot(shift, x))


def local_gradient(spec: ObjectiveSpec, x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    return gradient(spec, x) + shift


def local_min_value(spec: ObjectiveSpec, shift: np.ndarray, x0: np.ndarray | None = None) -> float:
    """Numerical minimum of the shifted local objective f_i.

    Multi-start BFGS with the analytic gradient; precise enough for the
    lower-bound checks, which only consume f_i* through loose inequalities.
    """
    starts = [np.zeros(spec.dim)]
    n = float(np.linalg.norm(shift))
    if n > 0:
        starts.append(-shift / n)
        starts.append(-shift)
    if x0 is not None:
        starts.append(np.asarray(x0, dtype=float))
    best = np.inf
    for s in starts:
        res = minimize(
            lambda z: local_value(spec, z, shift),
            s,
            jac=lambda z: local_gradient(spec, z, shift),
            method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        best = min(best, float(res.fun))
    return best


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
