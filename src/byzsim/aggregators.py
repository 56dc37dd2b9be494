"""Robust aggregation rules and nearest-neighbor mixing.

All rules take the n worker vectors as a (n, d) array (or a list of 1-D
arrays) and return a single d-vector. ``aggregate`` dispatches on an
:class:`AggregatorSpec` and optionally applies nearest-neighbor mixing
(NNM) first: each input is replaced by the mean of its G = n - B nearest
inputs (itself included), which contracts heterogeneity before the robust
rule runs.

``theoretical_kappa`` exposes the closed-form robustness coefficients
where they exist: geometric median and coordinate-wise median have
kappa = 2(1 + B/(n-2B)) and sqrt(d) times that respectively, and an
NNM composition multiplies in (8*kappa + 4) * alpha * C with
alpha = B/(n-B) and a caller-supplied leverage constant C. Krum, the
plain mean, and the trimmed mean carry no certified coefficient here;
the verification fuzzer reports their empirical ratio instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Literal

import numpy as np

from .core import ConfigError, check_choices

__all__ = [
    "AggregatorSpec",
    "aggregate",
    "nnm_transform",
    "krum",
    "geometric_median",
    "coordinate_median",
    "trimmed_mean",
    "theoretical_kappa",
]


@dataclass(frozen=True)
class AggregatorSpec:
    """Aggregation rule selection plus its parameters.

    B is the Byzantine budget the rule defends against (also the NNM
    neighbor-count complement and the default per-side trim count).
    """

    rule: Literal["mean", "krum", "gm", "cwmed", "trimmed_mean"]
    n: int
    B: int
    nnm: bool = False
    gm_nu: float = 1e-8
    gm_max_iters: int = 100
    gm_tol: float = 1e-10
    trim_b: int | None = None

    def __post_init__(self):
        check_choices(self)
        if not 0 <= self.B < self.n / 2:
            raise ConfigError(f"need 0 <= B < n/2, got B={self.B}, n={self.n}")
        if self.rule == "krum" and self.n - self.B - 2 < 1:
            raise ConfigError(f"krum needs n - B - 2 >= 1, got n={self.n}, B={self.B}")
        if self.gm_nu <= 0:
            raise ConfigError("gm smoothing nu must be > 0")
        if self.trim_b is not None:
            if not isinstance(self.trim_b, Real) or not float(self.trim_b).is_integer():
                raise ConfigError(f"trim_b must be an integer, got {self.trim_b!r}")
            object.__setattr__(self, "trim_b", int(self.trim_b))
            if not 0 <= self.trim_b < self.n / 2:
                raise ConfigError(
                    f"need 0 <= trim_b < n/2, got trim_b={self.trim_b}, n={self.n}"
                )

    @property
    def trim_count(self) -> int:
        return self.B if self.trim_b is None else self.trim_b

    @property
    def name(self) -> str:
        """The rule as reports and sweep cells spell it: ``gm+nnm``."""
        return self.rule + ("+nnm" if self.nnm else "")


def _as_matrix(vectors) -> np.ndarray:
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim != 2:
        raise ConfigError(f"expected a list of equal-length vectors, got shape {mat.shape}")
    return mat


def nnm_transform(vectors, B: int) -> np.ndarray:
    """Replace each vector by the mean of its n - B nearest vectors
    (Euclidean distance, pivot included, ties to the smaller index)."""
    mat = _as_matrix(vectors)
    n = mat.shape[0]
    if not 0 <= B < n / 2:
        raise ConfigError(f"need 0 <= B < n/2, got B={B}, n={n}")
    g = n - B
    sq = np.sum(mat * mat, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T)
    order = np.argsort(d2, axis=1, kind="stable")[:, :g]
    return mat[order].mean(axis=1)


def krum(vectors, n: int, B: int) -> np.ndarray:
    """Return the input vector whose summed squared distance to its
    n - B - 2 nearest other vectors is smallest (ties to the smaller
    index)."""
    mat = _as_matrix(vectors)
    if mat.shape[0] != n:
        raise ConfigError(f"expected {n} vectors, got {mat.shape[0]}")
    m = n - B - 2
    if m < 1:
        raise ConfigError(f"krum needs n - B - 2 >= 1, got n={n}, B={B}")
    sq = np.sum(mat * mat, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T)
    np.fill_diagonal(d2, np.inf)
    d2 = np.maximum(d2, 0.0)
    part = np.sort(d2, axis=1)[:, :m]
    scores = part.sum(axis=1)
    return mat[int(np.argmin(scores))].copy()


def _gm_objective(y: np.ndarray, mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat - y, axis=1).sum())


def geometric_median(
    vectors,
    nu: float = 1e-8,
    max_iters: int = 100,
    tol: float = 1e-10,
    return_history: bool = False,
):
    """Smoothed Weiszfeld iteration for the geometric median.

    Starts at the coordinate-wise mean and reweights by 1/max(nu, dist)
    until the iterate moves by at most tol or max_iters is hit. The
    returned point never has a larger distance sum than the mean.
    """
    mat = _as_matrix(vectors)
    if nu <= 0:
        raise ConfigError("nu must be > 0")
    y = mat.mean(axis=0)
    history = [y]
    for _ in range(max_iters):
        dist = np.linalg.norm(mat - y, axis=1)
        w = 1.0 / np.maximum(dist, nu)
        y_next = (w[:, None] * mat).sum(axis=0) / w.sum()
        moved = float(np.linalg.norm(y_next - y))
        y = y_next
        if return_history:
            history.append(y)
        if moved <= tol:
            break
    # Guards the contract against smoothing stalls near degenerate inputs.
    if _gm_objective(y, mat) > _gm_objective(mat.mean(axis=0), mat):
        y = mat.mean(axis=0)
    if return_history:
        return y, history
    return y


def coordinate_median(vectors) -> np.ndarray:
    """Per-coordinate median; even counts average the two middle order
    statistics."""
    return np.median(_as_matrix(vectors), axis=0)


def trimmed_mean(vectors, trim_b: int) -> np.ndarray:
    """Per coordinate, drop the trim_b smallest and trim_b largest values
    and average the rest."""
    mat = _as_matrix(vectors)
    n = mat.shape[0]
    if not 0 <= trim_b < n / 2:
        raise ConfigError(f"need 0 <= trim_b < n/2, got trim_b={trim_b}, n={n}")
    if trim_b == 0:
        return mat.mean(axis=0)
    return np.sort(mat, axis=0)[trim_b : n - trim_b].mean(axis=0)


def aggregate(spec: AggregatorSpec, vectors) -> np.ndarray:
    """Run the configured rule (after NNM when enabled) on exactly n
    vectors of common dimension."""
    mat = _as_matrix(vectors)
    if mat.shape[0] != spec.n:
        raise ConfigError(f"expected {spec.n} vectors, got {mat.shape[0]}")
    if spec.nnm:
        mat = nnm_transform(mat, spec.B)
    if spec.rule == "mean":
        return mat.mean(axis=0)
    if spec.rule == "krum":
        return krum(mat, spec.n, spec.B)
    if spec.rule == "gm":
        return geometric_median(mat, spec.gm_nu, spec.gm_max_iters, spec.gm_tol)
    if spec.rule == "cwmed":
        return coordinate_median(mat)
    return trimmed_mean(mat, spec.trim_count)


def base_kappa(rule: str, n: int, B: int, d: int) -> float | None:
    """Certified coefficient of the bare rule, or None when there is no
    closed form."""
    if rule == "gm":
        return 2.0 * (1.0 + B / (n - 2 * B))
    if rule == "cwmed":
        return 2.0 * np.sqrt(d) * (1.0 + B / (n - 2 * B))
    return None


def theoretical_kappa(
    spec: AggregatorSpec, d: int, leverage_c: float | np.ndarray | None = None
) -> float | np.ndarray | None:
    """Closed-form robustness coefficient for the spec, or None.

    NNM compositions need the leverage constant C of the good cluster,
    which is instance-dependent; callers that certify per instance pass
    it in, a float or an array of one C per good-set labeling (the result
    then has its shape). Without it the NNM coefficient is undefined and
    None is returned.
    """
    kappa = base_kappa(spec.rule, spec.n, spec.B, d)
    if kappa is None:
        return None
    if not spec.nnm:
        return kappa
    if leverage_c is None:
        return None
    alpha = spec.B / (spec.n - spec.B)
    return (8.0 * kappa + 4.0) * alpha * leverage_c
