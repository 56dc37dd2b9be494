"""Robust aggregation rules and nearest-neighbor mixing.

All rules take the n worker vectors as a (n, d) array (or a list of 1-D
arrays) and return a single d-vector. Every rule also takes a block of T
such inputs as one (T, n, d) array and returns the (T, d) results, each
row bit for bit what the rule returns for that (n, d) matrix alone: the
rules work along the last two axes, and the batched Weiszfeld iteration
drops a row from its passes once that row has converged. ``aggregate``
dispatches on an :class:`AggregatorSpec`, which holds only the rule and
whether nearest-neighbor mixing (NNM) runs first: each input is replaced
by the mean of its G = n - B nearest inputs (itself included), which
contracts heterogeneity before the robust rule runs. NNM adds the G
neighbours in sorted order, one after another, at every d, and divides
the sum by G. Every other setting follows from the run: Krum and the
trimmed mean take the run's B, and Weiszfeld runs with the
``geometric_median`` defaults.

``theoretical_kappa`` exposes the closed-form robustness coefficients
where they exist: geometric median and coordinate-wise median have
kappa = 2(1 + B/(n-2B)) and sqrt(d) times that respectively, and an
NNM composition multiplies in (8*kappa + 4) * alpha * C with
alpha = B/(n-B) and a caller-supplied leverage constant C. Krum, the
plain mean, and the trimmed mean carry no certified coefficient here;
the verification fuzzer reports their empirical ratio instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import ConfigError, check_choices, norms

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
    """Aggregation rule selection: the rule and whether NNM runs first.

    B is the Byzantine budget the rule defends against (also the NNM
    neighbor-count complement and the trimmed mean's per-side trim
    count); n and B are always the run's own. Weiszfeld runs with the
    ``geometric_median`` defaults.
    """

    rule: Literal["mean", "krum", "gm", "cwmed", "trimmed_mean"]
    n: int
    B: int
    nnm: bool = False

    def __post_init__(self):
        check_choices(self)
        if not 0 <= self.B < self.n / 2:
            raise ConfigError(f"need 0 <= B < n/2, got B={self.B}, n={self.n}")
        if self.rule == "krum" and self.n - self.B - 2 < 1:
            raise ConfigError(f"krum needs n - B - 2 >= 1, got n={self.n}, B={self.B}")

    @property
    def name(self) -> str:
        """The rule as reports and sweep cells spell it: ``gm+nnm``."""
        return self.rule + ("+nnm" if self.nnm else "")


def _as_matrix(vectors) -> np.ndarray:
    """The input as an (n, d) matrix, or a (T, n, d) block of them."""
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim not in (2, 3):
        raise ConfigError("expected a list of equal-length vectors or a (T, n, d) block, "
                          f"got shape {mat.shape}")
    return mat


def _stacked_rows(mat: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of an (n, d) matrix or of a (T, n, d) block as one stacked
    matrix, and ``idx`` as indices into it: ``idx[t, ...]`` are rows of
    matrix t of a block."""
    if mat.ndim == 3:
        idx = idx + mat.shape[1] * np.arange(len(mat)).reshape(-1, *[1] * (idx.ndim - 1))
    return mat.reshape(-1, mat.shape[-1]), idx


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of n rows as two index arrays, and the (n, n) map
    from a row pair to its slot in the distance buffer of ``_sq_dists``:
    slot 0 for the diagonal, slot p + 1 for pair p either way round."""
    i, j = np.triu_indices(n, 1)
    slots = np.zeros((n, n), dtype=np.intp)
    slots[i, j] = slots[j, i] = np.arange(1, len(i) + 1)
    for cached in (i, j, slots):
        cached.flags.writeable = False
    return i, j, slots


def _sq_dists(mat: np.ndarray, diagonal: float = 0.0) -> np.ndarray:
    """(..., n, n) squared Euclidean distances from direct differences,
    which keep their precision when the rows share a large common offset
    (the expansion |a|^2 + |b|^2 - 2a.b cancels there), with ``diagonal``
    on the diagonal.

    Each pair i < j is computed once and mirrored: (a - b)^2 equals
    (b - a)^2 bit for bit, so every entry has the bits of the full n x n
    difference tensor, at half its size and less than half its time (a
    (30, 20, 10) block in 117-145 us against 228-361 us, minimum of
    repeats on a shared 2-core x86-64 VM, numpy 2.4.6).
    """
    i, j, slots = _pairs(mat.shape[-2])
    diff = mat.take(i, axis=-2)
    diff -= mat.take(j, axis=-2)
    sq = np.empty(mat.shape[:-2] + (len(i) + 1,))
    sq[..., 0] = diagonal
    np.einsum("...pk,...pk->...p", diff, diff, out=sq[..., 1:])
    return sq.take(slots, axis=-1)


def nnm_transform(vectors, B: int) -> np.ndarray:
    """Replace each vector by the mean of its n - B nearest vectors
    (Euclidean distance, pivot included, ties to the smaller index)."""
    mat = _as_matrix(vectors)
    n = mat.shape[-2]
    if not 0 <= B < n / 2:
        raise ConfigError(f"need 0 <= B < n/2, got B={B}, n={n}")
    order = np.argsort(_sq_dists(mat), axis=-1, kind="stable")[..., :n - B]
    rows, order = _stacked_rows(mat, order)
    # Neighbour-major, (G, ..., n, d): numpy adds the G rows one after
    # another in sorted order, at every d.
    return np.add.reduce(rows.take(np.moveaxis(order, -1, 0), axis=0), axis=0) / (n - B)


def krum(vectors, B: int) -> np.ndarray:
    """Return the input vector whose summed squared distance to its
    n - B - 2 nearest other vectors is smallest (ties to the smaller
    index)."""
    mat = _as_matrix(vectors)
    n = mat.shape[-2]
    m = n - B - 2
    if m < 1:
        raise ConfigError(f"krum needs n - B - 2 >= 1, got n={n}, B={B}")
    scores = np.sort(_sq_dists(mat, diagonal=np.inf), axis=-1)[..., :m].sum(axis=-1)
    rows, best = _stacked_rows(mat, np.argmin(scores, axis=-1))
    return rows.take(best, axis=0)


def _gm_objective(y: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return norms(mat - y[..., None, :]).sum(axis=-1)


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

    A (T, n, d) block iterates its rows together, and a row that has
    converged leaves the passes that follow, so each row takes exactly
    the passes it takes alone. Its history holds the (T, d) iterates
    after each pass, converged rows at their final value: one entry more
    than the most passes a row took.
    """
    mat = _as_matrix(vectors)
    if nu <= 0:
        raise ConfigError("nu must be > 0")
    mean = mat.mean(axis=-2)
    out = mean.copy()
    live = slice(None)  # the rows of a block still iterating
    rows, y = mat, mean  # their inputs and iterates
    history = [mean]
    for _ in range(max_iters):
        w = 1.0 / np.maximum(norms(rows - y[..., None, :]), nu)
        y_next = (w[..., None] * rows).sum(axis=-2) / w.sum(axis=-1)[..., None]
        step = y_next - y
        stop = norms(step) <= tol
        y = y_next
        if return_history:
            frame = y
            if not isinstance(live, slice):  # rows that stopped keep their value
                frame = out.copy()
                frame[live] = y
            history.append(frame)
        stopped = np.count_nonzero(stop)
        if stopped == stop.size:  # the one matrix, or every row of a block
            break
        if stopped:
            live = np.arange(len(out))[live]
            out[live[stop]] = y[stop]
            live, rows, y = live[~stop], rows[~stop], y[~stop]
    out[live] = y
    # Guards the contract against smoothing stalls near degenerate inputs.
    np.copyto(out, mean, where=(_gm_objective(out, mat) > _gm_objective(mean, mat))[..., None])
    if return_history:
        return out, history
    return out


def coordinate_median(vectors) -> np.ndarray:
    """Per-coordinate median; even counts average the two middle order
    statistics."""
    return np.median(_as_matrix(vectors), axis=-2)


def trimmed_mean(vectors, trim_b: int) -> np.ndarray:
    """Per coordinate, drop the trim_b smallest and trim_b largest values
    and average the rest."""
    mat = _as_matrix(vectors)
    n = mat.shape[-2]
    if not 0 <= trim_b < n / 2:
        raise ConfigError(f"need 0 <= trim_b < n/2, got trim_b={trim_b}, n={n}")
    if trim_b == 0:
        return mat.mean(axis=-2)
    return np.sort(mat, axis=-2)[..., trim_b : n - trim_b, :].mean(axis=-2)


def aggregate(spec: AggregatorSpec, vectors) -> np.ndarray:
    """Run the configured rule (after NNM when enabled) on exactly n
    vectors of common dimension, or on each (n, d) matrix of a (T, n, d)
    block."""
    mat = _as_matrix(vectors)
    if mat.shape[-2] != spec.n:
        raise ConfigError(f"expected {spec.n} vectors, got {mat.shape[-2]}")
    if spec.nnm:
        mat = nnm_transform(mat, spec.B)
    if spec.rule == "mean":
        return mat.mean(axis=-2)
    if spec.rule == "krum":
        return krum(mat, spec.B)
    if spec.rule == "gm":
        return geometric_median(mat)
    if spec.rule == "cwmed":
        return coordinate_median(mat)
    return trimmed_mean(mat, spec.B)


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
