"""Dense float64 vector helpers and reproducible per-worker random streams.

Vectors are plain 1-D ``numpy.ndarray`` objects with dtype float64.
Randomness goes through :class:`RngStream`, a thin wrapper over a
counter-based Philox generator keyed by (seed, stream_id), so that
distinct workers get independent streams and the same key always replays
the same sequence regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConfigError",
    "RngStream",
    "norm",
    "normalize",
    "gaussian_vector",
]

# Stream-id tags for non-worker streams (worker i uses stream_id=i).
SHIFT_STREAM = 2**32
BYZ_SHIFT_STREAM = 2**32 + 1
DATASET_STREAM = 2**32 + 2


class ConfigError(ValueError):
    """Raised for invalid configuration: dimension mismatches, bad counts,
    out-of-range parameters."""


class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Distinct stream_ids under the same master seed are statistically
    independent; the same (seed, stream_id) pair replays bit-identically
    on any machine and under any thread count. Single-owner mutable:
    never share one instance across concurrent consumers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, size: int, std: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(size) * std

    def uniform(self, low: float, high: float, size: int | None = None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size: int | None = None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def spawn(self, stream_id: int) -> "RngStream":
        """Derive a sibling stream under the same master seed."""
        return RngStream(self.seed, stream_id)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def normalize(v: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Rescale v to unit norm; below the eps threshold return the zero
    vector (the server then takes a zero step)."""
    if eps <= 0:
        raise ConfigError(f"normalize eps must be > 0, got {eps}")
    n = norm(v)
    if n > eps:
        return v / n
    return np.zeros_like(v)


def gaussian_vector(rng: RngStream, d: int, variance: float) -> np.ndarray:
    """Draw a d-vector with i.i.d. N(0, variance) entries.

    ``variance`` is the per-coordinate variance (not standard deviation);
    variance=0 returns the zero vector.
    """
    if variance < 0:
        raise ConfigError(f"variance must be >= 0, got {variance}")
    if variance == 0:
        return np.zeros(d)
    return rng.normal(d, std=float(np.sqrt(variance)))
