"""Dense float64 vector helpers, reproducible per-worker random streams,
and the check of enumerated config fields.

Vectors are plain 1-D ``numpy.ndarray`` objects with dtype float64.
Randomness goes through :class:`RngStream`, a thin wrapper over a
counter-based Philox generator keyed by (seed, stream_id), so that
distinct workers get independent streams and the same key always replays
the same sequence regardless of scheduling. An enumerated config field
lists its accepted names once, as a ``Literal[...]`` type hint, which
:func:`check_choices` and the config reader both read.
"""

from __future__ import annotations

import typing
from dataclasses import fields
from functools import cache

import numpy as np

__all__ = [
    "ConfigError",
    "RngStream",
    "check_seed",
    "check_choice",
    "check_choices",
    "field_hints",
    "norms",
    "gaussian_vector",
]

# Stream-id tag of the shift stream (worker i uses stream_id=i).
SHIFT_STREAM = 2**32


class ConfigError(ValueError):
    """Raised for invalid configuration: dimension mismatches, bad counts,
    out-of-range parameters."""


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise ConfigError unless ``seed`` fits the unsigned 64-bit key word
    of an ``RngStream``; ``name`` is what the message calls it."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0")
    if seed >= 2**64:
        raise ConfigError(f"{name} must be < 2**64")


class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Distinct stream_ids under the same master seed are statistically
    independent; the same (seed, stream_id) pair replays bit-identically
    on any machine and under any thread count. Single-owner mutable:
    never share one instance across concurrent consumers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        key = np.array([int(seed), int(stream_id)], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, size: int, std: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(size) * std

    def uniform(self, low: float, high: float, size: int | None = None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size: int | None = None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


@cache
def field_hints(cls) -> dict:
    """Field name -> resolved type hint of the dataclass ``cls``, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_choice(hint, value, name: str, where: str) -> None:
    """Raise ConfigError unless ``value`` is a name the ``Literal`` hint lists."""
    names = typing.get_args(hint)
    if value not in names:
        raise ConfigError(f"unknown {name} {value!r}{where}, "
                          f"expected one of {', '.join(map(repr, names))}")


def check_choices(obj) -> None:
    """Raise ConfigError unless every ``Literal``-hinted field of the
    dataclass instance ``obj`` holds one of the names its hint lists."""
    for name, hint in field_hints(type(obj)).items():
        if typing.get_origin(hint) is typing.Literal:
            check_choice(hint, getattr(obj, name), name, f" in {type(obj).__name__}")


# The norm below which the normalized optimizer takes a zero step.
NORM_EPS = 1e-12


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of v, or of each row of a (R, d) v, each the
    square root of the dot product np.linalg.norm takes of one vector."""
    return np.sqrt(np.vecdot(v, v))


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
