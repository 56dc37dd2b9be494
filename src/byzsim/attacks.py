"""Byzantine worker strategies.

``byzantine_update`` computes the vectors of the whole Byzantine block at
once, as a pure function of (spec, iteration, momenta, gradients): the
(n, d) arrays hold every worker's honest-protocol momentum and this
iteration's stochastic gradient, the G honest rows first. The omniscient
adversary sees all of it; the attacks that need honest statistics read
them from an :class:`AttackContext`, built only when they do.

Strategies:

* ``none``: send the honest-protocol vector.
* ``bit_flip``: send the negation of the worker's own honest-protocol
  momentum (or of its raw gradient with ``bf_gradient_level``).
* ``label_flip``: the poisoning happens in the oracle (labels shifted by
  c mod C); the transmitted vector is the honest recursion over that
  poisoned oracle. Classification objectives only.
* ``mimic``: behave honestly for a warmup window, then send -2 times the
  mean of the honest stochastic gradients.
* ``alie``: send honest mean plus z coordinate-wise standard deviations,
  staying inside the honest dispersion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError

__all__ = ["AttackSpec", "AttackContext", "byzantine_update", "shift_labels"]

KINDS = ("none", "bit_flip", "label_flip", "mimic", "alie")


@dataclass(frozen=True)
class AttackSpec:
    """Attack selection plus parameters: mimic warmup length, ALIE z, and
    the label shift for label flipping. ``bf_gradient_level`` switches
    bit flipping from negating the momentum vector to negating the raw
    stochastic gradient."""

    kind: str = "none"
    mimic_warmup: int = 50
    alie_z: float = 1.0
    label_shift: int = 5
    bf_gradient_level: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown attack kind: {self.kind!r}")
        if self.mimic_warmup < 0:
            raise ConfigError("mimic warmup must be >= 0")


@dataclass
class AttackContext:
    """Honest traffic visible to the adversary at one iteration.

    ``iteration`` is 0-based; ``honest_updates`` is the (G, d) matrix of
    honest momentum vectors, ``honest_mean`` its mean, ``gradient_mean``
    the mean of the honest stochastic gradients drawn this iteration, and
    ``coord_std`` the population (divide-by-G) coordinate-wise standard
    deviation of the honest updates.
    """

    iteration: int
    honest_updates: np.ndarray
    honest_mean: np.ndarray
    gradient_mean: np.ndarray
    coord_std: np.ndarray

    @classmethod
    def from_honest(cls, iteration: int, honest_updates: np.ndarray, honest_gradients: np.ndarray):
        updates = np.asarray(honest_updates, dtype=float)
        return cls(
            iteration=iteration,
            honest_updates=updates,
            honest_mean=updates.mean(axis=0),
            gradient_mean=np.asarray(honest_gradients, dtype=float).mean(axis=0),
            coord_std=updates.std(axis=0),
        )


def byzantine_update(
    spec: AttackSpec, iteration: int, momenta: np.ndarray, grads: np.ndarray, G: int
) -> np.ndarray:
    """(B, d) vectors the Byzantine workers transmit this iteration.

    ``iteration`` is 0-based. Rows ``G:`` of ``momenta`` and ``grads`` are
    the Byzantine workers' own honest-protocol momenta and stochastic
    gradients (label-flip poisoning, when active, is already in them);
    rows ``:G`` are the honest workers'.
    """
    B = momenta.shape[0] - G
    if spec.kind == "bit_flip":
        return -(grads[G:] if spec.bf_gradient_level else momenta[G:])
    if spec.kind in ("none", "label_flip") or (
        spec.kind == "mimic" and iteration < spec.mimic_warmup
    ):
        return momenta[G:].copy()
    ctx = AttackContext.from_honest(iteration, momenta[:G], grads[:G])
    if spec.kind == "mimic":
        return np.tile(-2.0 * ctx.gradient_mean, (B, 1))
    # alie
    return np.tile(ctx.honest_mean + spec.alie_z * ctx.coord_std, (B, 1))


def shift_labels(labels, c: int, C: int) -> np.ndarray:
    """Elementwise (y + c) mod C."""
    arr = np.asarray(labels)
    if arr.size and (arr.min() < 0 or arr.max() >= C):
        raise ConfigError(f"labels must lie in [0, {C})")
    return (arr + c) % C
