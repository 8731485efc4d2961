"""Update sanitization for DP-flagged nodes: whole-set L2 clipping to an
adaptive bound (the initial bound in round zero, then the median of the
previous round's pre-clip norms, see next_bound) followed by Gaussian noise
with per-coordinate std sigma * bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import ParamSet, l2_norm


@dataclass
class DpConfig:
    sigma: float
    initial_bound: float
    enabled_nodes: frozenset[int]

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.initial_bound <= 0:
            raise ValueError("initial bound must be positive")
        self.enabled_nodes = frozenset(self.enabled_nodes)


def clip(delta: ParamSet, bound: float) -> tuple[ParamSet, float]:
    """Scale delta by min(1, bound/||delta||); returns the pre-clip norm."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    norm = l2_norm(delta)
    factor = 1.0 if norm <= bound else bound / norm
    return ParamSet.from_buffer(delta.layout, np.float32(factor) * delta.buf), norm


def add_noise(delta: ParamSet, sigma: float, bound: float, rng) -> ParamSet:
    """i.i.d. Gaussian noise per coordinate, std sigma*bound, drawn in one
    call over the whole buffer (the same values as one draw per tensor in
    layout order). sigma=0 is the identity."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return delta
    noise = rng.normal(0.0, sigma * bound, size=delta.layout.size)
    return ParamSet.from_buffer(delta.layout, delta.buf + noise.astype(np.float32))


def next_bound(bound: float, norms: list[float]) -> float:
    """The next round's bound: the median of this round's pre-clip norms
    (even count: mean of the middle two). No norms, or a median of 0 (every
    update was zero, which clip could not take as a bound), keep `bound`."""
    median = float(np.median(np.asarray(norms, dtype=np.float64))) if norms else 0.0
    return median if median > 0 else bound
