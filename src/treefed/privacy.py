"""Update sanitization for DP-flagged nodes: whole-set L2 clipping to an
adaptive bound (median of the previous round's pre-clip norms, 1.0 in round
zero) followed by Gaussian noise with per-coordinate std sigma * bound."""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class ClipState:
    """Per DP sub-federation: the current bound plus the pre-clip norms
    recorded during the round in progress."""

    bound: float = 1.0
    norms: list[float] = field(default_factory=list)

    def record(self, pre_clip_norm: float) -> None:
        self.norms.append(pre_clip_norm)


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


def update_bound(state: ClipState) -> float:
    """Advance to next round: bound becomes the median of the recorded
    norms (even count: mean of the middle two); empty keeps the old bound."""
    if state.norms:
        state.bound = float(np.median(np.asarray(state.norms, dtype=np.float64)))
    state.norms = []
    return state.bound
