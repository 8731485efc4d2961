"""Aggregation mechanics: per-layer attention over keys, pseudo-gradient
server optimization with momentum, and the shared warmup-cosine LR schedule.

Attention operates on one named layer tensor at a time: scores are
similarities between the flattened query layer and each candidate key,
divided by a temperature, then softmax-normalized (computed in float64 with
max-subtraction). The output is the weight-averaged value stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .tensors import CongruenceError, ParamSet, Tensor, axpy, cosine, dot, flatten

if TYPE_CHECKING:
    from .residual import ResidualPacket


@dataclass
class AttentionConfig:
    similarity: str = "cosine"  # or "dot"
    temperature: float = 1.0
    include_self: bool = True
    uniform: bool = False  # ablation: skip scoring, average candidates equally

    def __post_init__(self):
        if self.similarity not in ("cosine", "dot"):
            raise ValueError(f"unknown similarity {self.similarity!r}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and positive")


# layer name -> (candidate labels, attention weights), in candidate order
WeightLog = dict[str, tuple[list[str], np.ndarray]]


@dataclass
class ScheduleConfig:
    """Warmup-cosine schedule: linear 0 -> eta_max over ceil(alpha*T) steps,
    cosine decay to alpha*eta_max at step T, clamped beyond."""

    alpha: float = 0.01
    eta_max: float = 8e-4
    total_steps: int = 3000
    shape: str = "warmup_cosine"

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if self.eta_max <= 0:
            raise ValueError("eta_max must be positive")
        if self.total_steps < 1:
            raise ValueError("total_steps must be positive")
        if self.shape != "warmup_cosine":
            raise ValueError(f"unknown schedule shape {self.shape!r}")


def lr_at(step: int, sched: ScheduleConfig) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    warmup = math.ceil(sched.alpha * sched.total_steps)
    floor = sched.alpha * sched.eta_max
    if step < warmup:
        return sched.eta_max * step / warmup
    if step >= sched.total_steps:
        return floor
    progress = (step - warmup) / (sched.total_steps - warmup)
    return floor + (sched.eta_max - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class ServerOptState:
    """Per-server momentum buffer; persists across rounds."""

    momentum: ParamSet
    eta: float = 0.2
    mu: float = 0.9

    @classmethod
    def init_like(cls, backbone: ParamSet, eta: float = 0.2, mu: float = 0.9):
        return cls(momentum=backbone.zeros_like("pseudo_gradient"), eta=eta, mu=mu)


def similarity_score(a: np.ndarray, b: np.ndarray, cfg: AttentionConfig) -> float:
    if cfg.similarity == "cosine":
        return cosine(a, b)
    return dot(a, b)


def attend_layer(
    query: Tensor,
    candidates: Sequence[tuple[Tensor, Tensor]],
    cfg: AttentionConfig,
) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted combination of candidate values, scored against the
    query. Candidates must already be in canonical order; weights are
    returned for logging."""
    if not candidates:
        raise ValueError("attend_layer requires at least one candidate")
    q = flatten(query)
    for k, v in candidates:
        if k.shape != query.shape or v.shape != query.shape:
            raise CongruenceError(
                f"candidate shape mismatch for layer {query.name!r}: "
                f"{k.shape}/{v.shape} vs {query.shape}"
            )
    m = len(candidates)
    if cfg.uniform:
        weights = np.full(m, 1.0 / m, dtype=np.float64)
    else:
        scores = np.array(
            [similarity_score(q, flatten(k), cfg) / cfg.temperature for k, _ in candidates],
            dtype=np.float64,
        )
        scores -= scores.max()
        e = np.exp(scores)
        weights = e / e.sum()
    acc = np.zeros(query.shape, dtype=np.float64)
    for w, (_, v) in zip(weights, candidates):
        acc += w * v.data.astype(np.float64)
    return Tensor(query.name, acc.astype(np.float32)), weights


def _attend_layers(own_keys: ParamSet, candidates: dict[str, list[tuple[str, Tensor]]],
                   cfg: AttentionConfig) -> tuple[ParamSet, WeightLog]:
    """attend_layer for each layer of own_keys, as query, over the (label,
    tensor) pairs in candidates[layer]; each candidate serves as its own key
    and value."""
    buf, weight_log = np.empty(own_keys.layout.size, dtype=np.float32), {}
    for layer in own_keys:
        labels = [label for label, _ in candidates[layer.name]]
        merged, weights = attend_layer(layer, [(t, t) for _, t in candidates[layer.name]], cfg)
        buf[own_keys.layout.slices[layer.name]] = merged.data.ravel()
        weight_log[layer.name] = (labels, weights)
    return ParamSet.from_buffer(own_keys.layout, buf, "keys"), weight_log


def aggregate_child_keys(
    own_keys: ParamSet,
    child_keys: Sequence[tuple[int, ParamSet]],
    cfg: AttentionConfig,
) -> tuple[ParamSet, WeightLog]:
    """Per-layer attention with the node's own post-training layer as query
    over its children's (id, keys) in id order, each candidate labelled with
    its child id and serving as its own key and value. With include_self the
    own layer is candidate 0, labelled "self"."""
    for _, ck in child_keys:
        own_keys.require_congruent(ck)
    sets = ([("self", own_keys)] if cfg.include_self else []) + [
        (str(cid), ck) for cid, ck in sorted(child_keys, key=lambda c: c[0])]
    return _attend_layers(
        own_keys, {n: [(label, ps[n]) for label, ps in sets] for n in own_keys.names()}, cfg)


def merge_with_parent(
    own_keys: ParamSet,
    parent_keys: ParamSet,
    residuals_for_agg: Sequence["ResidualPacket"],
    cfg: AttentionConfig,
) -> tuple[ParamSet, WeightLog]:
    """Entry aggregation for a non-root node: per layer, attend over
    ["self", "parent", that layer's incoming residual packets sorted by
    (origin, created round), each labelled with its origin]."""
    own_keys.require_congruent(parent_keys)
    candidates = {n: [("self", own_keys[n]), ("parent", parent_keys[n])]
                  for n in own_keys.names()}
    for pkt in sorted(residuals_for_agg, key=lambda p: (p.origin, p.created_round)):
        if pkt.layer not in candidates:
            raise KeyError(f"residual packet targets unknown layer {pkt.layer!r}")
        candidates[pkt.layer].append((str(pkt.origin), pkt.tensor))
    return _attend_layers(own_keys, candidates, cfg)


def average_pseudograds(deltas: Sequence[ParamSet]) -> ParamSet:
    """Unweighted mean, accumulated in float64 in the given (node-id) order."""
    if not deltas:
        raise ValueError("average_pseudograds requires at least one delta")
    first = deltas[0]
    for d in deltas[1:]:
        first.require_congruent(d)
    acc = first.buf.astype(np.float64)
    for d in deltas[1:]:
        acc += d.buf
    acc /= len(deltas)
    return ParamSet.from_buffer(first.layout, acc.astype(np.float32), "pseudo_gradient")


def server_opt(
    backbone: ParamSet, delta_mean: ParamSet, state: ServerOptState
) -> tuple[ParamSet, ServerOptState]:
    """Momentum update: m <- mu*m + delta; backbone <- backbone + eta*m.

    With mu=0, eta=1 this reduces exactly to FedAvg.
    """
    backbone.require_congruent(delta_mean)
    m_new = axpy(state.mu, state.momentum, delta_mean, role="pseudo_gradient")
    b_new = axpy(state.eta, m_new, backbone, role="backbone")
    return b_new, ServerOptState(momentum=m_new, eta=state.eta, mu=state.mu)
