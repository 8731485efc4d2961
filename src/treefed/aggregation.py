"""Aggregation mechanics: per-layer attention over keys, pseudo-gradient
server optimization with momentum, and the shared warmup-cosine LR schedule.

A node's key layers are one contiguous range of its parameters. Attention
casts each key set to float64 once per call, and each layer is a contiguous
1-D slice of that copy (`key_layers`). Attention works on one layer at a
time: scores are similarities between the query's slice and each
candidate's (`similarity`), divided by a temperature, then softmax-normalized
in float64 with max-subtraction. Each candidate serves as its own key and
value: the merged layer is the weighted sum of the candidates' slices, added
in candidate order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .tensors import CongruenceError, Layout, ParamSet, axpy

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
    cosine decay to alpha*eta_max at step T, clamped beyond. T is null only
    in a config's schedule, until presets.resolve sets it for each trainer."""

    alpha: float = 0.01
    eta_max: float = 8e-4
    total_steps: int | None = 3000

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if self.eta_max <= 0:
            raise ValueError("eta_max must be positive")
        if self.total_steps is not None and self.total_steps < 1:
            raise ValueError("total_steps must be positive")


def lr_at(step: int, sched: ScheduleConfig) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    if sched.total_steps is None:
        raise ValueError("schedule.total_steps is null; presets.resolve sets it "
                         "for each trainer before training")
    warmup = math.ceil(sched.alpha * sched.total_steps)
    floor = sched.alpha * sched.eta_max
    if step < warmup:
        return sched.eta_max * step / warmup
    if step >= sched.total_steps:
        return floor
    progress = (step - warmup) / (sched.total_steps - warmup)
    return floor + (sched.eta_max - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class ServerConfig:
    """Every server's pseudo-gradient optimizer: step size and momentum."""

    eta: float = 0.2
    mu: float = 0.9

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta!r}")
        if not 0 <= self.mu < 1:
            raise ValueError(f"mu must lie in [0, 1), got {self.mu!r}")


def key_layers(keys: ParamSet) -> dict[str, np.ndarray]:
    """Each layer of a key set as a contiguous 1-D slice of one float64 copy
    of its buffer, in layout order."""
    vec = keys.buf.astype(np.float64)
    return {name: vec[s] for name, s in keys.layout.slices.items()}


def vector_norm(v: np.ndarray) -> float:
    """L2 norm of a float64 vector, from one float64 dot."""
    return float(np.sqrt(np.dot(v, v)))


def similarity(q: np.ndarray, q_norm: float, k: np.ndarray, k_norm: float,
               cfg: AttentionConfig) -> float:
    """Score of float64 vector k against q, given both norms: their dot, or
    for cosine the dot over the norms' product clamped to [-1, 1], with 0
    when either norm is 0."""
    d = float(np.dot(q, k))
    if cfg.similarity == "dot":
        return d
    if q_norm == 0.0 or k_norm == 0.0:
        return 0.0
    return min(1.0, max(-1.0, d / (q_norm * k_norm)))


def attend_layer(query: np.ndarray, candidates: Sequence[np.ndarray],
                 cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Softmax-weighted sum of candidate vectors, each scored against the
    query and serving as its own key and value, in the given (canonical)
    order. Returns the float64 sum and the weights (for logging)."""
    if not candidates:
        raise ValueError("attend_layer requires at least one candidate")
    q = np.asarray(query, dtype=np.float64)
    cands = [np.asarray(c, dtype=np.float64) for c in candidates]
    if any(c.shape != q.shape for c in cands):
        raise CongruenceError(f"candidate shapes {[c.shape for c in cands]} vs query {q.shape}")
    if cfg.uniform:
        weights = np.full(len(cands), 1.0 / len(cands))
    else:
        q_norm = vector_norm(q)
        scores = np.array([similarity(q, q_norm, c, vector_norm(c), cfg) / cfg.temperature
                           for c in cands])
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
    acc = np.zeros(q.shape)
    for w, c in zip(weights, cands):
        acc += w * c
    return acc, weights


def _attend_layers(layout: Layout, own: dict[str, np.ndarray],
                   candidates: dict[str, list[tuple[str, np.ndarray]]],
                   cfg: AttentionConfig) -> tuple[ParamSet, WeightLog]:
    """attend_layer for each layer of `own` (key_layers of a set laid out by
    `layout`) as query, over the (label, vector) pairs in candidates[layer]."""
    buf, weight_log = np.empty(layout.size, dtype=np.float32), {}
    for name, q in own.items():
        labels = [label for label, _ in candidates[name]]
        buf[layout.slices[name]], weights = attend_layer(q, [v for _, v in candidates[name]], cfg)
        weight_log[name] = (labels, weights)
    return ParamSet.from_buffer(layout, buf), weight_log


def aggregate_child_keys(
    own_keys: ParamSet,
    child_keys: Sequence[tuple[int, ParamSet]],
    cfg: AttentionConfig,
) -> tuple[ParamSet, WeightLog]:
    """Per-layer attention with the node's own post-training layer as query
    over its children's (id, keys) in id order, each candidate labelled with
    its child id. With include_self the own layer is candidate 0, labelled
    "self"."""
    for _, ck in child_keys:
        own_keys.require_congruent(ck)
    own = key_layers(own_keys)
    sets = ([("self", own)] if cfg.include_self else []) + [
        (str(cid), key_layers(ck)) for cid, ck in sorted(child_keys, key=lambda c: c[0])]
    return _attend_layers(
        own_keys.layout, own, {n: [(label, layers[n]) for label, layers in sets] for n in own},
        cfg)


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
    own, parent = key_layers(own_keys), key_layers(parent_keys)
    candidates = {n: [("self", own[n]), ("parent", parent[n])] for n in own}
    for pkt in sorted(residuals_for_agg, key=lambda p: (p.origin, p.created_round)):
        if pkt.layer not in candidates:
            raise KeyError(f"residual packet targets unknown layer {pkt.layer!r}")
        candidates[pkt.layer].append((str(pkt.origin), pkt.values))
    return _attend_layers(own_keys.layout, own, candidates, cfg)


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
    return ParamSet.from_buffer(first.layout, acc.astype(np.float32))


def server_opt(
    backbone: ParamSet, delta_mean: ParamSet, momentum: ParamSet, cfg: ServerConfig
) -> tuple[ParamSet, ParamSet]:
    """Momentum update: m <- mu*m + delta; backbone <- backbone + eta*m.
    Returns the new backbone and momentum m, the server's only state, which
    starts as zeros and persists across rounds.

    With mu=0, eta=1 this reduces exactly to FedAvg.
    """
    backbone.require_congruent(delta_mean)
    m_new = axpy(cfg.mu, momentum, delta_mean)
    return axpy(cfg.eta, m_new, backbone), m_new
