"""Aggregation mechanics: per-layer attention over keys, pseudo-gradient
server optimization with momentum, and the shared warmup-cosine LR schedule.

A node's key layers are one contiguous range of its parameters. Attention
copies each key set to float64 once per call, and scores each candidate's
layer, a slice of that copy, against the query's (`score_keys`); per layer
the scores are divided by a temperature and softmax-normalized in float64
with max-subtraction, and the merged layer is the weighted sum of the
candidates' layers, added in candidate order. One softmax covers all layers
with the same candidate count, and a whole key set, scaled layer by layer in
its copy, is added to every layer at once; a residual packet is added on
its own layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .tensors import CongruenceError, ParamSet, axpy

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


def vector_norm(v: np.ndarray) -> float:
    """L2 norm of a float64 vector, from one float64 dot."""
    return math.sqrt(float(np.dot(v, v)))


def similarity(d: float, q_norm: float, k_norm: float, cfg: AttentionConfig) -> float:
    """Score of a vector against a query, given their float64 dot and both
    norms: the dot, or for cosine the dot over the norms' product clamped to
    [-1, 1], with 0 when either norm is 0."""
    if cfg.similarity == "dot":
        return d
    if q_norm == 0.0 or k_norm == 0.0:
        return 0.0
    return min(1.0, max(-1.0, d / (q_norm * k_norm)))


def score_keys(query: np.ndarray, sets: Sequence[np.ndarray], slices: dict[str, slice],
               cfg: AttentionConfig, include_self: bool = False,
               packets: dict[str, list[np.ndarray]] | None = None) -> dict[str, list[float]]:
    """Per layer (name -> slice of the float64 buffer `query`), each
    candidate's score against the query in candidate order: the query itself
    with include_self, each float64 set of `sets` (laid out like `query`),
    then each float64 vector of packets[layer]. The query's one dot with
    itself gives its norm and self score."""
    packets = packets or {}
    out = {}
    for name, s in slices.items():
        q = query[s]
        qq = float(np.dot(q, q))
        q_norm = math.sqrt(qq)
        out[name] = ([similarity(qq, q_norm, q_norm, cfg)] if include_self else []) + [
            similarity(float(np.dot(q, c)), q_norm, vector_norm(c), cfg)
            for c in [c[s] for c in sets] + packets.get(name, [])]
    return out


def attend_keys(query: np.ndarray, sets: Sequence[np.ndarray], slices: dict[str, slice],
                cfg: AttentionConfig, include_self: bool = False,
                packets: dict[str, list[np.ndarray]] | None = None,
                ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Attention on every layer of the key buffer `query` at once, over
    score_keys' candidates, each its own key and value: the float64 merged
    buffer and each layer's weights. Each buffer and vector is copied to
    float64 once and scored; then each copy is scaled in place by its
    layers' weights and added whole, the whole sets (the query with
    include_self, then `sets`) first and each packet on its layer after
    them, so every layer sums its candidates in candidate order."""
    query, sets = np.array(query, np.float64), [np.array(c, np.float64) for c in sets]
    packets = {name: [np.array(c, np.float64) for c in vecs]
               for name, vecs in (packets or {}).items()}
    whole = ([query] if include_self else []) + sets
    counts = {name: len(whole) + len(packets.get(name, [])) for name in slices}
    if 0 in counts.values():
        raise ValueError("attention requires at least one candidate")
    if cfg.uniform:
        weights = {name: np.full(c, 1.0 / c) for name, c in counts.items()}
    else:
        scores, weights = score_keys(query, sets, slices, cfg, include_self, packets), {}
        for count in set(counts.values()):
            names = [name for name, c in counts.items() if c == count]
            s = np.array([scores[name] for name in names]) / cfg.temperature
            e = np.exp(s - s.max(axis=1, keepdims=True))
            weights.update(zip(names, e / e.sum(axis=1, keepdims=True)))
    acc = np.zeros(query.shape)
    for j, c in enumerate(whole):
        for name, s in slices.items():
            c[s] *= weights[name][j]
        acc += c
    for name, vecs in packets.items():
        for j, c in enumerate(vecs, len(whole)):
            c *= weights[name][j]
            acc[slices[name]] += c
    return acc, weights


def attend_layer(query: np.ndarray, candidates: Sequence[np.ndarray],
                 cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Softmax-weighted sum of candidate vectors, each scored against the
    query and serving as its own key and value, in the given (canonical)
    order: the one-layer case of key attention. Returns the float64 sum and
    the weights (for logging)."""
    q = np.asarray(query, dtype=np.float64)
    cands = [np.asarray(c, dtype=np.float64) for c in candidates]
    if any(c.shape != q.shape for c in cands):
        raise CongruenceError(f"candidate shapes {[c.shape for c in cands]} vs query {q.shape}")
    acc, weights = attend_keys(q, cands, {"": slice(0, q.size)}, cfg)
    return acc, weights[""]


def _attend_sets(own_keys: ParamSet, sets: Sequence[ParamSet], cfg: AttentionConfig,
                 include_self: bool, labels: dict[str, list[str]],
                 packets: dict[str, list[np.ndarray]] | None = None) -> tuple[ParamSet, WeightLog]:
    """attend_keys over congruent key sets, with the merged keys cast to
    float32 once, and each layer's weights logged under its candidates'
    labels, in layout order."""
    layout = own_keys.layout
    acc, weights = attend_keys(own_keys.buf, [ks.buf for ks in sets], layout.slices, cfg,
                               include_self, packets)
    return (ParamSet.from_buffer(layout, acc.astype(np.float32)),
            {name: (labels[name], weights[name]) for name in layout.names})


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
    ordered = sorted(child_keys, key=lambda c: c[0])
    labels = (["self"] if cfg.include_self else []) + [str(cid) for cid, _ in ordered]
    return _attend_sets(own_keys, [ck for _, ck in ordered], cfg, cfg.include_self,
                        {name: list(labels) for name in own_keys.layout.names})


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
    layout = own_keys.layout
    labels = {name: ["self", "parent"] for name in layout.names}
    packets: dict[str, list[np.ndarray]] = {}
    for pkt in sorted(residuals_for_agg, key=lambda p: (p.origin, p.created_round)):
        if pkt.layer not in labels:
            raise KeyError(f"residual packet targets unknown layer {pkt.layer!r}")
        size = math.prod(layout.shapes[pkt.layer])
        if np.shape(pkt.values) != (size,):
            raise CongruenceError(f"packet from node {pkt.origin} has shape "
                                  f"{np.shape(pkt.values)}, layer {pkt.layer!r} holds {size}")
        packets.setdefault(pkt.layer, []).append(pkt.values)
        labels[pkt.layer].append(str(pkt.origin))
    return _attend_sets(own_keys, [parent_keys], cfg, True, labels, packets)


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
