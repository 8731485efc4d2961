"""Cross-federation residual sharing.

A parent ships the child key layers that look least like its own
(post-aggregation) keys up toward the origin's permitted ceiling; servers on
the way down forward each packet to the child whose cached previous-round key
is most similar, never back into the packet's own subtree. Packets aggregate
once they reach a leaf, diffusing into that sub-federation at its next merge.
Layers are scored as float64 slices of key ranges, as in aggregation. Packets
and the cache keep views of the key ranges; the cache also keeps layer norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregation import AttentionConfig, key_layers, similarity, vector_norm
from .tensors import ParamSet
from .topology import FederationTree


@dataclass
class ResidualPacket:
    origin: int  # node whose key layer this is
    layer: str
    # the layer's values: a read-only 1-D view of the origin's keys
    values: np.ndarray = field(compare=False, repr=False)
    created_round: int
    ceiling: int  # highest ancestor id this packet may climb to


@dataclass
class KeyCache:
    """Children's keys from the previous round, for routing decisions:
    child id -> layer name -> (a view of the layer in the child's key range,
    the layer's norm)."""

    keys: dict[int, dict[str, tuple[np.ndarray, float]]] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.keys

    def update(self, child_keys: dict[int, ParamSet]) -> None:
        self.keys = {cid: {name: (ks.buf[ks.layout.slices[name]], vector_norm(v))
                           for name, v in key_layers(ks).items()}
                     for cid, ks in child_keys.items()}


def partition_residuals(
    own_post_agg_keys: ParamSet,
    child_keys: list[tuple[int, ParamSet]],
    nu: int,
    cfg: AttentionConfig,
    round_k: int,
    ceilings: dict[int, int],
    threshold: float = 0.999,
) -> list[ResidualPacket]:
    """Select, per layer, at most nu child layers with the lowest similarity
    to the node's own post-aggregation layer (ties to the lower child id).
    Layers at or above `threshold` similarity are never emitted, which keeps
    IID runs free of pure-duplicate traffic; threshold=inf disables the gate.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if nu == 0 or not child_keys:
        return []
    for _, ck in child_keys:
        own_post_agg_keys.require_congruent(ck)
    children = {cid: (ck, key_layers(ck)) for cid, ck in child_keys}
    packets = []
    for name, q in key_layers(own_post_agg_keys).items():
        q_norm = vector_norm(q)
        scored = sorted((similarity(q, q_norm, layers[name], vector_norm(layers[name]), cfg), cid)
                        for cid, (_, layers) in children.items())
        s = own_post_agg_keys.layout.slices[name]
        packets += [ResidualPacket(origin=cid, layer=name, values=children[cid][0].buf[s],
                                   created_round=round_k, ceiling=ceilings.get(cid, 0))
                    for sim, cid in scored[:nu] if sim < threshold]
    return packets


@dataclass
class RouteResult:
    for_aggregation: dict[int, list[ResidualPacket]]  # leaf child -> packets
    to_forward: dict[int, list[ResidualPacket]]  # internal child -> packets
    held: list[ResidualPacket]
    dropped: list[tuple[ResidualPacket, str]]
    events: list[dict]  # log rows: hop decisions with similarities


def route_residuals(
    incoming: list[ResidualPacket],
    cache: KeyCache,
    children: list[int],
    cfg: AttentionConfig,
    tree: FederationTree,
    round_k: int,
    max_age: int,
    router: int | None = None,
) -> RouteResult:
    """Send each packet to the most similar cached child (ties to the lower
    id), excluding the packet's own origin subtree. Leaf children aggregate;
    internal children forward. With an empty cache packets are held a round.
    `router` only labels the emitted log events.
    """
    result = RouteResult({c: [] for c in children}, {c: [] for c in children}, [], [], [])
    for pkt in sorted(incoming, key=lambda p: (p.origin, p.layer, p.created_round)):
        if round_k - pkt.created_round > max_age:
            result.dropped.append((pkt, "ttl"))
            result.events.append(_event(round_k, router, pkt, "drop:ttl", None, None))
            continue
        if cache.is_empty():
            result.held.append(pkt)
            result.events.append(_event(round_k, router, pkt, "held:empty-cache", None, None))
            continue
        q = np.asarray(pkt.values, dtype=np.float64)
        q_norm = vector_norm(q)
        best_id, best_sim = None, None
        for cid in sorted(children):
            if tree.in_subtree(cid, pkt.origin):
                continue
            cached = cache.keys.get(cid)
            if cached is None:
                continue
            if pkt.layer not in cached:
                raise KeyError(f"packet layer {pkt.layer!r} unknown to cached child {cid}")
            k, k_norm = cached[pkt.layer]
            sim = similarity(q, q_norm, k.astype(np.float64), k_norm, cfg)
            if best_sim is None or sim > best_sim:
                best_id, best_sim = cid, sim
        if best_id is None:
            result.dropped.append((pkt, "origin-exclusion"))
            result.events.append(_event(round_k, router, pkt, "drop:origin-exclusion", None, None))
            continue
        if tree.is_leaf(best_id):
            result.for_aggregation[best_id].append(pkt)
            result.events.append(_event(round_k, router, pkt, "aggregate", best_id, best_sim))
        else:
            result.to_forward[best_id].append(pkt)
            result.events.append(_event(round_k, router, pkt, "forward", best_id, best_sim))
    return result


def split_by_ceiling(
    packets: list[ResidualPacket], node_id: int, tree: FederationTree
) -> tuple[list[ResidualPacket], list[ResidualPacket]]:
    """(upstream, stay-here): a packet climbs while its ceiling is a strict
    ancestor of the current node; otherwise it turns around here."""
    upstream, local = [], []
    for pkt in packets:
        if pkt.ceiling != node_id and tree.is_ancestor(pkt.ceiling, node_id):
            upstream.append(pkt)
        else:
            local.append(pkt)
    return upstream, local


def _event(round_k, router, pkt, action, landed, sim):
    return {
        "round": round_k,
        "router": router,
        "origin": pkt.origin,
        "layer": pkt.layer,
        "created_round": pkt.created_round,
        "action": action,
        "landed_at": landed,
        "similarity": sim,
    }
