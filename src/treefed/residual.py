"""Cross-federation residual sharing.

A parent selects the child key layers that look least like its own
(post-aggregation) keys. Each such packet goes straight to the node where it
turns around: its origin's residual_ceiling, read from the tree, when that
is the parent or above it, else the parent. In the next round that node, and
each server below it, sends the packet to the child whose keys are most
similar, never back into the packet's own subtree; a packet with no such
child is dropped. Packets aggregate once they reach a leaf, diffusing into
that sub-federation at its next merge. Layers are scored as float64 slices
of key ranges, as in aggregation; packets keep read-only views of the
origin's key range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregation import AttentionConfig, score_keys, similarity, vector_norm
from .tensors import ParamSet
from .topology import FederationTree


@dataclass
class ResidualPacket:
    origin: int  # node whose key layer this is
    layer: str
    # the layer's values: a read-only 1-D view of the origin's keys
    values: np.ndarray = field(compare=False, repr=False)
    created_round: int


def partition_residuals(
    own_post_agg_keys: ParamSet,
    child_keys: list[tuple[int, ParamSet]],
    nu: int,
    cfg: AttentionConfig,
    round_k: int,
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
    slices, children = own_post_agg_keys.layout.slices, dict(child_keys)
    scores = score_keys(own_post_agg_keys.buf.astype(np.float64),
                        [ck.buf.astype(np.float64) for ck in children.values()], slices, cfg)
    packets = []
    for name, sims in scores.items():
        scored = sorted(zip(sims, children))
        packets += [ResidualPacket(origin=cid, layer=name, values=children[cid].buf[slices[name]],
                                   created_round=round_k)
                    for sim, cid in scored[:nu] if sim < threshold]
    return packets


def turn_node(pkt: ResidualPacket, selector: int, tree: FederationTree) -> int:
    """The node where a packet selected at `selector` turns around: its
    origin's residual_ceiling when that is `selector` or above it, else
    `selector`. A packet never climbs past its origin's ceiling."""
    ceiling = tree.nodes[pkt.origin].residual_ceiling
    return ceiling if tree.in_subtree(ceiling, selector) else selector


@dataclass
class RouteResult:
    landed: dict[int, list[ResidualPacket]]  # child -> packets it aggregates or routes on
    events: list[dict]  # log rows: hop decisions with similarities


def route_residuals(
    incoming: list[ResidualPacket],
    child_keys: list[tuple[int, ParamSet]],
    cfg: AttentionConfig,
    tree: FederationTree,
    round_k: int,
    router: int | None = None,
) -> RouteResult:
    """Send each packet to the child, of the (id, keys) pairs, whose layer is
    most similar to it (ties to the lower id), excluding the packet's own
    origin subtree. A leaf child aggregates the packet and an internal child
    forwards it; a packet with no eligible child is dropped. `router` only
    labels the emitted log events.
    """
    children = {cid: (ks.layout.slices, ks.buf.astype(np.float64))
                for cid, ks in sorted(child_keys, key=lambda c: c[0])}
    norms: dict[tuple[int, str], float] = {}  # (child, layer) -> norm, for named layers only
    result = RouteResult({cid: [] for cid in children}, [])
    for pkt in sorted(incoming, key=lambda p: (p.origin, p.layer, p.created_round)):
        q = np.asarray(pkt.values, dtype=np.float64)
        q_norm = vector_norm(q)
        origin_path = set(tree.path_to_root(pkt.origin))  # a child on it holds the origin
        best_id, best_sim = None, None
        for cid, (slices, vec) in children.items():
            if cid in origin_path:
                continue
            if pkt.layer not in slices:
                raise KeyError(f"packet layer {pkt.layer!r} unknown to child {cid}")
            k = vec[slices[pkt.layer]]
            if (cid, pkt.layer) not in norms:
                norms[cid, pkt.layer] = vector_norm(k)
            sim = similarity(float(np.dot(q, k)), q_norm, norms[cid, pkt.layer], cfg)
            if best_sim is None or sim > best_sim:
                best_id, best_sim = cid, sim
        if best_id is None:
            result.events.append(_event(round_k, router, pkt, "drop:origin-exclusion", None, None))
            continue
        result.landed[best_id].append(pkt)
        action = "aggregate" if tree.is_leaf(best_id) else "forward"
        result.events.append(_event(round_k, router, pkt, action, best_id, best_sim))
    return result


# the keys of a routing log row, in residuals.csv's column order
EVENT_FIELDS = ("round", "router", "origin", "layer", "created_round", "action", "landed_at",
                "similarity")


def _event(round_k, router, pkt, action, landed, sim):
    return dict(zip(EVENT_FIELDS, (round_k, router, pkt.origin, pkt.layer, pkt.created_round,
                                   action, landed, sim), strict=True))
