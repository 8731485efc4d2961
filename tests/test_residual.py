import numpy as np
import pytest

from treefed.aggregation import AttentionConfig, similarity, vector_norm
from treefed.residual import ResidualPacket, partition_residuals, route_residuals, turn_node
from treefed.topology import FederationTree

from oracles import param_set

FIG2 = {0: [1, 2], 1: [3, 4], 2: [5, 6]}


def v(values):
    return np.array(values, dtype=np.float32)


def keys(vec, name="a"):
    return param_set({name: vec})


def tree():
    return FederationTree.from_children_map(FIG2)


class TestPartitionResiduals:
    def test_lowest_similarity_child_selected(self):
        own = keys([1.0, 0.0])
        children = [
            (3, keys([1.0, 0.1])),   # high similarity
            (4, keys([0.05, 1.0])),  # low similarity -> selected
            (5, keys([1.0, 0.3])),
        ]
        pkts = partition_residuals(own, children, nu=1, cfg=AttentionConfig(),
                                   round_k=2)
        assert len(pkts) == 1
        assert pkts[0].origin == 4
        assert pkts[0].layer == "a"
        assert pkts[0].created_round == 2

    def test_nu_zero_no_packets(self):
        own = keys([1.0, 0.0])
        children = [(3, keys([0.0, 1.0]))]
        assert partition_residuals(own, children, 0, AttentionConfig(), 0) == []

    def test_identical_children_suppressed_by_threshold(self):
        own = keys([1.0, 2.0])
        children = [(3, own), (4, own)]
        pkts = partition_residuals(own, children, nu=2, cfg=AttentionConfig(),
                                   round_k=0)
        assert pkts == []

    def test_infinite_threshold_emits_unconditionally(self):
        own = keys([1.0, 2.0])
        children = [(3, own), (4, own)]
        pkts = partition_residuals(own, children, nu=2, cfg=AttentionConfig(),
                                   round_k=0,
                                   threshold=float("inf"))
        assert len(pkts) == 2

    def test_tie_broken_by_lower_id(self):
        own = keys([1.0, 0.0])
        same = keys([0.0, 1.0])
        pkts = partition_residuals(own, [(9, same), (4, same)], nu=1,
                                   cfg=AttentionConfig(), round_k=0)
        assert pkts[0].origin == 4

    def test_negative_nu_errors(self):
        with pytest.raises(ValueError):
            partition_residuals(keys([1.0]), [(3, keys([1.0]))], -1,
                                AttentionConfig(), 0, {})

    def test_per_layer_selection(self):
        own = param_set({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        c3 = param_set({"a": [1.0, 0.0], "b": [1.0, 0.0]})
        c4 = param_set({"a": [0.0, 1.0], "b": [0.0, 1.0]})
        pkts = partition_residuals(own, [(3, c3), (4, c4)], nu=1,
                                   cfg=AttentionConfig(), round_k=0)
        chosen = {p.layer: p.origin for p in pkts}
        assert chosen == {"a": 4, "b": 3}


def pairs(children_vecs):
    """(child id, keys) pairs, as a router reads its children."""
    return [(cid, keys(vec)) for cid, vec in children_vecs.items()]


class TestRouteResiduals:
    def test_argmax_similarity_routing(self):
        # origin 7 lies outside both candidate subtrees
        tr = FederationTree.from_children_map({0: [1, 2, 7], 1: [3, 4], 2: [5, 6]})
        pkt = ResidualPacket(origin=7, layer="a", values=v([1.0, 0.0]),
                             created_round=0)
        out = route_residuals([pkt], pairs({1: [0.2, 1.0], 2: [1.0, 0.05]}),
                              AttentionConfig(), tr, round_k=1)
        assert out.landed == {1: [], 2: [pkt]}
        assert [e["action"] for e in out.events] == ["forward"]

    def test_origin_subtree_excluded(self):
        tr = tree()
        # packet from node 3 (inside child 1's subtree); child 1 has the best
        # similarity but must be skipped
        pkt = ResidualPacket(origin=3, layer="a", values=v([1.0, 0.0]),
                             created_round=0)
        out = route_residuals([pkt], pairs({1: [1.0, 0.0], 2: [0.3, 1.0]}),
                              AttentionConfig(), tr, round_k=1)
        assert out.landed[2] == [pkt]

    def test_leaf_target_lands_in_aggregation(self):
        tr = tree()
        # mid node 2 routes among its leaf children 5, 6
        pkt = ResidualPacket(origin=4, layer="a", values=v([0.9, 0.1]),
                             created_round=0)
        out = route_residuals([pkt], pairs({5: [1.0, 0.0], 6: [0.0, 1.0]}),
                              AttentionConfig(), tr, round_k=1, router=2)
        assert out.landed == {5: [pkt], 6: []}
        [event] = out.events
        assert (event["router"], event["action"], event["landed_at"]) == (2, "aggregate", 5)

    def test_no_eligible_child_drops(self):
        tr = FederationTree.from_children_map({0: [1], 1: [2, 3]})
        pkt = ResidualPacket(origin=2, layer="a", values=v([1.0, 0.0]),
                             created_round=0)
        out = route_residuals([pkt], pairs({1: [1.0, 0.0]}), AttentionConfig(), tr,
                              round_k=1)
        assert out.landed == {1: []}
        assert [e["action"] for e in out.events] == ["drop:origin-exclusion"]

    def test_unknown_layer_errors(self):
        tr = tree()
        pkt = ResidualPacket(origin=5, layer="zz", values=v([1.0, 0.0]),
                             created_round=0)
        with pytest.raises(KeyError):
            route_residuals([pkt], pairs({1: [1.0, 0.0], 2: [0.0, 1.0]}),
                            AttentionConfig(), tr, round_k=1)

    def test_randomized_against_bruteforce_router(self):
        # packets land at the argmax-similarity non-origin child in all cases
        rng = np.random.default_rng(7)
        tr = FederationTree.from_children_map({0: [1, 2, 3], 1: [4, 5], 2: [6], 3: [7]})
        cfg = AttentionConfig()
        for _ in range(1000):
            children = {cid: keys(rng.normal(size=6)) for cid in (1, 2, 3)}
            origin = int(rng.choice([4, 5, 6, 7]))
            pkt = ResidualPacket(origin=origin, layer="a",
                                 values=v(rng.normal(size=6)),
                                 created_round=0)
            out = route_residuals([pkt], list(children.items()), cfg, tr, round_k=1)
            # brute force: best cosine among children not containing origin
            best, best_sim = None, -np.inf
            for cid in (1, 2, 3):
                if tr.in_subtree(cid, origin):
                    continue
                q = pkt.values.astype(np.float64)
                k = children[cid]["a"].data.astype(np.float64)
                sim = similarity(float(np.dot(q, k)), vector_norm(q), vector_norm(k), cfg)
                if sim > best_sim:
                    best, best_sim = cid, sim
            assert [cid for cid in (1, 2, 3) if out.landed[cid]] == [best]

    def test_input_order_does_not_change_the_output(self):
        # a server's packets arrive from several selecting servers; the
        # router sorts them by (origin, layer, created round), unique per packet
        tr = FederationTree.from_children_map({0: [1, 2, 7], 1: [3, 4], 2: [5, 6]})
        pkts = [ResidualPacket(origin=o, layer="a", values=v(vec), created_round=0)
                for o, vec in ((7, [1.0, 0.0]), (3, [0.0, 1.0]), (5, [0.5, 0.5]))]
        children = pairs({1: [0.2, 1.0], 2: [1.0, 0.05], 7: [1.0, 1.0]})
        out = route_residuals(pkts, children, AttentionConfig(), tr, round_k=1)
        again = route_residuals(pkts[::-1], children, AttentionConfig(), tr, round_k=1)
        assert out.landed == again.landed and out.events == again.events
        assert [e["origin"] for e in out.events] == [3, 5, 7]


class TestSplitByCeiling:
    """Where a selected packet turns around, given its origin's ceiling."""

    def test_climbs_while_ceiling_above(self):
        tr = tree()
        tr.nodes[3].residual_ceiling = 0
        pkt = ResidualPacket(origin=3, layer="a", values=v([1.0]), created_round=0)
        assert turn_node(pkt, 1, tr) == 0  # selected at node 1, ceiling 0 above
        assert turn_node(pkt, 0, tr) == 0  # selected at the root

    def test_ceiling_at_mid_level(self):
        tr = tree()
        tr.nodes[3].residual_ceiling = 1
        pkt = ResidualPacket(origin=3, layer="a", values=v([1.0]), created_round=0)
        assert turn_node(pkt, 1, tr) == 1
