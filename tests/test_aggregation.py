import math

import numpy as np
import pytest

from treefed.aggregation import (
    AttentionConfig,
    ScheduleConfig,
    ServerConfig,
    aggregate_child_keys,
    attend_layer,
    average_pseudograds,
    lr_at,
    merge_with_parent,
    server_opt,
)
from treefed.residual import ResidualPacket
from treefed.tensors import CongruenceError

from oracles import param_set


def v(values):
    return np.array(values, dtype=np.float32)


def keyset(name_vals):
    return param_set(name_vals)


class TestAttendLayer:
    def test_identical_candidates_uniform_weights(self):
        q = v([1.0, 2.0])
        cands = [q] * 4
        out, w = attend_layer(q, cands, AttentionConfig())
        np.testing.assert_allclose(w, 0.25)
        np.testing.assert_allclose(out, q, rtol=1e-6)

    def test_hand_computed_two_candidate_softmax(self):
        # cosine sims 1 and 0 at tau=1: weights e/(e+1), 1/(e+1)
        q = v([1.0, 0.0])
        cands = [v([1.0, 0.0]), v([0.0, 1.0])]
        out, w = attend_layer(q, cands, AttentionConfig(temperature=1.0))
        e = math.e
        np.testing.assert_allclose(w, [e / (e + 1), 1 / (e + 1)], rtol=1e-12)
        np.testing.assert_allclose(out, [e / (e + 1), 1 / (e + 1)], rtol=1e-6)

    def test_high_temperature_approaches_uniform(self):
        q = v([1.0, 0.0])
        cands = [v([1.0, 0.0]), v([0.0, 1.0])]
        _, w = attend_layer(q, cands, AttentionConfig(temperature=1e9))
        np.testing.assert_allclose(w, 0.5, atol=1e-9)

    def test_low_temperature_concentrates_on_nearest(self):
        q = v([1.0, 0.0])
        cands = [v([1.0, 0.1]), v([0.0, 1.0])]
        _, w = attend_layer(q, cands, AttentionConfig(temperature=1e-3))
        assert w[0] > 1 - 1e-9

    def test_empty_candidates_error(self):
        with pytest.raises(ValueError):
            attend_layer(v([1.0]), [], AttentionConfig())

    def test_shape_mismatch_error(self):
        with pytest.raises(CongruenceError):
            attend_layer(v([1.0, 2.0]), [v([1.0])], AttentionConfig())

    def test_weights_sum_to_one_randomized(self):
        rng = np.random.default_rng(0)
        cfg = AttentionConfig(temperature=0.7)
        for _ in range(500):
            m = int(rng.integers(1, 6))
            q = v(rng.normal(size=8))
            cands = [v(rng.normal(size=8)) for _ in range(m)]
            _, w = attend_layer(q, cands, cfg)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert (w >= 0).all()

    def test_argmax_invariant_to_temperature(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = v(rng.normal(size=6))
            cands = [v(rng.normal(size=6)) for _ in range(4)]
            _, w1 = attend_layer(q, cands, AttentionConfig(temperature=1.0))
            _, w2 = attend_layer(q, cands, AttentionConfig(temperature=0.1))
            assert int(np.argmax(w1)) == int(np.argmax(w2))

    def test_uniform_mode_ignores_scores(self):
        rng = np.random.default_rng(2)
        q = v(rng.normal(size=4))
        cands = [v(rng.normal(size=4)) for _ in range(3)]
        _, w = attend_layer(q, cands, AttentionConfig(uniform=True))
        np.testing.assert_allclose(w, 1 / 3)


class TestAggregateChildKeys:
    def test_identical_children_idempotent(self):
        own = keyset([("a", [1.0, 2.0]), ("b", [3.0, 4.0])])
        out, _ = aggregate_child_keys(own, [(1, own), (2, own)],
                                      AttentionConfig())
        for tensor in out:
            np.testing.assert_allclose(tensor.data, own[tensor.name].data, rtol=1e-6)

    def test_exclude_self_equidistant_children_mean(self):
        own = keyset([("a", [1.0, 0.0])])
        c1 = keyset([("a", [0.0, 1.0])])
        c2 = keyset([("a", [0.0, -1.0])])
        cfg = AttentionConfig(include_self=False)
        out, w = aggregate_child_keys(own, [(1, c1), (2, c2)], cfg)
        np.testing.assert_allclose(w["a"][1], 0.5)
        np.testing.assert_allclose(out["a"].data, [0.0, 0.0], atol=1e-7)

    def test_matches_bruteforce_softmax_oracle(self):
        rng = np.random.default_rng(3)
        own = keyset([("a", rng.normal(size=6)), ("b", rng.normal(size=4))])
        children = [keyset([("a", rng.normal(size=6)), ("b", rng.normal(size=4))])
                    for _ in range(3)]
        tau = 0.7
        out, _ = aggregate_child_keys(own, list(enumerate(children, 1)),
                                      AttentionConfig(temperature=tau))
        for layer in ("a", "b"):
            q = own[layer].data.astype(np.float64)
            cands = [q] + [c[layer].data.astype(np.float64) for c in children]
            sims = []
            for k in cands:
                na, nb = np.linalg.norm(q), np.linalg.norm(k)
                sims.append(q @ k / (na * nb) / tau)
            e = np.exp(np.array(sims) - max(sims))
            w = e / e.sum()
            expect = sum(wi * ki for wi, ki in zip(w, cands))
            np.testing.assert_allclose(out[layer].data, expect, rtol=1e-6)


class TestMergeWithParent:
    def test_parent_identical_no_packets(self):
        own = keyset([("a", [1.0, 2.0])])
        out, _ = merge_with_parent(own, own, [], AttentionConfig())
        np.testing.assert_allclose(out["a"].data, own["a"].data, rtol=1e-6)

    def test_parent_orthogonal_two_candidate_softmax(self):
        own = keyset([("a", [1.0, 0.0])])
        parent = keyset([("a", [0.0, 1.0])])
        out, w = merge_with_parent(own, parent, [], AttentionConfig())
        e = math.e
        np.testing.assert_allclose(w["a"][1], [e / (e + 1), 1 / (e + 1)], rtol=1e-12)
        np.testing.assert_allclose(out["a"].data, [e / (e + 1), 1 / (e + 1)], rtol=1e-6)

    def test_packet_equal_to_own_outweighs_parent(self):
        own = keyset([("a", [1.0, 0.0])])
        parent = keyset([("a", [0.0, 1.0])])
        pkt = ResidualPacket(origin=5, layer="a", values=v([1.0, 0.0]),
                             created_round=0)
        _, w = merge_with_parent(own, parent, [pkt], AttentionConfig())
        _, weights = w["a"]
        own_direction = weights[0] + weights[2]  # self + identical packet
        assert own_direction >= 2 * weights[1]

    def test_unknown_layer_packet_errors(self):
        own = keyset([("a", [1.0])])
        pkt = ResidualPacket(origin=5, layer="zz", values=v([1.0]),
                             created_round=0)
        with pytest.raises(KeyError):
            merge_with_parent(own, own, [pkt], AttentionConfig())


class TestAveragePseudograds:
    def test_single_delta_identity(self):
        d = keyset([("a", [1.0, -1.0])])
        out = average_pseudograds([d])
        np.testing.assert_array_equal(out["a"].data, d["a"].data)

    def test_hand_mean(self):
        a = keyset([("a", [2.0])])
        b = keyset([("a", [4.0])])
        np.testing.assert_array_equal(average_pseudograds([a, b])["a"].data, [3.0])

    def test_matches_wide_precision_oracle(self):
        rng = np.random.default_rng(4)
        deltas = [keyset([("a", rng.normal(size=32))]) for _ in range(5)]
        out = average_pseudograds(deltas)
        oracle = np.mean([d["a"].data.astype(np.float64) for d in deltas], axis=0)
        np.testing.assert_allclose(out["a"].data, oracle, rtol=1e-7)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            average_pseudograds([])


class TestServerOpt:
    def test_fedavg_reduction(self):
        b = keyset([("a", [1.0, 2.0])])
        d = keyset([("a", [0.5, -0.5])])
        out, _ = server_opt(b, d, b.zeros_like(), ServerConfig(eta=1.0, mu=0.0))
        np.testing.assert_array_equal(out["a"].data, [1.5, 1.5])

    def test_momentum_hand_recurrence(self):
        # eta=0.2, mu=0.9, delta=[1] twice from m=0: steps +0.2 then +0.38
        b = keyset([("a", [0.0])])
        d = keyset([("a", [1.0])])
        cfg = ServerConfig(eta=0.2, mu=0.9)
        b1, m = server_opt(b, d, b.zeros_like(), cfg)
        assert b1["a"].data[0] == pytest.approx(0.2, rel=1e-6)
        b2, m = server_opt(b1, d, m, cfg)
        assert b2["a"].data[0] == pytest.approx(0.58, rel=1e-6)  # +0.38 (m=1.9)
        assert m["a"].data[0] == pytest.approx(1.9, rel=1e-6)

    def test_zero_delta_contracts_to_fixed_point(self):
        b = keyset([("a", [0.0])])
        d = keyset([("a", [1.0])])
        zero = keyset([("a", [0.0])])
        cfg = ServerConfig(eta=0.2, mu=0.9)
        b, m = server_opt(b, d, b.zeros_like(), cfg)  # prime the momentum
        prev = None
        for _ in range(200):
            b, m = server_opt(b, zero, m, cfg)
            cur = float(b["a"].data[0])
            if prev is not None:
                assert abs(cur - prev) <= 1.0  # geometric decay, no blowup
            prev = cur
        # fixed point: b + eta*m*mu^k -> b_inf = 0.2 + 0.2*1*0.9/(1-0.9) = 2.0
        assert prev == pytest.approx(0.2 + 0.2 * 0.9 / 0.1, rel=1e-3)


class TestLrSchedule:
    def test_endpoints(self):
        sched = ScheduleConfig(alpha=0.01, eta_max=8e-4, total_steps=3000)
        warmup = math.ceil(0.01 * 3000)
        assert lr_at(0, sched) == 0.0
        assert lr_at(warmup, sched) == pytest.approx(8e-4, rel=1e-12)
        assert lr_at(3000, sched) == pytest.approx(0.01 * 8e-4, rel=1e-12)
        assert lr_at(10_000, sched) == pytest.approx(0.01 * 8e-4, rel=1e-12)

    def test_midpoint_matches_hand_cosine(self):
        # (alpha, eta_max, T) = (1e-2, 8e-4, 3e3); step midway between warmup
        # end and T evaluated against the closed form
        sched = ScheduleConfig(alpha=1e-2, eta_max=8e-4, total_steps=3000)
        warmup = math.ceil(1e-2 * 3000)
        step = (warmup + 3000) // 2
        floor = 1e-2 * 8e-4
        progress = (step - warmup) / (3000 - warmup)
        expected = floor + (8e-4 - floor) * 0.5 * (1 + math.cos(math.pi * progress))
        assert lr_at(step, sched) == pytest.approx(expected, abs=1e-9)

    def test_monotone_warmup(self):
        sched = ScheduleConfig(alpha=0.1, eta_max=1e-2, total_steps=100)
        lrs = [lr_at(s, sched) for s in range(10)]
        assert all(a < b for a, b in zip(lrs, lrs[1:]))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, ScheduleConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScheduleConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ScheduleConfig(alpha=1.0)
        with pytest.raises(ValueError):
            ScheduleConfig(eta_max=-1.0)
        with pytest.raises(ValueError):
            AttentionConfig(temperature=0.0)
        with pytest.raises(ValueError):
            AttentionConfig(similarity="euclid")


class TestOrderInvariance:
    def test_permuted_candidates_close_and_canonical_exact(self):
        rng = np.random.default_rng(5)
        q = v(rng.normal(size=8))
        cands = [v(rng.normal(size=8)) for _ in range(4)]
        out1, _ = attend_layer(q, cands, AttentionConfig())
        out2, _ = attend_layer(q, cands[::-1], AttentionConfig())
        np.testing.assert_allclose(out1, out2, rtol=1e-6)
        # identical order gives bit-identical output
        out3, _ = attend_layer(q, cands, AttentionConfig())
        np.testing.assert_array_equal(out1, out3)
