import dataclasses
import gc
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treefed.engine as engine_mod
import treefed.model as model_mod
from treefed.aggregation import AttentionConfig, ScheduleConfig
from treefed.cli import ExperimentPlan, execute, resolve_plan, write_outputs
from treefed.datagen import (
    ContextIndex,
    build_hierarchy_dataset,
    entropy_rate,
    make_clustered_sources,
)
from treefed.engine import (
    Call,
    EngineConfig,
    ResidualConfig,
    ServerConfig,
    Task,
    evaluate_round,
    fit,
    plan_calls,
    rng_for,
    run_centralized,
    run_flat_fl,
    run_local,
)
from treefed.model import ModelConfig, TrainerConfig, init_model, local_train
from treefed.presets import preset_config, resolve
from treefed.privacy import DpConfig, next_bound
from treefed.tensors import ParamSet
from treefed.topology import FederationTree

from oracles import param_set, trailing_best


def small_model(key_blocks=1):
    return ModelConfig(vocab_size=8, embed_dim=8, num_blocks=2, expansion_ratio=2,
                       key_block_count=key_blocks, context_len=2)


def small_trainer(steps=4, eta=0.01, total=200):
    return TrainerConfig(local_steps=steps, batch_size=8,
                         schedule=ScheduleConfig(alpha=0.1, eta_max=eta,
                                                 total_steps=total))


def depth1_tree(n_leaves=4, root_trains=False):
    tree = FederationTree.from_children_map({0: list(range(1, n_leaves + 1))})
    tree.nodes[0].trains_locally = root_trains
    return tree


def fig2_tree():
    return FederationTree.from_children_map({0: [1, 2], 1: [3, 4], 2: [5, 6]})


def shards_for(tree, seed=0, budget=1200, divergence=0.8, vocab=8):
    sources = make_clustered_sources(2, 2, divergence, vocab, seed=seed,
                                     concentration=0.2)
    by_id = {s.id: s for s in sources}
    ids = sorted(by_id)
    leaves = tree.leaves()
    leaf_budgets = {leaf: (ids[i % len(ids)], budget) for i, leaf in enumerate(leaves)}
    return build_hierarchy_dataset(tree, leaf_budgets, by_id, seed,
                                   val_tokens=128, test_tokens=128), by_id


def cfg_for(tree, shards, rounds=3, seed=0, key_blocks=1, eta=0.2, mu=0.9,
            trainer=None, dp=None):
    return EngineConfig(
        model=small_model(key_blocks),
        trainer=trainer or small_trainer(),
        attention=AttentionConfig(),
        server=ServerConfig(eta=eta, mu=mu),
        residual=ResidualConfig(nu=1),
        rounds=rounds,
        seed=seed,
        dp=dp,
    )


def reference_fedavg(leaf_ids, shards, cfg, rounds):
    """Independent flat FedAvg: plain dict arithmetic, delta formulation,
    float64 mean, float32 apply; same seed streams as the engine."""
    server = {t.name: t.data.copy() for t in init_model(cfg.model, cfg.seed)}
    names = list(server)
    for k in range(rounds):
        locals_ = []
        for nid in sorted(leaf_ids):
            [out] = local_train(
                [(param_set(server), shards[nid].train, rng_for(cfg.seed, nid, k, 2))],
                cfg.trainer, k * cfg.trainer.local_steps)
            locals_.append({t.name: t.data for t in out.params})
        for n in names:
            deltas = [np.float32(-1.0) * server[n] + loc[n] for loc in locals_]
            acc = deltas[0].astype(np.float64).copy()
            for d in deltas[1:]:
                acc += d.astype(np.float64)
            mean = (acc / len(deltas)).astype(np.float32)
            server[n] = np.float32(1.0) * mean + server[n]
    return server


class TestFedAvgOracle:
    def test_engine_bitwise_equals_reference(self):
        tree = depth1_tree(4, root_trains=False)
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=5, key_blocks=0, eta=1.0, mu=0.0)
        result = fit(tree, shards, cfg)
        reference = reference_fedavg(tree.leaves(), shards, cfg, rounds=5)
        final_root = result.final_models[0]
        for t in final_root:
            assert t.data.tobytes() == reference[t.name].tobytes(), t.name
        # with no key layers there is nothing to attend over or to route
        assert result.attention_log == [] and result.residual_log == []

    def test_flat_fl_matches_fit_on_depth1(self):
        tree = depth1_tree(4, root_trains=False)
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=4, key_blocks=0, eta=1.0, mu=0.0)
        via_fit = fit(tree, shards, cfg)
        via_flat = run_flat_fl(tree.leaves(), shards, cfg, rounds=4)
        for a, b in zip(via_fit.final_models[0], via_flat.final_models[1]):
            assert a.data.tobytes() == b.data.tobytes(), a.name

    def test_flat_fl_matches_fit_on_depth1_with_dp(self):
        # both runners sanitize DP clients' deltas through the same step, so
        # on a depth-1 tree they log the same rows and land on the same bytes
        tree = depth1_tree(4, root_trains=False)
        shards, _ = shards_for(tree)
        dp = DpConfig(sigma=0.5, initial_bound=1.0, enabled_nodes={1, 2})
        cfg = cfg_for(tree, shards, rounds=4, key_blocks=0, eta=1.0, mu=0.0, dp=dp)
        via_fit = fit(tree, shards, cfg)
        via_flat = run_flat_fl(tree.leaves(), shards, cfg, rounds=4)
        assert len(via_fit.dp_log) == 8
        assert via_fit.dp_log == via_flat.dp_log
        train_fit = [(r.node, r.round, r.loss) for r in via_fit.rows if r.split == "train"]
        train_flat = [(r.node, r.round, r.loss) for r in via_flat.rows if r.split == "train"]
        assert train_fit == train_flat
        for a, b in zip(via_fit.final_models[0], via_flat.final_models[1]):
            assert a.data.tobytes() == b.data.tobytes(), a.name


class TestKeylessModels:
    def test_a_keyless_leaf_enters_with_its_servers_model_object(self):
        tree = depth1_tree(2)
        shards, _ = shards_for(tree)
        run = engine_mod._Run.start(tree, shards, cfg_for(tree, shards, key_blocks=0))
        run.set_model(0, init_model(small_model(0), 5))  # every node starts on one object
        run.enter(0, 1)
        assert run.state[1].model is run.state[0].model
        assert run.result.attention_log == []

    def test_flat_fl_runs_no_key_step(self, monkeypatch):
        # a keyless model has no key layers to merge, attend over or route
        for name in ("merge_with_parent", "aggregate_child_keys", "partition_residuals"):
            monkeypatch.setattr(engine_mod, name, lambda *args, name=name: pytest.fail(name))
        tree = depth1_tree(4)
        shards, _ = shards_for(tree)
        result = run_flat_fl(tree.leaves(), shards, cfg_for(tree, shards), rounds=2)
        assert result.attention_log == [] and result.residual_log == []


class TestDpBound:
    def test_a_dp_servers_bound_sits_beside_its_momentum(self):
        # start gives each server with a DP client the initial bound; its
        # aggregate clips those clients at it and keeps the next round's
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        dp = DpConfig(sigma=0.5, initial_bound=0.7, enabled_nodes={3, 4, 5})
        run = engine_mod._Run.start(tree, shards, cfg_for(tree, shards, rounds=1, dp=dp))
        assert {nid: st.bound for nid, st in run.state.items() if st.bound} == {1: 0.7, 2: 0.7}
        run.train(0, 2, [3, 4, 5, 6])
        run.aggregate(0, 1)
        rows = run.result.dp_log
        assert [(r.node, r.bound) for r in rows] == [(3, 0.7), (4, 0.7)]
        assert run.state[1].bound == next_bound(0.7, [r.pre_clip_norm for r in rows]) != 0.7
        assert run.state[2].bound == 0.7


class TestFitBasics:
    def test_zero_rounds_returns_models_as_loaded(self):
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=0)
        result = fit(tree, shards, cfg)
        base = init_model(cfg.model, cfg.seed)
        for nid, model in result.final_models.items():
            for a, b in zip(model, base):
                assert a.data.tobytes() == b.data.tobytes()

    def test_stage_accounting_rows(self):
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=2)
        result = fit(tree, shards, cfg)
        test_rows = [r for r in result.rows if r.split == "test"]
        # 3 stages x 7 nodes per round
        for k in range(2):
            rows_k = [r for r in test_rows if r.round == k]
            assert len(rows_k) == 3 * 7
            assert {r.stage for r in rows_k} == {0, 1, 2}
        assert result.seq_steps == 2 * 3

    def test_invalid_tree_rejected(self):
        from treefed.topology import NodeSpec
        bad = FederationTree({0: NodeSpec(id=0, parent=None, children=[]),
                              1: NodeSpec(id=1, parent=None, children=[])})
        with pytest.raises(ValueError, match="invalid tree"):
            fit(bad, {}, cfg_for(bad, {}))

    def test_dp_client_outside_the_tree_rejected(self):
        # fit checks the tree and DP clients as resolve does, so a client
        # that is not in the tree is named, not a bare KeyError
        exp = resolve({**preset_config("dp-cc-wk"), "rounds": 1}, seed=1)
        exp.engine.dp = dataclasses.replace(exp.engine.dp, enabled_nodes={9})
        with pytest.raises(ValueError, match="node 9 is not in the tree"):
            fit(exp.tree, exp.shards, exp.engine)

    def test_backbone_broadcast_invariant(self, monkeypatch):
        # at entry to a child's stage, its backbone must equal the parent's
        # current (post-train) backbone bit for bit
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=2)
        part_backbones = {}
        seen = []
        orig = engine_mod.local_train

        def spy(jobs, trainer, global_step):
            outs = orig(jobs, trainer, global_step)
            for (params, _, _), out in zip(jobs, outs):
                seen.append({t.name: t.data.copy() for t in params})
                part_backbones[len(seen) - 1] = {t.name: t.data.copy() for t in out.params}
            return outs

        monkeypatch.setattr(engine_mod, "local_train", spy)
        monkeypatch.setattr(engine_mod, "lane_count", lambda: 1)  # every call in this process
        fit(tree, shards, cfg)
        # job order per round: node 0, then 1, 2, then 3..6; child 3's entry
        # params (seen[3]) must carry node 1's post-train backbone (seen[1]'s
        # output) on all backbone tensors
        from treefed.model import Partition
        part = Partition.for_config(cfg.model)
        child_entry = seen[3]
        parent_post = part_backbones[1]
        for name in part.backbone_layout.names:
            assert child_entry[name].tobytes() == parent_post[name].tobytes(), name

    def test_rerun_bit_identical(self):
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        a = fit(tree, shards, cfg_for(tree, shards, rounds=2))
        b = fit(tree, shards, cfg_for(tree, shards, rounds=2))
        assert a.rows == b.rows


class TestBaselines:
    def test_local_single_leaf_equals_plain_training(self):
        tree = depth1_tree(1)
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=3)
        res = run_local([1], shards, cfg, budget_steps=3)
        params = init_model(cfg.model, cfg.seed)
        for k in range(3):
            [out] = local_train([(params, shards[1].train, rng_for(cfg.seed, 1, k, 2))],
                                cfg.trainer, k * cfg.trainer.local_steps)
            params = out.params
        for a, b in zip(res.final_models[1], params):
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("runner, name", [(run_flat_fl, "flat FL"), (run_local, "local"),
                                              (run_centralized, "centralized")])
    def test_no_leaves_is_rejected_naming_the_method(self, runner, name):
        tree = depth1_tree(1)
        shards, _ = shards_for(tree)
        with pytest.raises(ValueError, match=f"{name}( baseline)? needs at least one leaf"):
            runner([], shards, cfg_for(tree, shards), 2)

    def test_flat_fl_deterministic(self):
        tree = depth1_tree(3)
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards)
        a = run_flat_fl(tree.leaves(), shards, cfg, rounds=3)
        b = run_flat_fl(tree.leaves(), shards, cfg, rounds=3)
        assert a.rows == b.rows

    def test_centralized_approaches_entropy_rate(self):
        # single source for every leaf; pooled training should reach the
        # analytic optimum within 5%
        tree = depth1_tree(2)
        sources = make_clustered_sources(1, 1, 0.0, 8, seed=3, concentration=0.2)
        by_id = {s.id: s for s in sources}
        leaf_budgets = {leaf: ("c0s0", 4000) for leaf in tree.leaves()}
        shards = build_hierarchy_dataset(tree, leaf_budgets, by_id, seed=3,
                                         val_tokens=256, test_tokens=2048)
        trainer = TrainerConfig(local_steps=100, batch_size=32,
                                schedule=ScheduleConfig(alpha=0.1, eta_max=0.02,
                                                        total_steps=2000))
        cfg = EngineConfig(model=small_model(), trainer=trainer, rounds=1, seed=3)
        res = run_centralized(tree.leaves(), shards, cfg, budget_steps=20)
        optimum = float(np.exp(entropy_rate(by_id["c0s0"])))
        final = res.final_leaf_ppl({1})[1]
        assert final <= optimum * 1.05
        assert final >= optimum * 0.9  # sanity: cannot beat the source noise floor

    def test_local_overfits_tiny_shard(self):
        # small training split but plenty of steps: validation perplexity
        # eventually turns upward
        tree = depth1_tree(1)
        sources = make_clustered_sources(1, 1, 0.0, 8, seed=5, concentration=0.2)
        by_id = {s.id: s for s in sources}
        shards = build_hierarchy_dataset(tree, {1: ("c0s0", 160)}, by_id, seed=5,
                                         val_tokens=512, test_tokens=512)
        trainer = TrainerConfig(local_steps=40, batch_size=16,
                                schedule=ScheduleConfig(alpha=0.5, eta_max=0.03,
                                                        total_steps=1600))
        cfg = EngineConfig(model=small_model(), trainer=trainer, rounds=1, seed=5)
        res = run_local([1], shards, cfg, budget_steps=40)
        val = [r.perplexity for r in res.rows if r.split == "val"]
        best_round = int(np.argmin(val))
        assert best_round < len(val) - 1
        assert val[-1] > val[best_round] * 1.02


class TestFlatSingleLeaf:
    def test_one_client_fedavg_equals_local_training(self):
        # server + (local - server) == local up to float32 rounding of the
        # pseudo-gradient round trip
        tree = depth1_tree(1)
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=3, eta=1.0, mu=0.0)
        flat = run_flat_fl([1], shards, cfg, rounds=3)
        params = init_model(cfg.model, cfg.seed)
        for k in range(3):
            [out] = local_train([(params, shards[1].train, rng_for(cfg.seed, 1, k, 2))],
                                cfg.trainer, k * cfg.trainer.local_steps)
            params = out.params
        for a, b in zip(flat.final_models[1], params):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-5, atol=1e-6)


class TestTrainLossDecreases:
    def test_trailing_window_average_decreases_on_learnable_source(self):
        tree = depth1_tree(1)
        shards, _ = shards_for(tree, budget=4000, divergence=0.0)
        trainer = TrainerConfig(local_steps=40, batch_size=32,
                                schedule=ScheduleConfig(alpha=0.1, eta_max=0.02,
                                                        total_steps=480))
        cfg = EngineConfig(model=small_model(), trainer=trainer, rounds=1, seed=0)
        res = run_local([1], shards, cfg, budget_steps=12)
        losses = [r.loss for r in res.rows if r.split == "train"]
        smoothed = [np.mean(losses[i : i + 3]) for i in range(len(losses) - 2)]
        assert smoothed[-1] < smoothed[0]
        assert all(b <= a + 0.05 for a, b in zip(smoothed, smoothed[1:]))


class TestResidualFlow:
    def test_packets_land_in_opposite_cluster_within_two_rounds(self):
        # fig2-like heterogeneous clusters: mid servers flag their dissimilar
        # child layers, the root must deliver them to the other sub-federation
        tree = fig2_tree()
        shards, _ = shards_for(tree, divergence=1.0)
        cfg = cfg_for(tree, shards, rounds=4)
        result = fit(tree, shards, cfg)
        landed = [e for e in result.residual_log if e["action"] == "aggregate"]
        assert landed, "expected at least one aggregated residual packet"
        for e in landed:
            assert e["landed_at"] in (3, 4, 5, 6)
            # never delivered back into the origin's own subtree
            assert not tree.in_subtree(
                1 if e["landed_at"] in (3, 4) else 2, e["origin"])
        # every hop happens in the round after emission; each event names
        # a router and lands the packet or drops it by origin exclusion
        for e in result.residual_log:
            assert e["round"] == e["created_round"] + 1
            assert e["action"] in ("aggregate", "forward", "drop:origin-exclusion")
            assert e["router"] in tree.nodes


class TestAttentionLog:
    def test_merge_candidates_are_that_layers_packets(self):
        # a merge row names what its own layer attended over: self, parent,
        # and the packets of that layer that landed at the node that round,
        # in (origin, created round) order
        _, result = execute(ExperimentPlan(method="worldlm", preset="fig2", rounds=2, seed=1))
        landed = {}
        for e in result.residual_log:
            if e["action"] == "aggregate":
                landed.setdefault((e["landed_at"], e["round"], e["layer"]), []).append(
                    (e["origin"], e["created_round"]))
        merged = {}
        for r in result.attention_log:
            if r.stage == "merge":
                merged.setdefault((r.node, r.round, r.layer), []).append(r.candidate)
        assert len(merged) == 48 and landed
        for group, candidates in merged.items():
            packets = sorted(landed.get(group, []))
            assert candidates == ["self", "parent"] + [str(o) for o, _ in packets], group


class TestResidualCeiling:
    def test_packets_never_climb_past_their_ceiling(self):
        # leaves 3 and 4 cap their residuals at mid node 1: the root must
        # never route packets originating from them
        tree = fig2_tree()
        tree.nodes[3].residual_ceiling = 1
        tree.nodes[4].residual_ceiling = 1
        shards, _ = shards_for(tree, divergence=1.0)
        cfg = cfg_for(tree, shards, rounds=4)
        result = fit(tree, shards, cfg)
        for e in result.residual_log:
            if e["origin"] in (3, 4):
                assert e["router"] != 0, e
        # their packets can still be delivered inside their own federation
        landed = [e for e in result.residual_log
                  if e["action"] == "aggregate" and e["origin"] in (3, 4)]
        for e in landed:
            assert e["landed_at"] in (3, 4)

    def test_packets_go_straight_to_the_node_where_they_turn(self):
        # ceilings at the leaf itself, at its mid node and at the root: a
        # packet is first routed, in the round after it is made, by its
        # ceiling when that is its selecting server or above, else by the
        # selecting server (the origin's parent)
        tree = fig2_tree()
        for leaf, ceiling in ((3, 3), (4, 1), (5, 0), (6, 2)):
            tree.nodes[leaf].residual_ceiling = ceiling
        shards, _ = shards_for(tree, divergence=1.0)
        cfg = cfg_for(tree, shards, rounds=4)
        cfg.residual = ResidualConfig(nu=2)
        result = fit(tree, shards, cfg)
        first = {}
        for e in result.residual_log:
            first.setdefault((e["origin"], e["layer"], e["created_round"]), e)
        assert {origin for origin, _, _ in first} >= {1, 2, 3, 4, 5, 6}
        for (origin, _, created), e in first.items():
            selector = tree.nodes[origin].parent
            ceiling = tree.nodes[origin].residual_ceiling
            turn = ceiling if tree.in_subtree(ceiling, selector) else selector
            assert (e["router"], e["round"]) == (turn, created + 1), e


class TestEvaluateRound:
    def test_row_count(self):
        tree = depth1_tree(3)
        shards, _ = shards_for(tree)
        params = {nid: init_model(small_model(), 0) for nid in tree.leaves()}
        rows = evaluate_round("m", params, shards, 0, 0)
        assert [(r.node, r.split) for r in rows] == [
            (nid, split) for nid in sorted(params) for split in ("val", "test")]

    def test_identical_models_zero_std(self):
        sources = make_clustered_sources(1, 1, 0.0, 8, seed=7, concentration=0.2)
        by_id = {s.id: s for s in sources}
        # same mixture and same rng stream tag: build identical shards per leaf
        from treefed.datagen import sample_shard
        shard = sample_shard([("c0s0", 400)], by_id, seed=7, node_id=1,
                             train_tokens=400, val_tokens=64, test_tokens=64)
        shards = {1: shard, 2: shard}
        params = {1: init_model(small_model(), 0), 2: init_model(small_model(), 0)}
        rows = evaluate_round("m", params, shards, 0, 0)
        assert [(r.node, r.split) for r in rows] == [(1, "val"), (1, "test"),
                                                     (2, "val"), (2, "test")]
        assert [r.perplexity for r in rows[:2]] == [r.perplexity for r in rows[2:]]


class TestTrailingBest:
    def test_window_minimum(self):
        assert trailing_best([5, 4, 6, 7, 3], width=3) == [5, 4, 4, 4, 3]

    def test_non_increasing_on_convergent_series(self):
        series = [30, 25, 22, 20, 19, 18.5, 18.4, 18.4, 18.3]
        tb = trailing_best(series)
        assert all(b <= a for a, b in zip(tb, tb[1:]))


class TestStacking:
    # these pin one lane's groups (a process pinned to one CPU), and their
    # spy sees only the calls made in this process; TestPlanCalls covers the
    # groups and lanes of more lanes
    def spy_sizes(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "lane_count", lambda: 1)
        calls = []
        orig = engine_mod.local_train

        def spy(jobs, trainer, global_step):
            calls.append((len(jobs), trainer.local_steps, global_step))
            return orig(jobs, trainer, global_step)

        monkeypatch.setattr(engine_mod, "local_train", spy)
        return calls

    def test_every_runner_stacks_its_same_shape_nodes(self, monkeypatch):
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=2)
        calls = self.spy_sizes(monkeypatch)
        fit(tree, shards, cfg)
        assert [size for size, _, _ in calls] == [1, 2, 4] * 2
        for runner in (run_flat_fl, run_local):
            calls.clear()
            runner(tree.leaves(), shards, cfg, 2)
            assert [size for size, _, _ in calls] == [4, 4]

    def test_node_trainer_sets_its_own_global_step(self, monkeypatch):
        # a node with its own trainer trains in a group of its own, at its
        # own schedule position: sequential steps x its own local_steps
        tree = depth1_tree(4)
        tree.nodes[1].trainer = small_trainer(steps=2)
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=3)
        calls = self.spy_sizes(monkeypatch)
        fit(tree, shards, cfg)
        assert calls == [(1, 2, 0), (3, 4, 0), (1, 2, 2), (3, 4, 4), (1, 2, 4), (3, 4, 8)]

    @pytest.mark.parametrize("method", ["worldlm", "flat_fl", "local", "centralized"])
    def test_groups_of_one_write_identical_outputs(self, monkeypatch, tmp_path, method):
        # the equally strict arm for batching: with the stack budget at zero
        # every node trains in its own local_train call, and every output
        # file must keep its bytes
        plan = ExperimentPlan(method=method, preset="fig2", rounds=2, seed=1)
        exp = resolve_plan(plan)
        files = ("metrics.csv", "attention.csv", "residuals.csv", "dp.csv")

        def outputs(tag):
            _, result = execute(plan, exp=exp)
            write_outputs(tmp_path / tag, exp, plan, result, elapsed=0.0)
            return {name: (tmp_path / tag / name).read_bytes() for name in files}

        calls = self.spy_sizes(monkeypatch)
        stacked = outputs("stacked")
        assert method == "centralized" or max(size for size, _, _ in calls) == 4
        monkeypatch.setattr(model_mod, "STACK_BYTES", 0)
        calls.clear()
        assert outputs("alone") == stacked
        assert {size for size, _, _ in calls} == {1}


def reference_groups(trainees, width):
    """One lane's grouping as a plain loop: each trainer's nodes, at most
    width a call."""
    groups = []
    while trainees:
        trainer = trainees[0][1]
        group = [nid for nid, t in trainees if t == trainer][:width]
        groups.append((trainer, group))
        trainees = [(nid, t) for nid, t in trainees if nid not in group]
    return groups


class TestPlanCalls:
    T = small_trainer(steps=4)

    def plan(self, nodes, width, lanes):
        return [(c.lane, c.nodes) for c in plan_calls([(nid, self.T) for nid in nodes],
                                                      width, lanes)]

    def test_fig2_stages(self):
        # fig2's model stacks 13 nodes; two lanes split each stage of more
        # than one node in half
        stages = [[0], [1, 2], [3, 4, 5, 6]]
        assert [self.plan(level, 13, 1) for level in stages] == [
            [(0, [0])], [(0, [1, 2])], [(0, [3, 4, 5, 6])]]
        assert [self.plan(level, 13, 2) for level in stages] == [
            [(0, [0])], [(0, [1]), (1, [2])], [(0, [3, 4]), (1, [5, 6])]]

    def test_flat_fl_leaves(self):
        assert self.plan([3, 4, 5, 6], 13, 1) == [(0, [3, 4, 5, 6])]
        assert self.plan([3, 4, 5, 6], 13, 2) == [(0, [3, 4]), (1, [5, 6])]

    def test_wide_dp_leaves(self):
        # wide-dp's model stacks 2 nodes, so its 16 leaves take 8 calls:
        # all on one lane, or 4 on each of two
        leaves = list(range(5, 21))
        pairs = [leaves[i : i + 2] for i in range(0, 16, 2)]
        assert self.plan(leaves, 2, 1) == [(0, pair) for pair in pairs]
        assert self.plan(leaves, 2, 2) == [(i % 2, pair) for i, pair in enumerate(pairs)]

    def test_a_node_trainer_weighs_by_its_own_steps(self):
        # node 1's 2 steps load lane 0 with 2 node-steps; node 2 and 3 then
        # go to lane 1 (8 node-steps), and node 4 back to lane 0
        own = small_trainer(steps=2)
        trainees = [(1, own), (2, self.T), (3, self.T), (4, self.T)]
        assert plan_calls(trainees, 13, 1) == [Call(0, own, [1]), Call(0, self.T, [2, 3, 4])]
        assert plan_calls(trainees, 13, 2) == [Call(0, own, [1]), Call(1, self.T, [2, 3]),
                                               Call(0, self.T, [4])]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 6), lanes=st.integers(1, 5))
    def test_every_trainee_in_one_call_of_one_trainer(self, data, width, lanes):
        # trainer 0 and trainer 3 are equal but distinct objects, so they
        # share calls
        pool = [small_trainer(steps=s) for s in (4, 1, 3)] + [small_trainer(steps=4)]
        nodes = data.draw(st.lists(st.integers(0, 99), unique=True, max_size=20))
        trainees = [(nid, data.draw(st.sampled_from(pool))) for nid in nodes]
        calls = plan_calls(trainees, width, lanes)
        assert calls == plan_calls(trainees, width, lanes)
        assert sorted(nid for c in calls for nid in c.nodes) == sorted(nodes)
        trainer_of = dict(trainees)
        for c in calls:
            assert 0 <= c.lane < lanes and 1 <= len(c.nodes) <= width
            assert all(trainer_of[nid] == c.trainer for nid in c.nodes)
        one_lane = plan_calls(trainees, width, 1)
        assert sorted((c.nodes, c.lane) for c in one_lane) == sorted(
            (group, 0) for _, group in reference_groups(trainees, width))


def record_helpers(monkeypatch, lanes):
    """Train every stage, however small, on `lanes` lanes; returns the list
    of every helper's pid."""
    monkeypatch.setattr(engine_mod, "lane_count", lambda: lanes)
    monkeypatch.setattr(engine_mod, "SPLIT_WORK", 0)
    pids = []

    class Recorded(engine_mod._Helper):
        def __init__(self, *args):
            super().__init__(*args)
            pids.append(self.pid)

    monkeypatch.setattr(engine_mod, "_Helper", Recorded)
    return pids


def record_messages(monkeypatch):
    """Every message this process sends a helper, as (each task's kind,
    "train" or "score", the nodes of its tasks): a task carries the models
    of its nodes and no other."""
    sent, parent = [], os.getpid()
    orig = engine_mod._send

    def spy(fd, message):
        # a helper's answers go through its own copy of the spy
        if os.getpid() == parent:
            sent.append((tuple("train" if task.job else "score" for task in message),
                         [nid for task in message for nid in task.models]))
        return orig(fd, message)

    monkeypatch.setattr(engine_mod, "_send", spy)
    return sent


def messages_by_stage(monkeypatch):
    """Every message this process sends a helper, by the (round, stage) of
    the train call that starts the stage it is sent in."""
    sent, stages = record_messages(monkeypatch), {}
    orig = engine_mod._Run.train

    def train(run, round_k, stage, *args, **kwargs):
        stages[round_k, stage] = len(sent)
        return orig(run, round_k, stage, *args, **kwargs)

    monkeypatch.setattr(engine_mod._Run, "train", train)

    def by_stage():
        starts = [*stages.values(), len(sent)]
        return {key: sent[lo:hi] for key, lo, hi in zip(stages, starts, starts[1:])}

    return by_stage


def count_mean_nll(monkeypatch):
    """The list that gets one entry per mean_nll call in this process."""
    calls = []
    orig = engine_mod.mean_nll
    monkeypatch.setattr(engine_mod, "mean_nll", lambda params, tokens, **kwargs:
                        calls.append(1) or orig(params, tokens, **kwargs))
    return calls


@st.composite
def wire_arrays(draw):
    """A float32, float64 or int64 array, perhaps empty, transposed or
    read-only; a one-dimensional one holds 64 to 256 KiB, as much as a pipe
    or more."""
    shape = draw(st.one_of(st.lists(st.integers(0, 6), max_size=3),
                           st.tuples(st.integers(16_384, 32_768))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int64]))
    a = np.array(rng.standard_normal(shape) * 1e3, dtype)
    a = a.T if draw(st.booleans()) else a
    a.flags.writeable = draw(st.booleans())
    return a


@st.composite
def wire_param_sets(draw):
    """A ParamSet of one to three float32 entries, perhaps empty, whose
    layout may be one that another drawn set has too."""
    shapes = draw(st.lists(st.lists(st.integers(0, 4), max_size=2), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return param_set({f"w{i}": rng.standard_normal(shape) for i, shape in enumerate(shapes)})


WIRE_OBJECTS = st.recursive(
    st.one_of(wire_arrays(),
              st.builds(ValueError, st.text(max_size=8)),
              st.builds(Task, st.dictionaries(st.integers(0, 20), wire_param_sets(), max_size=3),
                        st.none() | st.just((small_trainer(), 8, 2)), st.booleans())),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.integers(0, 20), inner, max_size=3)),
    max_leaves=8)


def assert_same_object(got, sent):
    """`got` is `sent` rebuilt: the same nest, with every array equal in
    values, dtype, shape and read-only flag, every ParamSet of the interned
    layout with a read-only buffer of the same bytes, every exception of the
    same type and arguments, and every other leaf equal."""
    assert type(got) is type(sent)
    if isinstance(sent, np.ndarray):
        assert (got.dtype, got.shape, got.flags.writeable) == (
            sent.dtype, sent.shape, sent.flags.writeable)
        assert np.array_equal(got, sent)
    elif isinstance(sent, ParamSet):
        assert got.layout is sent.layout
        assert not got.buf.flags.writeable
        assert got.buf.tobytes() == sent.buf.tobytes()
    elif isinstance(sent, Exception):
        assert got.args == sent.args
    elif isinstance(sent, (list, tuple)):
        assert len(got) == len(sent)
        for g, s in zip(got, sent):
            assert_same_object(g, s)
    elif isinstance(sent, dict):
        assert list(got) == list(sent)
        for key in sent:
            assert_same_object(got[key], sent[key])
    else:
        assert got == sent


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestLanes:
    RUNNERS = {"worldlm": lambda tree, shards, cfg: fit(tree, shards, cfg),
               "flat_fl": lambda tree, shards, cfg: run_flat_fl(tree.leaves(), shards, cfg, 3),
               "local": lambda tree, shards, cfg: run_local(tree.leaves(), shards, cfg, 3),
               "centralized": lambda tree, shards, cfg: run_centralized(tree.leaves(), shards,
                                                                         cfg, 3)}

    @pytest.mark.parametrize("method", list(RUNNERS))
    def test_every_output_is_the_same_on_any_number_of_lanes(self, monkeypatch, method):
        # 2 lanes give a helper calls of two leaves, and 4 lanes give fig2's
        # leaves a call each, 3 of them in helpers; each helper is reaped
        # when its run returns. A run with helpers scores on them too, so
        # this process scores less than at one lane
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        cfg = cfg_for(tree, shards, rounds=2, dp=DpConfig(sigma=0.5, initial_bound=0.7,
                                                          enabled_nodes={3, 5}))
        results, scored_here = {}, {}
        for lanes in (1, 2, 4):
            pids = record_helpers(monkeypatch, lanes)
            scored = count_mean_nll(monkeypatch)
            results[lanes] = self.RUNNERS[method](tree, shards, cfg)
            scored_here[lanes] = len(scored)
            assert len(pids) == (0 if method == "centralized" else lanes - 1)
            assert_reaped(pids)
        if method == "centralized":
            assert scored_here[2] == scored_here[4] == scored_here[1]
        else:
            assert scored_here[4] < scored_here[2] < scored_here[1]
        for r in results.values():
            assert (r.rows, r.attention_log, r.residual_log, r.dp_log, r.seq_steps) == (
                results[1].rows, results[1].attention_log, results[1].residual_log,
                results[1].dp_log, results[1].seq_steps)
            assert {nid: m.buf.tobytes() for nid, m in r.final_models.items()} == {
                nid: m.buf.tobytes() for nid, m in results[1].final_models.items()}

    def test_a_helpers_error_is_raised_in_call_order(self, monkeypatch):
        # leaf 1 trains on lane 0 and leaf 2 in the helper; the earliest
        # failing call in call order raises, after both lanes are done, and
        # the helper is reaped when fit raises
        tree = depth1_tree(2)
        good, _ = shards_for(tree)
        out_of_range = dataclasses.replace(good[2], train=np.full(50, 99))
        too_short = dataclasses.replace(good[1], train=np.zeros(2, np.int64))
        cfg = cfg_for(tree, good)
        for lanes in (1, 2):
            pids = record_helpers(monkeypatch, lanes)
            with pytest.raises(ValueError, match="^token id out of range$"):
                fit(tree, {**good, 2: out_of_range}, cfg)
            with pytest.raises(ValueError, match="shorter than one context window"):
                fit(tree, {**good, 1: too_short, 2: out_of_range}, cfg)
            assert len(pids) == 2 * (lanes - 1)
            assert_reaped(pids)

    def test_a_node_trained_on_a_helper_is_scored_there(self, monkeypatch):
        # fig2's mid stage trains [1] here and [2] on the helper, and its
        # leaf stage [3, 4] here and [5, 6] there. The call's task scores
        # the models it trained, so such a stage sends the helper one
        # message, the call with its nodes' models, and no trained model
        # crosses back for scoring
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        pids = record_helpers(monkeypatch, 2)
        by_stage = messages_by_stage(monkeypatch)
        fit(tree, shards, cfg_for(tree, shards, rounds=2))
        assert len(pids) == 1
        assert_reaped(pids)
        for round_k in range(2):
            for stage, nodes in ((1, [2]), (2, [5, 6])):
                assert by_stage()[round_k, stage] == [(("train",), nodes)]

    def test_a_scoring_error_on_a_helper_is_raised_as_at_one_lane(self, monkeypatch):
        # leaf 1 trains and is scored on lane 0, leaf 2 on the helper in
        # the same task; an evaluation split that fails raises the error of
        # one lane, and of the first failing node when both fail, and the
        # helper is reaped
        tree = depth1_tree(2)
        good, _ = shards_for(tree)
        cfg = cfg_for(tree, good)
        out_of_range = {nid: dataclasses.replace(good[nid], val=np.full(50, 99)) for nid in good}
        too_short = {nid: dataclasses.replace(good[nid], test=np.zeros(2, np.int64))
                     for nid in good}
        for lanes in (1, 2):
            pids = record_helpers(monkeypatch, lanes)
            sent = record_messages(monkeypatch)
            with pytest.raises(ValueError, match="^token id out of range$"):
                run_local(tree.leaves(), {**good, 2: out_of_range[2]}, cfg, 2)
            assert sent == ([(("train",), [2])] if lanes == 2 else [])
            with pytest.raises(ValueError, match="^empty or too-short evaluation shard$"):
                run_local(tree.leaves(), {1: too_short[1], 2: out_of_range[2]}, cfg, 2)
            with pytest.raises(ValueError, match="^token id out of range$"):
                run_local(tree.leaves(), {1: out_of_range[1], 2: too_short[2]}, cfg, 2)
            assert len(pids) == 3 * (lanes - 1)
            assert_reaped(pids)

    def test_an_earlier_calls_scoring_error_raises_before_a_later_calls_training(
            self, monkeypatch):
        # leaf 2's own trainer gives it a call of its own, after leaf 1's;
        # leaf 1 trains and fails to score, leaf 2 fails to train. A call's
        # scoring is part of its task, so the first failing task raises its
        # scoring error, on one lane or two
        tree = depth1_tree(2)
        tree.nodes[2].trainer = small_trainer(steps=2)
        good, _ = shards_for(tree)
        shards = {1: dataclasses.replace(good[1], test=np.zeros(2, np.int64)),
                  2: dataclasses.replace(good[2], train=np.zeros(2, np.int64))}
        for lanes in (1, 2):
            pids = record_helpers(monkeypatch, lanes)
            with engine_mod._Run.start(tree, shards, cfg_for(tree, good)) as run:
                with pytest.raises(ValueError, match="^empty or too-short evaluation shard$"):
                    run.train(0, 1, [1, 2])
            assert len(pids) == lanes - 1
            assert_reaped(pids)

    def test_a_stage_trained_on_two_lanes_is_one_round_trip(self, monkeypatch):
        # after round 0, a fig2 round sends the helper the scoring of mid 2
        # (the root trains and is scored here), then the mid and the leaf
        # stages' calls, which score what they trained: 3 messages a round
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        record_helpers(monkeypatch, 2)
        by_stage = messages_by_stage(monkeypatch)
        fit(tree, shards, cfg_for(tree, shards, rounds=2))
        assert [message for stage in range(3) for message in by_stage()[1, stage]] == [
            (("score",), [2]), (("train",), [2]), (("train",), [5, 6])]

    def test_a_run_of_stages_under_split_work_scores_in_this_process(self, monkeypatch):
        split_work = engine_mod.SPLIT_WORK
        pids = record_helpers(monkeypatch, 2)
        monkeypatch.setattr(engine_mod, "SPLIT_WORK", split_work)
        sent, scored = record_messages(monkeypatch), count_mean_nll(monkeypatch)
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        result = fit(tree, shards, cfg_for(tree, shards, rounds=2))
        assert pids == sent == []
        assert (result.lanes, result.helper_cpu_s) == (1, 0.0)
        assert len(scored) == 2 * (13 + 9)  # TestEvaluationMemo's count

    def test_a_run_reports_its_lanes_and_its_helpers_cpu(self, monkeypatch, tmp_path):
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        for lanes in (1, 2, 4):
            record_helpers(monkeypatch, lanes)
            result = fit(tree, shards, cfg_for(tree, shards, rounds=2))
            assert result.lanes == lanes
            assert (result.helper_cpu_s > 0) == (lanes > 1)
        plan = ExperimentPlan(method="worldlm", preset="fig2", rounds=1, seed=1)
        write_outputs(tmp_path, resolve_plan(plan), plan, result, elapsed=1.5)
        header, row = (tmp_path / "timings.csv").read_text().splitlines()
        assert header == "experiment_id,seconds,lanes,helper_cpu_s"
        assert row.split(",")[1:] == ["1.500", "4", f"{result.helper_cpu_s:.3f}"]

    @settings(max_examples=40, deadline=None)
    @given(WIRE_OBJECTS)
    def test_the_wire_round_trips_any_object(self, obj):
        # a writer thread sends what may outgrow the pipe while this one
        # reads it back: every array with its values, dtype, shape and
        # read-only flag, every model with its layout, every exception and
        # every task
        inbox, outbox = os.pipe()
        writer = threading.Thread(target=engine_mod._send, args=(outbox, obj))
        writer.start()
        try:
            got = engine_mod._receive(inbox)
        finally:
            os.close(inbox)
            writer.join(timeout=10)
            os.close(outbox)
        assert not writer.is_alive()
        assert_same_object(got, obj)

    def test_a_dead_helper_is_named_with_its_exit_status(self, monkeypatch, capfd):
        # an interrupted helper exits 1 and prints nothing
        pids = record_helpers(monkeypatch, 2)
        tree = depth1_tree(2)
        shards, _ = shards_for(tree)
        with engine_mod._Run.start(tree, shards, cfg_for(tree, shards)) as run:
            run.train(0, 1, [1, 2])
            os.kill(pids[0], signal.SIGINT)
            os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
            with pytest.raises(RuntimeError, match=f"helper {pids[0]} exited with status 1$"):
                run.train(1, 1, [1, 2])
        assert_reaped(pids)
        assert capfd.readouterr().err == ""

    def test_a_failed_fork_closes_its_pipes(self, monkeypatch):
        # a fork refused at a process limit (EAGAIN) raises as it was raised,
        # and leaves none of the helper's four pipe ends open
        piped, orig = [], os.pipe
        error = BlockingIOError(11, "Resource temporarily unavailable")

        def pipe():
            piped.extend(orig())
            return piped[-2], piped[-1]

        def fork():
            raise error

        monkeypatch.setattr(engine_mod.os, "pipe", pipe)
        monkeypatch.setattr(engine_mod.os, "fork", fork)
        tree = depth1_tree(2)
        shards, _ = shards_for(tree)
        with pytest.raises(BlockingIOError) as raised:
            engine_mod._Helper(shards, 0)
        assert raised.value is error
        assert len(piped) == 4
        for fd in piped:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_a_failed_pipe_closes_the_pipe_before_it(self, monkeypatch):
        # a second pipe refused at the file limit (EMFILE) raises as it was
        # raised, and leaves neither end of the first pipe open
        piped, orig = [], os.pipe
        error = OSError(24, "Too many open files")

        def pipe():
            if piped:
                raise error
            piped.extend(orig())
            return piped[0], piped[1]

        monkeypatch.setattr(engine_mod.os, "pipe", pipe)
        tree = depth1_tree(2)
        shards, _ = shards_for(tree)
        with pytest.raises(OSError) as raised:
            engine_mod._Helper(shards, 0)
        assert raised.value is error
        assert len(piped) == 2
        for fd in piped:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_a_stage_smaller_than_split_work_trains_on_one_lane(self, monkeypatch):
        # two leaves of 4 steps on an 832-parameter model: 6,656 parameter-steps
        pids = record_helpers(monkeypatch, 2)
        tree = depth1_tree(2)
        shards, _ = shards_for(tree)
        for split_work, helpers in ((6657, 0), (6656, 1)):
            monkeypatch.setattr(engine_mod, "SPLIT_WORK", split_work)
            with engine_mod._Run.start(tree, shards, cfg_for(tree, shards)) as run:
                run.train(0, 1, [1, 2])
                assert len(run.helpers) == helpers
        assert_reaped(pids)

    def test_a_run_left_open_is_reaped_when_collected(self, monkeypatch):
        pids = record_helpers(monkeypatch, 2)
        tree = depth1_tree(2)
        shards, _ = shards_for(tree)
        run = engine_mod._Run.start(tree, shards, cfg_for(tree, shards))
        run.train(0, 1, [1, 2])
        assert len(pids) == 1
        del run
        gc.collect()
        assert_reaped(pids)

    def test_one_lane_while_another_thread_runs(self):
        assert engine_mod.lane_count() == len(os.sched_getaffinity(0))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert engine_mod.lane_count() == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to compare")
    def test_the_cli_writes_the_same_bytes_pinned_to_one_cpu(self, tmp_path):
        # one process pinned to one CPU trains on one lane; an unpinned one
        # on every CPU, and every deterministic output of every method on
        # both presets keeps its bytes
        src = str(Path(engine_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cpu = min(os.sched_getaffinity(0))
        pinned = dict(preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        lanes = subprocess.run([sys.executable, "-c", "from treefed.engine import lane_count; "
                                "print(lane_count())"], env=env, capture_output=True, text=True,
                               check=True, **pinned)
        assert lanes.stdout == "1\n"
        for preset in ("fig2", "dp-cc-wk"):
            files = {}
            for tag, kwargs in (("pinned", pinned), ("free", {})):
                out = tmp_path / preset / tag
                argv = [sys.executable, "-m", "treefed.cli", "compare", "--preset", preset,
                        "--rounds", "2", "--seed", "1", "--out", str(out)]
                for method in ("worldlm", "flat_fl", "local", "centralized"):
                    argv += ["--method", method]
                subprocess.run(argv, env=env, capture_output=True, text=True, check=True,
                               **kwargs)
                files[tag] = {str(f.relative_to(out)): f.read_bytes()
                              for f in sorted(out.rglob("*.csv")) if f.name != "timings.csv"}
            assert len(files["free"]) == 4 * 4 + 1
            assert files["pinned"] == files["free"], preset


class TestEvaluationMemo:
    def test_memo_changes_no_row(self, monkeypatch):
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        memoized = fit(tree, shards, cfg_for(tree, shards, rounds=2))
        orig = engine_mod.evaluate_round
        monkeypatch.setattr(engine_mod, "evaluate_round",
                            lambda *args, memo=None, **kwargs: orig(*args, **kwargs))
        assert fit(tree, shards, cfg_for(tree, shards, rounds=2)).rows == memoized.rows

    def test_only_changed_nodes_are_rescored(self, monkeypatch):
        # round 0 scores all 7 nodes after stage 0, then the 2 mids, then
        # the 4 leaves; later rounds rescore the root and the aggregated mids
        # after stage 0, not the leaves: 2 splits x (13 + 9) nodes
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        calls = []
        orig = engine_mod.mean_nll
        monkeypatch.setattr(engine_mod, "mean_nll", lambda params, tokens, **kwargs:
                            calls.append(1) or orig(params, tokens, **kwargs))
        fit(tree, shards, cfg_for(tree, shards, rounds=2))
        assert len(calls) == 2 * (13 + 9)

    def test_each_split_is_indexed_once(self, monkeypatch):
        # a 2-round fit over 7 nodes x 2 splits builds 14 context indexes,
        # each shard's val and test together in one joint build
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        owner = {id(getattr(shard, split)): (nid, split)
                 for nid, shard in shards.items() for split in ("val", "test")}
        built = []
        orig_build = ContextIndex.of_streams

        def build(streams, n):
            built.append([owner[id(tokens)] for tokens in streams])
            return orig_build(streams, n)

        monkeypatch.setattr(ContextIndex, "of_streams", build)
        fit(tree, shards, cfg_for(tree, shards, rounds=2))
        assert sorted(built) == sorted([(nid, "val"), (nid, "test")] for nid in shards)

    def test_replacing_a_model_drops_its_entry(self):
        # the memo holds each scored node's (2,) NLLs, one per split, and
        # no model, so it pins no replaced model; every phase that replaces
        # a node's model (enter, train, aggregate) drops that node's entry
        # and no other, and train puts back the scores of the models it
        # trained unless told not to score
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        run = engine_mod._Run.start(tree, shards, cfg_for(tree, shards, rounds=1))
        everyone = sorted(tree.nodes)
        run.evaluate(0, 0)
        assert sorted(run.scored) == everyone
        assert all(type(nlls) is np.ndarray and (nlls.shape, nlls.dtype) == ((2,), np.float64)
                   for nlls in run.scored.values())
        for phase, dropped in ((lambda: run.enter(0, 3), [3]),
                               (lambda: run.train(0, 2, [3, 4, 5, 6], score=False), [3, 4, 5, 6]),
                               (lambda: run.train(1, 2, [3, 4, 5, 6]), []),
                               (lambda: run.aggregate(0, 1), [1])):
            phase()
            assert sorted(run.scored) == [nid for nid in everyone if nid not in dropped]
            models = {nid: run.state[nid].model for nid in everyone}
            assert evaluate_round("m", models, shards, 0, 2, memo=dict(run.scored)) == (
                evaluate_round("m", models, shards, 0, 2))
            run.evaluate(0, 2)

    @pytest.mark.parametrize("runner", [run_flat_fl, run_centralized])
    def test_a_model_scored_on_the_server_is_not_scored_when_trained(self, monkeypatch, runner):
        # flat FL and centralized score each leaf on the server's model, so
        # their training scores nothing: 2 splits x 4 leaves x 3 rounds
        monkeypatch.setattr(engine_mod, "lane_count", lambda: 1)
        tree = fig2_tree()
        shards, _ = shards_for(tree)
        scored = count_mean_nll(monkeypatch)
        runner(tree.leaves(), shards, cfg_for(tree, shards), 3)
        assert len(scored) == 2 * 4 * 3
