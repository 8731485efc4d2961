import dataclasses
import json
from unittest import mock

import pytest

from treefed import presets
from treefed.aggregation import lr_at
from treefed.engine import fit
from treefed.model import TrainerConfig
from treefed.presets import preset_config, resolve, tree_from_json, tree_to_json
from treefed.topology import FederationTree, NodeSpec, validate

from oracles import tree_faults

FIG2 = {0: [1, 2], 1: [3, 4], 2: [5, 6]}


def fig2_tree():
    return FederationTree.from_children_map(FIG2)


class TestValidate:
    def test_fig2_tree_ok(self):
        assert validate(fig2_tree()) == []

    def test_cycle_detected(self):
        nodes = {
            0: NodeSpec(id=0, parent=None, children=[1]),
            1: NodeSpec(id=1, parent=2, children=[2]),
            2: NodeSpec(id=2, parent=1, children=[1]),
        }
        bad = validate(FederationTree(nodes))
        assert any("cycle" in v for v in bad)

    def test_two_roots(self):
        nodes = {
            0: NodeSpec(id=0, parent=None, children=[]),
            1: NodeSpec(id=1, parent=None, children=[]),
        }
        bad = validate(FederationTree(nodes))
        assert any("root uniqueness" in v for v in bad)

    def test_root_id_must_be_zero(self):
        nodes = {
            1: NodeSpec(id=1, parent=None, children=[2]),
            2: NodeSpec(id=2, parent=1, children=[]),
        }
        bad = validate(FederationTree(nodes))
        assert any("root id" in v for v in bad)

    def test_parent_child_mismatch(self):
        nodes = {
            0: NodeSpec(id=0, parent=None, children=[1]),
            1: NodeSpec(id=1, parent=None, children=[]),  # forgot parent
        }
        bad = validate(FederationTree(nodes))
        assert bad

    def test_residual_ceiling_must_be_ancestor(self):
        tree = fig2_tree()
        tree.nodes[3].residual_ceiling = 4  # sibling, not ancestor
        bad = validate(tree)
        assert any("residual_ceiling" in v for v in bad)

    def test_ceiling_self_allowed(self):
        tree = fig2_tree()
        tree.nodes[3].residual_ceiling = 3  # disables sharing for this node
        assert validate(tree) == []

    @pytest.mark.parametrize("fault", sorted(tree_faults()))
    def test_tree_fault_rejected_before_sampling(self, fault):
        config, message = tree_faults()[fault]
        sample = AssertionError("data sampled before the tree was checked")
        with mock.patch.object(presets, "build_hierarchy_dataset", side_effect=sample):
            with pytest.raises(ValueError) as exc:
                resolve(config, seed=1)
        assert str(exc.value) == message


class TestLevels:
    def test_fig2_stages(self):
        tree = fig2_tree()
        assert validate(tree) == []
        assert tree.levels() == [[0], [1, 2], [3, 4, 5, 6]]

    def test_depth_one(self):
        tree = FederationTree.from_children_map({0: [1, 2, 3]})
        assert validate(tree) == []
        assert tree.levels() == [[0], [1, 2, 3]]
        assert tree.depth() == 1

    def test_levels_sorted_regardless_of_config_order(self):
        nodes = {}
        for nid, spec in sorted(fig2_tree().nodes.items(), reverse=True):
            nodes[nid] = spec
        scrambled = FederationTree(nodes)
        assert validate(scrambled) == []
        assert scrambled.levels() == [[0], [1, 2], [3, 4, 5, 6]]

    def test_levels_partition_ids_exactly_once(self):
        tree = fig2_tree()
        assert validate(tree) == []
        flat = [nid for level in tree.levels() for nid in level]
        assert sorted(flat) == sorted(tree.nodes)
        assert len(flat) == len(set(flat))

    def test_invalid_tree_rejected(self):
        nodes = {
            0: NodeSpec(id=0, parent=None, children=[]),
            1: NodeSpec(id=1, parent=None, children=[]),
        }
        assert any("root uniqueness" in v for v in validate(FederationTree(nodes)))


class TestQueries:
    def test_leaves_and_descendants(self):
        tree = fig2_tree()
        assert tree.leaves() == [3, 4, 5, 6]
        assert tree.descendant_leaves(1) == [3, 4]
        assert tree.descendant_leaves(0) == [3, 4, 5, 6]

    def test_ancestry(self):
        tree = fig2_tree()
        assert tree.is_ancestor(0, 3)
        assert tree.is_ancestor(1, 3)
        assert not tree.is_ancestor(2, 3)
        assert not tree.is_ancestor(3, 3)
        assert tree.in_subtree(3, 3)
        assert tree.in_subtree(1, 4)
        assert not tree.in_subtree(1, 5)


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        tree = fig2_tree()
        tree.nodes[3].residual_ceiling = 1
        tree.nodes[4].trains_locally = False
        text = json.dumps(tree_to_json(tree), indent=1, sort_keys=True)
        loaded = tree_from_json(json.loads(text), TrainerConfig())
        assert tree_to_json(loaded) == tree_to_json(tree)
        assert json.dumps(tree_to_json(loaded), indent=1, sort_keys=True) == text

    def test_json_roundtrip_preserves_fields(self):
        tree = fig2_tree()
        tree.nodes[5].residual_ceiling = 2
        again = tree_from_json(tree_to_json(tree), TrainerConfig())
        assert again.nodes[5].residual_ceiling == 2
        assert again.nodes[1].children == [3, 4]

    def test_unknown_node_key_rejected(self):
        obj = tree_to_json(fig2_tree())
        obj["nodes"][2]["residual_celing"] = 0
        with pytest.raises(ValueError, match="tree node 2: unknown key 'residual_celing'"):
            tree_from_json(obj, TrainerConfig())


class TestNodeTrainerOverride:
    def test_override_gets_the_experiment_schedule(self):
        # a node trainer from tree JSON used to keep the default schedule
        # (eta_max 8e-4 over 3000 steps) instead of the experiment's. With a
        # null total_steps the schedule spans the node's own steps (12 rounds
        # x 3 stages x 48), so it reaches its floor at the node's last step
        cfg = preset_config("fig2")
        cfg["tree"]["nodes"][3]["trainer"] = {"local_steps": 48}
        exp = resolve(cfg, seed=1)
        sched = exp.tree.nodes[3].trainer.schedule
        assert sched == dataclasses.replace(exp.engine.trainer.schedule, total_steps=1728)
        assert (sched.eta_max, exp.engine.trainer.schedule.total_steps) == (0.03, 3456)
        assert lr_at(1727, sched) == pytest.approx(sched.alpha * sched.eta_max, rel=1e-4)
        cfg["schedule"]["total_steps"] = 1000
        assert resolve(cfg, seed=1).tree.nodes[3].trainer.schedule.total_steps == 1000

    def test_override_inherits_the_experiment_trainer(self):
        # keys a node trainer leaves unset take the experiment's trainer
        # block (batch_size 32 in fig2), not TrainerConfig's defaults (16)
        cfg = preset_config("fig2")
        cfg["tree"]["nodes"][3]["trainer"] = {"local_steps": 48}
        exp = resolve(cfg, seed=1)
        trainer, base = exp.tree.nodes[3].trainer, exp.engine.trainer
        assert (trainer.local_steps, trainer.batch_size) == (48, 32)
        assert dataclasses.replace(trainer, local_steps=96, schedule=base.schedule) == base

    def test_stage_without_a_local_step_takes_no_step(self):
        # the root takes no local step, so a round has two training stages:
        # the run, the baselines' budget and the null-total_steps schedule
        # all count those two
        cfg = preset_config("fig2")
        cfg["tree"]["nodes"][0]["trainer"] = {"local_steps": 0}
        exp = resolve({**cfg, "rounds": 2}, seed=1)
        result = fit(exp.tree, exp.shards, exp.engine)
        assert result.seq_steps == exp.total_stages == 4
        assert exp.engine.trainer.schedule.total_steps == result.seq_steps * 96

    def test_node_trainer_key_typo_rejected(self):
        obj = tree_to_json(fig2_tree())
        obj["nodes"][3]["trainer"] = {"local_step": 4}
        with pytest.raises(ValueError, match="tree node 3 trainer: unknown key 'local_step'; "
                                             "did you mean 'local_steps'"):
            tree_from_json(obj, TrainerConfig())

    def test_node_schedule_rejected(self):
        obj = tree_to_json(fig2_tree())
        obj["nodes"][3]["trainer"] = {"local_steps": 4, "schedule": {"eta_max": 1.0}}
        with pytest.raises(ValueError, match="tree node 3: a node trainer takes no schedule"):
            tree_from_json(obj, TrainerConfig())
