import pytest

from treefed.topology import (
    FederationTree,
    NodeSpec,
    load_tree,
    save_tree,
    tree_from_json,
    tree_to_json,
    validate,
)

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
    def test_roundtrip_bit_exact(self, tmp_path):
        tree = fig2_tree()
        tree.nodes[3].residual_ceiling = 1
        tree.nodes[4].trains_locally = False
        save_tree(tree, tmp_path / "tree.json")
        loaded = load_tree(tmp_path / "tree.json")
        assert tree_to_json(loaded) == tree_to_json(tree)
        save_tree(loaded, tmp_path / "tree2.json")
        assert (tmp_path / "tree.json").read_bytes() == (tmp_path / "tree2.json").read_bytes()

    def test_json_roundtrip_preserves_fields(self):
        tree = fig2_tree()
        tree.nodes[5].residual_ceiling = 2
        again = tree_from_json(tree_to_json(tree))
        assert again.nodes[5].residual_ceiling == 2
        assert again.nodes[1].children == [3, 4]

    def test_unknown_node_key_rejected(self):
        obj = tree_to_json(fig2_tree())
        obj["nodes"][2]["residual_celing"] = 0
        with pytest.raises(ValueError, match="tree node 2: unknown key 'residual_celing'"):
            tree_from_json(obj)
