"""Property tests for the core invariants: attention weights form a
distribution, routing respects origin subtrees and ceilings, every residual
packet a run selects ends exactly once in the next round, clipping respects
its bound, validate accepts exactly the well-formed trees, resolve rejects a
config value of the wrong JSON type before sampling, the Markov sampler
matches its per-token reference byte for byte, and a run of R rounds of any
preset logs the first R rounds of a longer run."""

import csv
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefed import engine, presets
from treefed.cli import main
from treefed.aggregation import AttentionConfig, aggregate_child_keys, merge_with_parent
from treefed.datagen import MarkovSource, sample_tokens
from treefed.presets import PRESETS, preset_config, resolve, tree_to_json
from treefed.privacy import clip
from treefed.residual import ResidualPacket, partition_residuals, route_residuals, turn_node
from treefed.tensors import l2_norm
from treefed.topology import FederationTree, NodeSpec, validate

from oracles import param_set, reference_sample_tokens

PROPS = settings(max_examples=60, deadline=None)


def vectors(size):
    """Float32 vectors of one size: zero, or normal at a drawn scale."""
    return st.tuples(st.booleans(), st.integers(0, 2**32 - 1),
                     st.sampled_from([1e-3, 1.0, 1e3])).map(
        lambda z: np.zeros(size, np.float32) if z[0] else
        (z[2] * np.random.default_rng(z[1]).standard_normal(size)).astype(np.float32))


@st.composite
def key_sets(draw, sizes, count):
    """`count` congruent key sets with one layer per entry of `sizes`."""
    return [param_set((f"k{i}", draw(vectors(n))) for i, n in enumerate(sizes))
            for _ in range(count)]


attention_configs = st.builds(
    AttentionConfig, similarity=st.sampled_from(["cosine", "dot"]),
    temperature=st.sampled_from([0.05, 1.0, 20.0]), include_self=st.booleans(),
    uniform=st.booleans())


def assert_distributions(weight_log):
    for labels, weights in weight_log.values():
        assert len(labels) == len(weights)
        assert (weights >= 0).all()
        assert abs(float(weights.sum()) - 1.0) <= 1e-9


@PROPS
@given(data=st.data(), cfg=attention_configs,
       sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       children=st.integers(1, 4))
def test_attention_weights_are_a_distribution(data, cfg, sizes, children):
    own, parent, *kids = data.draw(key_sets(sizes, children + 2))
    _, log = aggregate_child_keys(own, list(enumerate(kids, 1)), cfg)
    assert_distributions(log)
    layers = data.draw(st.lists(st.integers(0, len(sizes) - 1), max_size=4))
    packets = [ResidualPacket(origin=10 + i, layer=f"k{layer}",
                              values=data.draw(vectors(sizes[layer])),
                              created_round=0)
               for i, layer in enumerate(layers)]
    _, log = merge_with_parent(own, parent, packets, cfg)
    assert_distributions(log)
    assert sum(len(labels) for labels, _ in log.values()) == 2 * len(sizes) + len(packets)


@st.composite
def trees(draw, max_nodes=12):
    """A well-formed tree drawn as a parent array: node i > 0 hangs below a
    node with a smaller id."""
    n = draw(st.integers(2, max_nodes))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    return FederationTree.from_children_map(
        {i: [j for j in range(n) if parents[j] == i] for i in range(n)})


@PROPS
@given(data=st.data(), tree=trees(), similarity=st.sampled_from(["cosine", "dot"]))
def test_routing_never_lands_in_the_origin_subtree(data, tree, similarity):
    router = data.draw(st.sampled_from([n for n in tree.nodes if not tree.is_leaf(n)]))
    children = tree.nodes[router].children
    child_keys = [(cid, param_set({"a": data.draw(vectors(3))})) for cid in children]
    packets = [ResidualPacket(origin=origin, layer="a", values=data.draw(vectors(3)),
                              created_round=data.draw(st.integers(0, 3)))
               for origin in data.draw(st.lists(st.sampled_from(list(tree.nodes)),
                                                max_size=6))]
    out = route_residuals(packets, child_keys, AttentionConfig(similarity=similarity),
                          tree, round_k=3)
    assert sorted(out.landed) == sorted(children)
    landed = [(cid, pkt) for cid, pkts in out.landed.items() for pkt in pkts]
    assert not any(tree.in_subtree(cid, pkt.origin) for cid, pkt in landed)
    # one event per packet: where it landed, or that no child could take it
    assert len(out.events) == len(packets)
    for e in out.events:
        if e["action"] == "drop:origin-exclusion":
            assert all(tree.in_subtree(cid, e["origin"]) for cid in children)
        else:
            assert e["action"] == ("aggregate" if tree.is_leaf(e["landed_at"]) else "forward")
    assert len(landed) == sum(e["action"] != "drop:origin-exclusion" for e in out.events)


@PROPS
@given(data=st.data(), tree=trees())
def test_split_by_ceiling_never_climbs_above_the_ceiling(data, tree):
    origin = data.draw(st.sampled_from([n for n in tree.nodes if n != 0]))
    ceiling = data.draw(st.sampled_from(tree.path_to_root(origin)))
    tree.nodes[origin].residual_ceiling = ceiling
    pkt = ResidualPacket(origin=origin, layer="a", values=np.zeros(1, np.float32),
                         created_round=0)
    start = tree.nodes[origin].parent  # where its parent selects it
    turn = turn_node(pkt, start, tree)
    assert turn in tree.path_to_root(start)
    assert turn == (ceiling if tree.in_subtree(ceiling, start) else start)
    # above the selecting server it never passes the ceiling
    assert turn == start or tree.in_subtree(ceiling, turn)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), tree=trees())
def test_every_selected_packet_ends_once_in_the_next_round(data, tree):
    # with no similarity gate every server selects packets every round; each
    # one selected before the last round is routed down in the next round
    # until a leaf aggregates it or no child outside its origin's subtree is
    # left, and the log records exactly that one end
    rounds = 3
    for nid in tree.nodes:
        tree.nodes[nid].residual_ceiling = data.draw(st.sampled_from(tree.path_to_root(nid)))
    leaves = [str(leaf) for leaf in tree.leaves()]
    cfg = preset_config("fig2")
    cfg["tree"] = tree_to_json(tree)
    cfg["data"].update(
        leaf_sources={leaf: data.draw(st.sampled_from(["c0s0", "c0s1", "c1s0", "c1s1"]))
                      for leaf in leaves},
        leaf_budgets=dict.fromkeys(leaves, 64), val_tokens=16, test_tokens=16)
    cfg["model"].update(vocab_size=8, embed_dim=4)
    cfg["trainer"].update(local_steps=1, batch_size=2)
    cfg["residual"]["threshold"] = 2.0  # above any cosine similarity: no gate
    exp = resolve(cfg, seed=1, rounds=rounds)
    selected = []

    def selecting(*args, **kwargs):
        packets = partition_residuals(*args, **kwargs)
        selected.extend(packets)
        return packets

    with mock.patch.object(engine, "partition_residuals", selecting):
        log = engine.fit(exp.tree, exp.shards, exp.engine).residual_log
    assert selected
    assert all(e["round"] == e["created_round"] + 1 for e in log)
    assert Counter((e["origin"], e["layer"], e["created_round"]) for e in log
                   if e["action"] in ("aggregate", "drop:origin-exclusion")) == Counter(
        (p.origin, p.layer, p.created_round) for p in selected if p.created_round < rounds - 1)


@PROPS
@given(scale=st.floats(-6, 6), bound=st.floats(-6, 6), size=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
def test_clipped_norm_within_bound(scale, bound, size, seed):
    values = 10.0 ** scale * np.random.default_rng(seed).standard_normal(size)
    out, _ = clip(param_set({"a": values}), 10.0 ** bound)
    assert l2_norm(out) <= 10.0 ** bound * (1 + 1e-6)


@st.composite
def parent_arrays(draw):
    """Tree-shaped parent arrays over ids 0..n-1 (node i > 0 below a smaller
    id) with up to two entries overwritten by anything, which makes
    self-loops, cycles, extra or missing roots and unknown parents."""
    n = draw(st.integers(1, 8))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    for _ in range(draw(st.integers(0, 2))):
        parents[draw(st.integers(0, n - 1))] = draw(st.none() | st.integers(0, n + 1))
    return parents


def well_formed(parents):
    """One root, node 0; every parent a known id; every chain ends at 0."""
    n = len(parents)
    if [i for i, p in enumerate(parents) if p is None] != [0]:
        return False
    if any(p is not None and not 0 <= p < n for p in parents):
        return False
    for i in range(n):
        seen = set()
        while parents[i] is not None:
            if i in seen:
                return False
            seen.add(i)
            i = parents[i]
    return True


@PROPS
@given(parent_arrays())
def test_validate_accepts_exactly_the_well_formed_trees(parents):
    tree = FederationTree({i: NodeSpec(id=i, parent=p,
                                       children=[j for j, q in enumerate(parents) if q == i])
                           for i, p in enumerate(parents)})
    assert (validate(tree) == []) == well_formed(parents)


def wrong_values(value):
    """Values of another JSON type than `value`'s: a string for a number, a
    bool for an int, a non-integral float for an int, a non-finite float for
    a number, null and a list for a scalar. A field that is null may be, so
    it gets none."""
    if value is None:
        return []
    if isinstance(value, bool):
        return [None, "abc", 1, [value]]
    if isinstance(value, int):
        return ["abc", True, 1.5, None, [value]]
    if isinstance(value, float):
        return ["abc", True, None, [value], float("nan"), float("inf"), float("-inf")]
    if isinstance(value, str):
        return [None, 1, [value]]
    return [None, "abc", 1] + ([[1]] if isinstance(value, dict) else [])


def wrong_type_cases():
    """(preset, path to a section, the section's name in messages, key,
    wrong value) for every field of fig2's top level, model, trainer,
    schedule, attention, server, residual, data and tree nodes, and of
    dp-cc-wk's dp section."""
    fig2 = preset_config("fig2")
    sections = [("fig2", (), "config"), ("dp-cc-wk", ("dp",), "config dp")]
    sections += [("fig2", (name,), f"config {name}") for name in
                 ("model", "trainer", "schedule", "attention", "server", "residual", "data")]
    sections += [("fig2", ("tree", "nodes", i), "tree node")
                 for i in range(len(fig2["tree"]["nodes"]))]
    cases = []
    for preset, path, label in sections:
        section = preset_config(preset)
        for part in path:
            section = section[part]
        for key, value in section.items():
            for wrong in wrong_values(value):
                if (label, key, wrong) != ("tree node", "parent", None):  # the root's is null
                    cases.append((preset, path, label, key, wrong))
    return cases


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(wrong_type_cases()))
def test_wrong_json_type_rejected_naming_section_and_key(case):
    preset, path, label, key, wrong = case
    cfg = preset_config(preset)
    section = cfg
    for part in path:
        section = section[part]
    section[key] = wrong
    sample = AssertionError("data sampled before the config was checked")
    with mock.patch.object(presets, "build_hierarchy_dataset", side_effect=sample):
        with pytest.raises(ValueError) as exc:
            resolve(cfg, seed=1)
    message = str(exc.value)
    assert message.startswith(label) and re.search(rf"\b{key}\b", message), message


@st.composite
def markov_sources(draw):
    """Row-stochastic sources over 2 to 40 tokens with exact zeros, maybe a
    zero last column, and maybe rows (and an initial distribution) scaled
    so their cumulative sums end below 1.0."""
    V = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(0, 4, size=(V + 1, V)) * (rng.random((V + 1, V)) < draw(
        st.sampled_from([0.2, 0.6, 1.0])))
    if draw(st.booleans()):
        weights[:, -1] = 0
    weights[weights.sum(axis=1) == 0, 0] = 1
    rows = weights / weights.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        rows[rng.random(V + 1) < 0.5] *= 1.0 - 1e-12
    return MarkovSource("prop", rows[:V], rows[V])


class EdgeUniforms:
    """A Generator stand-in for `random(n)`: uniform draws, about a third of
    them replaced by edge values: a cumulative entry of the source exactly,
    0.0, or the largest float below 1.0, which lies past a row total that
    rounding left below 1.0."""

    def __init__(self, src: MarkovSource, seed: int):
        self.rng = np.random.default_rng(seed)
        cums = np.concatenate([np.cumsum(src.transition, axis=1).ravel(),
                               np.cumsum(src.initial), [0.0, 1.0 - 2.0**-53]])
        self.edges = cums[cums < 1.0]

    def random(self, n):
        u = self.rng.random(n)
        hit = self.rng.random(n) < 1 / 3
        u[hit] = self.rng.choice(self.edges, int(hit.sum()))
        return u


@PROPS
@given(src=markov_sources(), lengths=st.lists(st.integers(1, 3000), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_sample_tokens_matches_the_per_token_reference(src, lengths, seed):
    # consecutive calls share one rng, as a mixture stream's segments do
    fast, reference = EdgeUniforms(src, seed), EdgeUniforms(src, seed)
    for length in lengths:
        got = sample_tokens(src, length, fast)
        want = reference_sample_tokens(src, length, reference)
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()


# a preset shrunk to a tiny model and short streams, on a fixed schedule
_TINY_DP = ["model.embed_dim=4", "model.num_blocks=2", "model.expansion_ratio=1",
            "trainer.local_steps=2", "trainer.batch_size=4", "schedule.total_steps=60",
            "data.val_tokens=64", "data.test_tokens=64",
            *(f"data.leaf_budgets.{leaf}=400" for leaf in (3, 4, 5, 6))]


def _logged_rows(run_dir) -> dict[str, list[dict]]:
    return {name: list(csv.DictReader(open(run_dir / name, newline="")))
            for name in ("metrics.csv", "attention.csv", "residuals.csv", "dp.csv")}


@pytest.mark.parametrize("method", ["worldlm", "flat_fl", "local", "centralized"])
@settings(max_examples=20, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), short=st.integers(1, 3), more=st.integers(1, 2))
def test_a_shorter_run_is_a_prefix_of_a_longer_one(method, preset, short, more):
    # no state that carries across rounds (evaluation memo, clip bounds,
    # inboxes, momentum) may depend on how many rounds follow; a baseline
    # runs 3 flat rounds per round, one per trainable level of every preset
    logs = {}
    with tempfile.TemporaryDirectory() as out:
        for rounds in (short, short + more):
            argv = ["run", "--preset", preset, "--method", method, "--rounds", str(rounds),
                    "--seed", "1", "--out", f"{out}/{rounds}"]
            assert main([*argv, *(a for o in _TINY_DP for a in ("--override", o))]) == 0
            logs[rounds] = _logged_rows(Path(out) / str(rounds) / f"{preset}__{method}__seed1")
    limit = short if method == "worldlm" else 3 * short
    grows = {"metrics.csv"}
    if method == "worldlm":
        grows.add("attention.csv")
    if preset_config(preset)["dp"] and method in ("worldlm", "flat_fl"):
        grows.add("dp.csv")
    for name, rows in logs[short].items():
        longer = logs[short + more][name]
        assert rows == [row for row in longer if int(row["round"]) < limit], name
        if name in grows:
            assert 0 < len(rows) < len(longer), name
        elif (name, method) != ("residuals.csv", "worldlm"):  # a run may select no packet
            assert not longer, name
