import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treefed.datagen import (
    MarkovSource,
    Shard,
    build_hierarchy_dataset,
    clustered_source_ids,
    cross_entropy_rate,
    entropy_rate,
    make_clustered_sources,
    markov_perplexity,
    sample_mixture_stream,
    sample_shard,
    sample_tokens,
    split_stream,
    stationary_distribution,
)
from treefed.presets import preset_config, resolve
from treefed.topology import FederationTree


def tv_distance(p, q):
    return 0.5 * np.abs(p - q).sum()


def mean_row_tv(a: MarkovSource, b: MarkovSource) -> float:
    return float(np.mean([tv_distance(a.transition[i], b.transition[i])
                          for i in range(a.vocab_size)]))


FIG2_CHILDREN = {0: [1, 2], 1: [3, 4], 2: [5, 6]}


class TestMarkovSource:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            MarkovSource("x", np.array([[0.5, 0.6], [0.5, 0.5]]), np.array([0.5, 0.5]))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MarkovSource("x", np.array([[1.5, -0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))

    def test_initial_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"source x: initial distribution has shape "
                                             r"\(5,\), expected \(4,\)"):
            MarkovSource("x", np.full((4, 4), 0.25), np.full(5, 0.2))

    def test_negative_initial_entries_rejected(self):
        with pytest.raises(ValueError, match="source x: initial entries must be non-negative"):
            MarkovSource("x", np.full((4, 4), 0.25), np.array([-0.5, 0.5, 0.5, 0.5]))


class TestClusteredSources:
    def test_zero_divergence_identical(self):
        sources = make_clustered_sources(2, 2, 0.0, 8, seed=0)
        base = sources[0].transition
        for s in sources[1:]:
            np.testing.assert_allclose(s.transition, base, atol=1e-12)

    def test_full_divergence_clusters_separate(self):
        sources = make_clustered_sources(2, 2, 1.0, 16, seed=1)
        intra = [mean_row_tv(sources[0], sources[1]), mean_row_tv(sources[2], sources[3])]
        inter = [mean_row_tv(a, b) for a in sources[:2] for b in sources[2:]]
        assert np.mean(inter) > np.mean(intra)

    def test_rows_renormalized(self):
        for s in make_clustered_sources(3, 2, 0.7, 10, seed=2):
            np.testing.assert_allclose(s.transition.sum(axis=1), 1.0, atol=1e-9)
            assert (s.transition >= 0).all()

    def test_ids_are_the_built_sources(self):
        built = make_clustered_sources(2, 3, 0.5, 4, seed=0)
        assert clustered_source_ids(2, 3) == [s.id for s in built]

    def test_determinism(self):
        a = make_clustered_sources(2, 2, 0.5, 8, seed=3)
        b = make_clustered_sources(2, 2, 0.5, 8, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.transition, y.transition)


class TestEntropyRate:
    def test_uniform_is_log_v(self):
        V = 8
        T = np.full((V, V), 1.0 / V)
        src = MarkovSource("u", T, np.full(V, 1.0 / V))
        assert entropy_rate(src) == pytest.approx(np.log(V), abs=1e-10)

    def test_deterministic_cycle_is_zero(self):
        T = np.roll(np.eye(4), 1, axis=1)
        src = MarkovSource("cycle", T, np.full(4, 0.25))
        assert entropy_rate(src) == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        src = make_clustered_sources(1, 1, 1.0, 8, seed=5, concentration=0.5)[0]
        rng = np.random.default_rng(0)
        tokens = sample_tokens(src, 1_000_000, rng)
        empirical = -np.log(src.transition[tokens[:-1], tokens[1:]]).mean()
        assert entropy_rate(src) == pytest.approx(empirical, rel=0.005)

    def test_permutation_cycles_still_work(self):
        # uniform start is already stationary for doubly stochastic matrices,
        # so deterministic cycles converge immediately
        T3 = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
        ])
        src3 = MarkovSource("p3", T3, np.array([1.0, 0.0, 0.0]))
        assert entropy_rate(src3) == pytest.approx(0.0, abs=1e-12)

    def test_periodic_chain_errors(self):
        # bipartite chain with unequal part sizes: power iteration oscillates
        Tbad = np.array([
            [0.0, 0.5, 0.5],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ])
        with pytest.raises(ValueError, match="converge"):
            stationary_distribution(Tbad, tol=1e-12, max_iters=2000)

    def test_perplexity_of_true_model_matches_entropy_rate(self):
        # the datagen oracle: exp(entropy rate) bounds and matches the true
        # model's perplexity on a long sample
        src = make_clustered_sources(1, 1, 0.8, 16, seed=7)[0]
        tokens = sample_tokens(src, 100_000, np.random.default_rng(1))
        assert markov_perplexity(src, tokens) == pytest.approx(
            float(np.exp(entropy_rate(src))), rel=0.01)


def constant_source(sid: str, token: int) -> MarkovSource:
    """A two-token source that emits only `token`."""
    row = np.eye(2)[token]
    return MarkovSource(id=sid, transition=np.stack([row, row]), initial=row)


class TestShards:
    SOURCES = {s.id: s for s in make_clustered_sources(2, 2, 0.8, 8, seed=11)}

    def test_segments_sized_by_budget_share(self):
        # 300:100 budgets split a 1000-token stream 750:250, in mixture order
        sources = {"a": constant_source("a", 0), "b": constant_source("b", 1)}
        shard = sample_shard([("a", 300), ("b", 100)], sources, seed=5, node_id=0,
                             train_tokens=1000, val_tokens=8, test_tokens=8)
        np.testing.assert_array_equal(shard.train, [0] * 750 + [1] * 250)

    @settings(max_examples=200, deadline=None)
    @given(mixture=st.lists(st.tuples(st.sampled_from(["c0s0", "c0s1", "c1s0", "c1s1"]),
                                      st.integers(1, 10**4)), min_size=1, max_size=8),
           size=st.integers(2, 300), seed=st.integers(0, 2**16))
    # each of 5 equal budgets rounds up to 1 token at size 3 and to 2 at
    # size 8, and the last segment takes at least 1
    @example(mixture=[(s, 100) for s in ("c0s0", "c0s1", "c1s0", "c1s1", "c0s0")], size=3, seed=1)
    @example(mixture=[(s, 100) for s in ("c0s0", "c0s1", "c1s0", "c1s1", "c0s0")], size=8, seed=1)
    def test_a_mixture_stream_has_the_size_asked(self, mixture, size, seed):
        stream = sample_mixture_stream(mixture, self.SOURCES, size, (seed, 0, 0))
        assert len(stream) == size

    def test_sampling_determinism(self):
        sources = self.SOURCES
        mixture = [("c0s0", 800), ("c1s0", 200)]
        a = sample_shard(mixture, sources, seed=5, node_id=3, train_tokens=1000,
                         val_tokens=100, test_tokens=100)
        b = sample_shard(mixture, sources, seed=5, node_id=3, train_tokens=1000,
                         val_tokens=100, test_tokens=100)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_splits_use_distinct_streams(self):
        sources = self.SOURCES
        s = sample_shard([("c0s0", 1000)], sources, seed=5, node_id=3, train_tokens=500,
                         val_tokens=500, test_tokens=500)
        assert not np.array_equal(s.train, s.val)
        assert not np.array_equal(s.val, s.test)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            Shard(train=np.array([1]), val=np.array([], dtype=np.int64), test=np.array([1]))

    def test_digest_refuses_ids_a_uint16_cannot_hold(self):
        # astype("<u2") would wrap 65536 to 0 and -1 to 65535 silently
        edges = Shard(train=np.array([0, 65535]), val=np.array([1]), test=np.array([2]))
        assert len(edges.digest()) == 64
        refusal = r"test split: token ids must lie in \[0, 65535\]"
        for bad in (65536, -1):
            shard = Shard(train=np.array([1]), val=np.array([1]), test=np.array([0, bad]))
            with pytest.raises(ValueError, match=refusal):
                shard.digest()


# Shard.digest() of every node at seed 1. dp-cc-wk only adds DP to fig2, so
# its data is fig2's. A change to any of these is a change to the data.
FIG2_DIGESTS = {
    0: "60ee6a196c1f49fb1057796acec603a00e6527bd8d04a09d9ef1416d7d88d493",
    1: "5e085bf4abae0e7564493e85b24cdbdd0a1f89083c2f33e7809304c6c6a4b81f",
    2: "96efdabff8e8d2c8fdb43034d3300f95c1b85c8da02b0033c680351141628dae",
    3: "0bc819a480b14efea269a8148eace88000f149c1367614a43df1006bfa2ee931",
    4: "9d4d10713dcbcc92e57f02bbd963f4c604fdbe454bf270eeba78a84ea91a5d4e",
    5: "17a378db2db2b6172e77d3a6dad25dda2687071193bfe5b33578652f04e1969c",
    6: "1a0d43d5762b802452badbb1ea37e2c70c7e781c5158955c496a8c1a28721aa7",
}
PINNED_DIGESTS = {
    "fig2": FIG2_DIGESTS,
    "dp-cc-wk": FIG2_DIGESTS,
    "iid": {
        0: "36e673820ae442a0b214a983d9b23dc2f10856f3b3998055d4889841ce0ae88e",
        1: "e5ae07b0c11b2c3e7cf09f5748fde9514341c3b50c65e71ca0f01ec2482a89fc",
        2: "db8fa83860bf4ac63a3e9e4d9e696bdcdce92bd443c0ba6184dcebbb06c4b759",
        3: "866ee9f23afde4084a3bc4fd1513731c65908b7dcbaff3ce29044cd7b9e8947a",
        4: "95338a1c84f017a26d3ab6931af1d838b69a602670f78cad7635c7d9571fc9ed",
        5: "ac92c9e5311f8fc17d1af4474fff325b147c69a5a4db76098fbf5d6880ce46ad",
        6: "d072748abf4757002e801742cbaa93c0eef023b593d3fa7af2e6c7a1e1347eae",
    },
}


@pytest.mark.parametrize("preset", sorted(PINNED_DIGESTS))
def test_preset_shards_are_pinned(preset):
    shards = resolve(preset_config(preset), seed=1).shards
    assert {nid: shard.digest() for nid, shard in shards.items()} == PINNED_DIGESTS[preset]


def test_model_vocab_sizes_the_clustered_sources():
    cfg = preset_config("fig2")
    cfg["model"]["vocab_size"] = 40
    exp = resolve(cfg, seed=1)
    assert {s.vocab_size for s in exp.sources.values()} == {40}
    tokens = np.concatenate([getattr(shard, name) for shard in exp.shards.values()
                             for name in ("train", "val", "test")])
    assert tokens.min() >= 0 and tokens.max() < 40
    assert tokens.max() >= 32  # beyond fig2's own vocab of 32


class TestHierarchyDataset:
    def build(self, swapped=False):
        tree = FederationTree.from_children_map(FIG2_CHILDREN)
        sources = {s.id: s for s in make_clustered_sources(2, 2, 0.8, 8, seed=13)}
        leaf_sources = {3: "c0s0", 4: "c0s1", 5: "c1s0", 6: "c1s1"}
        if swapped:
            leaf_sources[4], leaf_sources[6] = leaf_sources[6], leaf_sources[4]
        budgets = {3: 4000, 4: 1000, 5: 4000, 6: 1000}
        leaf_budgets = {leaf: (leaf_sources[leaf], budgets[leaf]) for leaf in (3, 4, 5, 6)}
        return tree, sources, leaf_budgets

    def assert_samples(self, shard, mixture, sources, node_id, train_tokens):
        """`shard` is byte-identical to sample_shard of `mixture`."""
        expected = sample_shard(mixture, sources, seed=1, node_id=node_id,
                                train_tokens=train_tokens, val_tokens=64, test_tokens=64)
        assert shard.digest() == expected.digest()

    def test_parent_mixture_proportional_to_budgets(self):
        # an internal node samples its leaves' pairs merged by source, sorted
        # by source id, with a train budget of their mean budget
        tree, sources, leaf_budgets = self.build()
        shards = build_hierarchy_dataset(tree, leaf_budgets, sources, seed=1,
                                         val_tokens=64, test_tokens=64)
        self.assert_samples(shards[1], [("c0s0", 4000), ("c0s1", 1000)], sources, 1, 2500)
        self.assert_samples(shards[0], [("c0s0", 4000), ("c0s1", 1000), ("c1s0", 4000),
                                        ("c1s1", 1000)], sources, 0, 2500)
        self.assert_samples(shards[4], [("c0s1", 1000)], sources, 4, 1000)

    def test_single_leaf_tree(self):
        tree = FederationTree.from_children_map({0: [1]})
        sources = {s.id: s for s in make_clustered_sources(1, 1, 0.0, 8, seed=2)}
        shards = build_hierarchy_dataset(tree, {1: ("c0s0", 2000)}, sources, seed=1,
                                         val_tokens=64, test_tokens=64)
        self.assert_samples(shards[0], [("c0s0", 2000)], sources, 0, 2000)

    def test_swapped_assignment_changes_parent_mixtures(self):
        tree, sources, leaf_budgets = self.build(swapped=True)
        shards = build_hierarchy_dataset(tree, leaf_budgets, sources, seed=1,
                                         val_tokens=64, test_tokens=64)
        # the small medical-cluster source moved over
        self.assert_samples(shards[1], [("c0s0", 4000), ("c1s1", 1000)], sources, 1, 2500)

    def test_leaf_budget_below_one_errors(self):
        tree, sources, leaf_budgets = self.build()
        leaf_budgets[6] = ("c1s1", 0)
        with pytest.raises(ValueError, match="leaf 6: token budget 0 is below 1"):
            build_hierarchy_dataset(tree, leaf_budgets, sources, seed=1)

    def test_unassigned_leaf_errors(self):
        tree, sources, leaf_budgets = self.build()
        del leaf_budgets[6]
        with pytest.raises(ValueError, match="unassigned"):
            build_hierarchy_dataset(tree, leaf_budgets, sources, seed=1)

    def test_entropy_gap_nondecreasing_in_divergence(self):
        # own-cluster vs other-cluster optimal perplexity gap grows with
        # divergence (oracle models, no training)
        gaps = []
        for div in (0.2, 0.5, 0.9):
            sources = make_clustered_sources(2, 1, div, 8, seed=17)
            a, b = sources
            gap = 0.5 * (cross_entropy_rate(a, b) - entropy_rate(a)
                         + cross_entropy_rate(b, a) - entropy_rate(b))
            gaps.append(gap)
        assert gaps[0] <= gaps[1] <= gaps[2]


class TestTextShard:
    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_bytes(b"")
        cfg = preset_config("fig2")
        cfg["data"] = {"kind": "text", "path": str(p)}
        with pytest.raises(ValueError, match="empty"):
            resolve(cfg, seed=1)

    def test_90_5_5_split(self):
        shard = split_stream(np.arange(100), "text:hundred.txt")
        assert (len(shard.train), len(shard.val), len(shard.test)) == (90, 5, 5)

    def test_20_tokens_is_the_shortest_splittable_stream(self):
        # int(20 * 0.05) is one val token; int(19 * 0.05) is none
        shard = split_stream(np.arange(20), "text:short.txt")
        assert (len(shard.train), len(shard.val), len(shard.test)) == (18, 1, 1)
        with pytest.raises(ValueError, match="too small for a 90/5/5 split"):
            split_stream(np.arange(19), "text:short.txt")
