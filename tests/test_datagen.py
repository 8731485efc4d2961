import numpy as np
import pytest

from treefed.datagen import (
    MarkovSource,
    MixtureComponent,
    MixtureSpec,
    Shard,
    build_byte_vocab,
    build_hierarchy_dataset,
    cross_entropy_rate,
    detokenize,
    entropy_rate,
    load_text_shard,
    make_clustered_sources,
    markov_perplexity,
    sample_shard,
    sample_tokens,
    stationary_distribution,
)
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


class TestMixtureSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureSpec([MixtureComponent("a", 0.5, 100), MixtureComponent("b", 0.6, 100)])

    def test_from_budgets(self):
        spec = MixtureSpec.from_budgets([("a", 300), ("b", 100)])
        assert spec.components[0].weight == pytest.approx(0.75)
        assert spec.total_budget == 400


class TestShards:
    def make_sources(self):
        return {s.id: s for s in make_clustered_sources(2, 2, 0.8, 8, seed=11)}

    def test_sampling_determinism(self):
        sources = self.make_sources()
        spec = MixtureSpec.from_budgets([("c0s0", 800), ("c1s0", 200)])
        a = sample_shard(spec, sources, seed=5, node_id=3, train_tokens=1000,
                         val_tokens=100, test_tokens=100)
        b = sample_shard(spec, sources, seed=5, node_id=3, train_tokens=1000,
                         val_tokens=100, test_tokens=100)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_splits_use_distinct_streams(self):
        sources = self.make_sources()
        spec = MixtureSpec.from_budgets([("c0s0", 1000)])
        s = sample_shard(spec, sources, seed=5, node_id=3, train_tokens=500,
                         val_tokens=500, test_tokens=500)
        assert not np.array_equal(s.train, s.val)
        assert not np.array_equal(s.val, s.test)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            Shard(train=np.array([1]), val=np.array([], dtype=np.int64),
                  test=np.array([1]), provenance=MixtureSpec.from_budgets([("a", 1)]))


class TestHierarchyDataset:
    def build(self, swapped=False):
        tree = FederationTree.from_children_map(FIG2_CHILDREN)
        sources = {s.id: s for s in make_clustered_sources(2, 2, 0.8, 8, seed=13)}
        leaf_sources = {3: "c0s0", 4: "c0s1", 5: "c1s0", 6: "c1s1"}
        if swapped:
            leaf_sources[4], leaf_sources[6] = leaf_sources[6], leaf_sources[4]
        budgets = {3: 4000, 4: 1000, 5: 4000, 6: 1000}
        assignment = {
            leaf: MixtureSpec.from_budgets([(leaf_sources[leaf], budgets[leaf])])
            for leaf in (3, 4, 5, 6)
        }
        return tree, sources, assignment

    def test_parent_mixture_proportional_to_budgets(self):
        tree, sources, assignment = self.build()
        shards = build_hierarchy_dataset(tree, assignment, sources, seed=1,
                                         val_tokens=64, test_tokens=64)
        prov = shards[1].provenance  # parent of leaves 3 (4000) and 4 (1000)
        weights = {c.source_id: c.weight for c in prov.components}
        assert weights["c0s0"] == pytest.approx(0.8)
        assert weights["c0s1"] == pytest.approx(0.2)
        root_weights = {c.source_id: c.weight for c in shards[0].provenance.components}
        assert root_weights["c0s0"] == pytest.approx(0.4)
        assert root_weights["c1s1"] == pytest.approx(0.1)

    def test_single_leaf_tree(self):
        tree = FederationTree.from_children_map({0: [1]})
        sources = {s.id: s for s in make_clustered_sources(1, 1, 0.0, 8, seed=2)}
        assignment = {1: MixtureSpec.from_budgets([("c0s0", 2000)])}
        shards = build_hierarchy_dataset(tree, assignment, sources, seed=3,
                                         val_tokens=64, test_tokens=64)
        assert shards[0].provenance.components[0].source_id == "c0s0"
        assert len(shards[0].provenance.components) == 1

    def test_swapped_assignment_changes_parent_mixtures(self):
        tree, sources, assignment = self.build(swapped=True)
        shards = build_hierarchy_dataset(tree, assignment, sources, seed=1,
                                         val_tokens=64, test_tokens=64)
        weights = {c.source_id: c.weight for c in shards[1].provenance.components}
        assert "c1s1" in weights  # the small medical-cluster source moved over
        assert weights["c1s1"] == pytest.approx(0.2)

    def test_unassigned_leaf_errors(self):
        tree, sources, assignment = self.build()
        del assignment[6]
        with pytest.raises(ValueError, match="unassigned"):
            build_hierarchy_dataset(tree, assignment, sources, seed=1)

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
        with pytest.raises(ValueError, match="empty"):
            load_text_shard(p)

    def test_90_5_5_split(self, tmp_path):
        p = tmp_path / "hundred.txt"
        p.write_bytes(bytes(range(50)) * 2)
        shard = load_text_shard(p)
        assert (len(shard.train), len(shard.val), len(shard.test)) == (90, 5, 5)

    def test_roundtrip_detokenization(self, tmp_path):
        data = b"the quick brown fox jumps over the lazy dog" * 3
        p = tmp_path / "t.txt"
        p.write_bytes(data)
        vocab = build_byte_vocab(data)
        shard = load_text_shard(p, vocab)
        rebuilt = detokenize(np.concatenate([shard.train, shard.val, shard.test]), vocab)
        assert rebuilt == data

    def test_vocab_overflow(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"abcz" * 30)
        vocab = build_byte_vocab(b"abc")
        with pytest.raises(ValueError, match="overflow"):
            load_text_shard(p, vocab)
