"""Synthetic heterogeneous corpora from first-order Markov sources.

Sources come in clusters: a divergence knob interpolates between one shared
transition matrix (0) and independent per-cluster matrices (1), with mild
intra-cluster jitter that also scales with divergence. Because the sources
are Markov chains, the optimal achievable perplexity is computable exactly
(exp of the entropy rate), which gives every experiment an absolute yardstick.

A node's data is a list of (source id, token budget) pairs, each source
sampled in proportion to its budget: one pair at a leaf, its descendant
leaves' pairs at an internal node (build_hierarchy_dataset).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass
class MarkovSource:
    id: str
    transition: np.ndarray  # (V, V) row-stochastic
    initial: np.ndarray  # (V,) distribution

    def __post_init__(self):
        T = np.asarray(self.transition, dtype=np.float64)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError(f"source {self.id}: transition must be square")
        if (T < 0).any():
            raise ValueError(f"source {self.id}: transition entries must be non-negative")
        if np.abs(T.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError(f"source {self.id}: transition rows must sum to 1")
        self.transition = T
        self.initial = np.asarray(self.initial, dtype=np.float64)
        if self.initial.shape != (len(T),):
            raise ValueError(f"source {self.id}: initial distribution has shape "
                             f"{self.initial.shape}, expected ({len(T)},)")
        if (self.initial < 0).any():
            raise ValueError(f"source {self.id}: initial entries must be non-negative")
        if abs(self.initial.sum() - 1.0) > 1e-9:
            raise ValueError(f"source {self.id}: initial distribution must sum to 1")

    @property
    def vocab_size(self) -> int:
        return self.transition.shape[0]


def stationary_distribution(transition: np.ndarray, tol: float = 1e-12,
                            max_iters: int = 100_000) -> np.ndarray:
    """Stationary row vector via power iteration from uniform."""
    T = np.asarray(transition, dtype=np.float64)
    V = T.shape[0]
    pi = np.full(V, 1.0 / V)
    for _ in range(max_iters):
        nxt = pi @ T
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() <= tol:
            return nxt
        pi = nxt
    raise ValueError("power iteration did not converge; chain may be reducible or periodic")


def entropy_rate(src: MarkovSource) -> float:
    """Nats/token: sum_i pi_i * sum_j T_ij * (-ln T_ij), with 0 ln 0 = 0."""
    pi = stationary_distribution(src.transition)
    T = src.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(T > 0, T * np.log(T), 0.0)
    return float(-(pi @ plogp.sum(axis=1)))


def cross_entropy_rate(p: MarkovSource, q: MarkovSource) -> float:
    """Expected nats/token of q's model on p's stationary stream."""
    if p.vocab_size != q.vocab_size:
        raise ValueError("vocab mismatch")
    pi = stationary_distribution(p.transition)
    with np.errstate(divide="ignore"):
        logq = np.log(q.transition)
    ce = -(p.transition * logq).sum(axis=1)
    return float(pi @ ce)


def clustered_source_ids(num_clusters: int, sources_per_cluster: int) -> list[str]:
    """The ids of make_clustered_sources' sources, in the order it builds them."""
    return [f"c{c}s{s}" for c in range(num_clusters) for s in range(sources_per_cluster)]


def make_clustered_sources(
    num_clusters: int,
    sources_per_cluster: int,
    divergence: float,
    vocab: int,
    seed: int,
    concentration: float = 0.3,
    intra_jitter: float = 0.25,
) -> list[MarkovSource]:
    """Build num_clusters * sources_per_cluster sources over `vocab` tokens.

    divergence=0 collapses everything onto one global matrix; divergence=1
    gives independent cluster matrices with intra_jitter-scaled perturbations
    inside each cluster. Rows are renormalized after every interpolation.
    """
    if vocab < 2:
        raise ValueError("a source needs a vocab of at least 2 tokens")
    if not (0.0 <= divergence <= 1.0):
        raise ValueError("divergence must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    alpha = np.full(vocab, concentration)

    def draw():
        return rng.dirichlet(alpha, size=vocab)

    def renorm(mat):
        return mat / mat.sum(axis=1, keepdims=True)

    global_mat = draw()
    out = []
    ids = iter(clustered_source_ids(num_clusters, sources_per_cluster))
    kappa = divergence * intra_jitter
    for c in range(num_clusters):
        cluster_mat = renorm((1.0 - divergence) * global_mat + divergence * draw())
        for _ in range(sources_per_cluster):
            T = renorm((1.0 - kappa) * cluster_mat + kappa * draw())
            out.append(MarkovSource(
                id=next(ids),
                transition=T,
                initial=stationary_distribution(T),
            ))
    return out


def sample_tokens(src: MarkovSource, length: int, rng) -> np.ndarray:
    """`length` tokens of the chain, each drawn by inverse CDF from one
    uniform of `rng.random(length)`: the first from `initial`, each next
    from its predecessor's transition row."""
    if length < 1:
        raise ValueError("length must be positive")
    # bisect_right counts a cumulative row's entries <= u; dropping the last
    # entry sends a u at or past a row's rounded total to token V - 1.
    rows = np.cumsum(src.transition, axis=1)[:, :-1].tolist()
    rows.append(np.cumsum(src.initial)[:-1].tolist())
    cur = -1  # the initial distribution's row
    return np.array([cur := bisect_right(rows[cur], x) for x in rng.random(length).tolist()],
                    dtype=np.int64)


def markov_perplexity(src: MarkovSource, tokens: np.ndarray) -> float:
    """Perplexity of the true transition model on a token stream."""
    tokens = np.asarray(tokens)
    if len(tokens) < 2:
        raise ValueError("need at least two tokens")
    probs = src.transition[tokens[:-1], tokens[1:]]
    return float(np.exp(-np.log(probs).mean()))


class ContextIndex(NamedTuple):
    """A token stream's stride-1 (n+1)-token windows sorted by their n
    context tokens, each ranked into a sorted array of distinct contexts, so
    that each distinct context can run through a model once
    (model.window_nlls). Streams indexed together (of_streams) share one
    `distinct` array, their union, and one pass over it scores them all.
    An index depends only on its streams and n: a split that is scored many
    times is indexed once (Shard.context_index)."""

    order: np.ndarray  # window positions, sorted by context
    targets: np.ndarray  # each sorted window's target token
    rank: np.ndarray  # each sorted window's row of `distinct`
    distinct: np.ndarray  # the distinct contexts, sorted by last token first
    token_range: tuple[int, int]  # the stream's smallest and largest token id

    @classmethod
    def of_streams(cls, streams, n: int) -> list["ContextIndex"]:
        """One index per stream, all ranking into one shared `distinct`."""
        streams = [np.asarray(tokens) for tokens in streams]
        if any(len(tokens) < n + 1 for tokens in streams):
            raise ValueError("empty or too-short evaluation shard")
        windows = np.concatenate([np.lib.stride_tricks.sliding_window_view(tokens, n + 1)
                                  for tokens in streams])
        # sorted by context, a window opens a run of equal contexts when it
        # differs from the one before; lexsort compares the token ids as they
        # are, so no vocab size or context length can overflow it. It is
        # stable, so each stream's windows keep their own sorted order.
        order = np.lexsort(windows[:, :n].T)
        contexts = windows[order, :n]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (contexts[1:] != contexts[:-1]).any(axis=1)
        targets, rank, distinct = windows[order, n], np.cumsum(first) - 1, contexts[first]
        starts = np.cumsum([0] + [len(tokens) - n for tokens in streams])
        out = []
        for tokens, lo, hi in zip(streams, starts, starts[1:]):
            mine = (order >= lo) & (order < hi)
            out.append(cls(order[mine] - lo, targets[mine], rank[mine], distinct,
                           (int(tokens.min()), int(tokens.max()))))
        return out


EVAL_SPLITS = ("val", "test")  # the splits a node's model is scored on


@dataclass(frozen=True)
class Shard:
    """A node's train, val and test token streams. The splits are never
    reassigned or written, so what is derived from one can be kept."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    # (split, context length) -> the split's ContextIndex
    _indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("train", "val", "test"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.size == 0:
                raise ValueError(f"{name} split is empty")
            object.__setattr__(self, name, arr)

    def digest(self) -> str:
        """SHA-256 of the three splits, each token as a little-endian uint16."""
        h = hashlib.sha256()
        for name in ("train", "val", "test"):
            tokens = getattr(self, name)
            if tokens.min() < 0 or tokens.max() > 0xFFFF:
                raise ValueError(f"{name} split: token ids must lie in [0, 65535] "
                                 "to be digested")
            h.update(tokens.astype("<u2").tobytes())
        return h.hexdigest()

    @classmethod
    def union(cls, shards: list[Shard]) -> Shard:
        """The shard whose every split joins the shards' own, in order."""
        return cls(*(np.concatenate([getattr(s, name) for s in shards])
                     for name in ("train", "val", "test")))

    def context_index(self, split: str, n: int) -> ContextIndex:
        """The ContextIndex of a split's n-token contexts, built on first use.
        The eval splits are indexed together, into one shared context set, so
        a model scores both in one pass over it (model.window_nlls)."""
        if (split, n) not in self._indexes:
            group = EVAL_SPLITS if split in EVAL_SPLITS else (split,)
            indexes = ContextIndex.of_streams([getattr(self, name) for name in group], n)
            self._indexes.update({(name, n): index for name, index in zip(group, indexes)})
        return self._indexes[split, n]


# Fixed stream tags so every (seed, node, split) pair draws from its own RNG.
_SPLIT_TAG = {"train": 1, "val": 2, "test": 3}


def sample_mixture_stream(
    mixture: list[tuple[str, int]],
    sources: dict[str, MarkovSource],
    size: int,
    seed_key: tuple[int, ...],
) -> np.ndarray:
    """`size` tokens: Markov segments, one per (source id, token budget) pair
    in order, each sized in proportion to its budget and the last taking the
    rounding remainder (at least 1), joined and cut to `size`."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_key)))
    total = sum(b for _, b in mixture)
    counts = [int(round(b / total * size)) for _, b in mixture]
    counts[-1] = max(1, size - sum(counts[:-1]))
    return np.concatenate([sample_tokens(sources[sid], count, rng)
                           for (sid, _), count in zip(mixture, counts) if count > 0])[:size]


def sample_shard(
    mixture: list[tuple[str, int]],
    sources: dict[str, MarkovSource],
    seed: int,
    node_id: int,
    train_tokens: int,
    val_tokens: int,
    test_tokens: int,
) -> Shard:
    sizes = {"train": train_tokens, "val": val_tokens, "test": test_tokens}
    return Shard(**{name: sample_mixture_stream(mixture, sources, size,
                                                (seed, node_id, _SPLIT_TAG[name]))
                    for name, size in sizes.items()})


def node_train_budget(leaf_budgets: list[int], scale: float) -> int:
    """A node's train split in tokens: `scale` times the mean budget of its
    descendant leaves, at least 1."""
    return max(1, int(round(scale * np.mean(leaf_budgets))))


def build_hierarchy_dataset(
    tree,
    leaf_budgets: dict[int, tuple[str, int]],
    sources: dict[str, MarkovSource],
    seed: int,
    val_tokens: int = 1024,
    test_tokens: int = 2048,
    internal_budget_scale: float = 1.0,
) -> dict[int, Shard]:
    """Shards for every node of a federation tree (a topology.FederationTree),
    from one (source id, token budget) pair per leaf.

    A node samples its descendant leaves' pairs, merged by source and sorted
    by source id, so each source's share is its summed budget's. A leaf's
    train split is its budget; an internal node's is internal_budget_scale
    * mean(descendant leaf budgets).
    """
    missing = [nid for nid in tree.leaves() if nid not in leaf_budgets]
    if missing:
        raise ValueError(f"unassigned leaves: {missing}")
    for leaf, (_, budget) in sorted(leaf_budgets.items()):
        if budget < 1:
            raise ValueError(f"leaf {leaf}: token budget {budget} is below 1")

    shards: dict[int, Shard] = {}
    for nid in sorted(tree.nodes):
        pairs = [leaf_budgets[lid] for lid in tree.descendant_leaves(nid)]
        merged: dict[str, int] = {}
        for sid, b in pairs:
            merged[sid] = merged.get(sid, 0) + b
        scale = 1.0 if tree.is_leaf(nid) else internal_budget_scale
        budget = node_train_budget([b for _, b in pairs], scale)
        shards[nid] = sample_shard(sorted(merged.items()), sources, seed, nid, budget,
                                   val_tokens, test_tokens)
    return shards


def build_byte_vocab(data: bytes) -> dict[int, int]:
    return {b: i for i, b in enumerate(sorted(set(data)))}


def split_sizes(n: int) -> tuple[int, int, int]:
    """The train, val and test lengths of a fixed 90/5/5 split of n tokens."""
    n_train, n_val = int(n * 0.9), int(n * 0.05)
    return n_train, n_val, n - n_train - n_val


def split_stream(tokens: np.ndarray, source_id: str) -> Shard:
    """The positional train/val/test split of one token stream, sized by split_sizes."""
    n_train, n_val, n_test = split_sizes(len(tokens))
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"{source_id} is too small for a 90/5/5 split")
    return Shard(train=tokens[:n_train], val=tokens[n_train : n_train + n_val],
                 test=tokens[n_train + n_val :])

