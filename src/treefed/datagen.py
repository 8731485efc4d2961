"""Synthetic heterogeneous corpora from first-order Markov sources.

Sources come in clusters: a divergence knob interpolates between one shared
transition matrix (0) and independent per-cluster matrices (1), with mild
intra-cluster jitter that also scales with divergence. Because the sources
are Markov chains, the optimal achievable perplexity is computable exactly
(exp of the entropy rate), which gives every experiment an absolute yardstick.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class MarkovSource:
    id: str
    transition: np.ndarray  # (V, V) row-stochastic
    initial: np.ndarray  # (V,) distribution

    def __post_init__(self):
        T = np.asarray(self.transition, dtype=np.float64)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("transition must be square")
        if (T < 0).any():
            raise ValueError("transition entries must be non-negative")
        if np.abs(T.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("transition rows must sum to 1")
        self.transition = T
        self.initial = np.asarray(self.initial, dtype=np.float64)
        if abs(self.initial.sum() - 1.0) > 1e-9:
            raise ValueError("initial distribution must sum to 1")

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


def make_clustered_sources(
    num_clusters: int,
    sources_per_cluster: int,
    divergence: float,
    vocab_size: int,
    seed: int,
    concentration: float = 0.3,
    intra_jitter: float = 0.25,
) -> list[MarkovSource]:
    """Build num_clusters * sources_per_cluster sources.

    divergence=0 collapses everything onto one global matrix; divergence=1
    gives independent cluster matrices with intra_jitter-scaled perturbations
    inside each cluster. Rows are renormalized after every interpolation.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if not (0.0 <= divergence <= 1.0):
        raise ValueError("divergence must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    alpha = np.full(vocab_size, concentration)

    def draw():
        return rng.dirichlet(alpha, size=vocab_size)

    def renorm(mat):
        return mat / mat.sum(axis=1, keepdims=True)

    global_mat = draw()
    out = []
    kappa = divergence * intra_jitter
    for c in range(num_clusters):
        cluster_mat = renorm((1.0 - divergence) * global_mat + divergence * draw())
        for s in range(sources_per_cluster):
            T = renorm((1.0 - kappa) * cluster_mat + kappa * draw())
            out.append(MarkovSource(
                id=f"c{c}s{s}",
                transition=T,
                initial=stationary_distribution(T),
            ))
    return out


def sample_tokens(src: MarkovSource, length: int, rng) -> np.ndarray:
    if length < 1:
        raise ValueError("length must be positive")
    cum_init = np.cumsum(src.initial)
    cum = np.cumsum(src.transition, axis=1)
    u = rng.random(length)
    out = np.empty(length, dtype=np.int64)
    cur = int(np.searchsorted(cum_init, u[0], side="right"))
    out[0] = min(cur, src.vocab_size - 1)
    for t in range(1, length):
        cur = int(np.searchsorted(cum[out[t - 1]], u[t], side="right"))
        out[t] = min(cur, src.vocab_size - 1)
    return out


def markov_perplexity(src: MarkovSource, tokens: np.ndarray) -> float:
    """Perplexity of the true transition model on a token stream."""
    tokens = np.asarray(tokens)
    if len(tokens) < 2:
        raise ValueError("need at least two tokens")
    probs = src.transition[tokens[:-1], tokens[1:]]
    return float(np.exp(-np.log(probs).mean()))


@dataclass(frozen=True)
class MixtureComponent:
    source_id: str
    weight: float
    token_budget: int


@dataclass
class MixtureSpec:
    components: list[MixtureComponent]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(c.weight < 0 for c in self.components):
            raise ValueError("weights must be non-negative")
        if abs(sum(c.weight for c in self.components) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @classmethod
    def from_budgets(cls, budgets: list[tuple[str, int]]) -> "MixtureSpec":
        total = sum(b for _, b in budgets)
        if total <= 0:
            raise ValueError("total budget must be positive")
        return cls([MixtureComponent(sid, b / total, b) for sid, b in budgets])

    @property
    def total_budget(self) -> int:
        return sum(c.token_budget for c in self.components)


@dataclass
class Shard:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    provenance: MixtureSpec

    def __post_init__(self):
        for name in ("train", "val", "test"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.size == 0:
                raise ValueError(f"{name} split is empty")
            setattr(self, name, arr)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in ("train", "val", "test"):
            h.update(getattr(self, name).astype("<u2").tobytes())
        return h.hexdigest()


# Fixed stream tags so every (seed, node, split) pair draws from its own RNG.
_SPLIT_TAG = {"train": 1, "val": 2, "test": 3}


def sample_mixture_stream(
    spec: MixtureSpec,
    sources: dict[str, MarkovSource],
    size: int,
    seed_key: tuple[int, ...],
) -> np.ndarray:
    """Concatenated per-component Markov segments, sizes proportional to
    weight, in component order."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_key)))
    counts = [int(round(c.weight * size)) for c in spec.components]
    counts[-1] = max(1, size - sum(counts[:-1]))
    segments = []
    for comp, count in zip(spec.components, counts):
        if count <= 0:
            continue
        segments.append(sample_tokens(sources[comp.source_id], count, rng))
    return np.concatenate(segments)


def sample_shard(
    spec: MixtureSpec,
    sources: dict[str, MarkovSource],
    seed: int,
    node_id: int,
    train_tokens: int,
    val_tokens: int,
    test_tokens: int,
) -> Shard:
    sizes = {"train": train_tokens, "val": val_tokens, "test": test_tokens}
    splits = {
        name: sample_mixture_stream(spec, sources, size, (seed, node_id, _SPLIT_TAG[name]))
        for name, size in sizes.items()
    }
    return Shard(provenance=spec, **splits)


def build_hierarchy_dataset(
    tree,
    assignment: dict[int, MixtureSpec],
    sources: dict[str, MarkovSource],
    seed: int,
    val_tokens: int = 1024,
    test_tokens: int = 2048,
    internal_budget_scale: float = 1.0,
) -> dict[int, Shard]:
    """Shards for every node of a federation tree.

    Leaves sample from their assigned specs. Each internal node samples from
    the budget-weighted mixture of its descendant leaves' specs, with a train
    budget of internal_budget_scale * mean(descendant leaf budgets).
    """
    from .topology import FederationTree  # cycle guard: topology has no datagen dep

    assert isinstance(tree, FederationTree)
    missing = [nid for nid in tree.leaves() if nid not in assignment]
    if missing:
        raise ValueError(f"unassigned leaves: {missing}")

    shards: dict[int, Shard] = {}
    for nid in sorted(tree.nodes):
        if tree.is_leaf(nid):
            spec = assignment[nid]
            budget = spec.total_budget
        else:
            leaf_ids = sorted(tree.descendant_leaves(nid))
            budgets = []
            for lid in leaf_ids:
                budgets.append((lid, assignment[lid].total_budget))
            merged: dict[str, int] = {}
            for lid, b in budgets:
                for comp in assignment[lid].components:
                    merged[comp.source_id] = merged.get(comp.source_id, 0) + comp.token_budget
            spec = MixtureSpec.from_budgets(sorted(merged.items()))
            budget = max(1, int(round(internal_budget_scale * np.mean([b for _, b in budgets]))))
        shards[nid] = sample_shard(spec, sources, seed, nid, budget, val_tokens, test_tokens)
    return shards


def build_byte_vocab(data: bytes) -> dict[int, int]:
    return {b: i for i, b in enumerate(sorted(set(data)))}


def load_text_shard(path: str | Path, vocab_map: dict[int, int] | None = None) -> Shard:
    """Byte-level ingestion with a fixed 90/5/5 positional split."""
    data = Path(path).read_bytes()
    if not data:
        raise ValueError(f"empty file: {path}")
    if vocab_map is None:
        vocab_map = {i: i for i in range(256)}
    try:
        tokens = np.array([vocab_map[b] for b in data], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"byte {exc.args[0]} not in vocab map (vocab overflow)") from exc
    n = len(tokens)
    n_train, n_val = int(n * 0.9), int(n * 0.05)
    if n_train < 1 or n_val < 1 or n - n_train - n_val < 1:
        raise ValueError("file too small for a 90/5/5 split")
    spec = MixtureSpec([MixtureComponent(f"text:{Path(path).name}", 1.0, n)])
    return Shard(
        train=tokens[:n_train],
        val=tokens[n_train : n_train + n_val],
        test=tokens[n_train + n_val :],
        provenance=spec,
    )


def detokenize(tokens: np.ndarray, vocab_map: dict[int, int]) -> bytes:
    inverse = {v: k for k, v in vocab_map.items()}
    return bytes(inverse[int(t)] for t in tokens)
