"""Named experiment presets and config resolution.

A config is a plain JSON-able dict (schema documented in the README); presets
are builders for the shipped scenarios:

  fig2         three-level, seven-node tree over two quantity-skewed source
               clusters (one big + one small leaf per cluster)
  fig2-swapped the same tree with the two small leaves exchanged across
               sub-federations, breaking the cluster relationship
  iid          the same tree with every node sampling one shared source
  dp-cc-wk     fig2 with DP on the first sibling leaf pair
  dp-pbc-pba   fig2 with DP on the second sibling leaf pair
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import AttentionConfig, ScheduleConfig
from .datagen import (
    MarkovSource,
    MixtureSpec,
    Shard,
    build_byte_vocab,
    build_hierarchy_dataset,
    make_clustered_sources,
    split_stream,
)
from .engine import EngineConfig
from .model import ModelConfig, TrainerConfig
from .privacy import DpConfig
from .topology import (TRAINER_KEYS, FederationTree, reject_unknown_keys, tree_from_json,
                       tree_to_json, validate)

# Fig. 2-style tree: root 0, two mid servers, two leaves each.
_FIG2_CHILDREN = {0: [1, 2], 1: [3, 4], 2: [5, 6]}
# big:small = 4:1 quantity skew inside each cluster
_FIG2_BUDGETS = {3: 16000, 4: 4000, 5: 16000, 6: 4000}
_FIG2_SOURCES = {3: "c0s0", 4: "c0s1", 5: "c1s0", 6: "c1s1"}


def _base_config() -> dict:
    return {
        "name": "fig2",
        "tree": tree_to_json(FederationTree.from_children_map(_FIG2_CHILDREN)),
        "data": {
            "kind": "clustered",
            "vocab_size": 32,
            "num_clusters": 2,
            "sources_per_cluster": 2,
            "divergence": 0.8,
            "concentration": 0.1,
            "intra_jitter": 0.25,
            "leaf_budgets": {str(k): v for k, v in _FIG2_BUDGETS.items()},
            "leaf_sources": {str(k): v for k, v in _FIG2_SOURCES.items()},
            "val_tokens": 1024,
            "test_tokens": 2048,
            "internal_budget_scale": 1.0,
        },
        "model": {
            "vocab_size": 32,
            "embed_dim": 16,
            "num_blocks": 3,
            "expansion_ratio": 4,
            "key_block_count": 1,
            "context_len": 2,
            "include_head_in_keys": False,
        },
        "trainer": {
            "optimizer": "adam",
            "beta1": 0.9,
            "beta2": 0.95,
            "local_steps": 96,
            "batch_size": 32,
        },
        "schedule": {"alpha": 0.05, "eta_max": 0.03, "total_steps": None},
        "attention": {
            "similarity": "cosine",
            "temperature": 1.0,
            "include_self": True,
            "uniform": False,
        },
        "server": {"eta": 0.2, "mu": 0.9},
        "residual": {"nu": 1, "threshold": 0.999},
        "dp": None,
        "rounds": 12,
    }


def _fig2() -> dict:
    return _base_config()


def _fig2_swapped() -> dict:
    cfg = _base_config()
    cfg["name"] = "fig2-swapped"
    # exchange the two smaller datasets across sub-federations
    src = cfg["data"]["leaf_sources"]
    src["4"], src["6"] = src["6"], src["4"]
    return cfg


def _iid() -> dict:
    cfg = _base_config()
    cfg["name"] = "iid"
    cfg["data"].update({
        "num_clusters": 1,
        "sources_per_cluster": 1,
        "divergence": 0.0,
        "leaf_budgets": {str(k): 10000 for k in _FIG2_BUDGETS},
        "leaf_sources": {str(k): "c0s0" for k in _FIG2_BUDGETS},
    })
    return cfg


def _dp(pair: tuple[int, int], name: str) -> dict:
    # DP presets run a gentler operating point: at this model size the
    # round-zero noise kick (sigma * S0 per coordinate) dwarfs typical
    # pseudo-gradient norms, and with mu=0.9 the two nested server momentum
    # buffers integrate that kick for ~10 rounds before forgetting it, which
    # blows up every backbone in the tree. Halving the server momentum and
    # slowing local training keeps the hierarchy stable under noise while
    # the flat baseline (4x the noise throughput at its single server) still
    # diverges.
    cfg = _base_config()
    cfg["name"] = name
    cfg["server"]["mu"] = 0.5
    cfg["trainer"]["local_steps"] = 64
    cfg["schedule"]["eta_max"] = 0.003
    cfg["schedule"]["alpha"] = 0.3
    cfg["dp"] = {"sigma": 0.5, "initial_bound": 1.0,
                 "enabled_nodes": list(pair), "absolute_noise": False}
    return cfg


PRESETS = {
    "fig2": _fig2,
    "fig2-swapped": _fig2_swapped,
    "iid": _iid,
    "dp-cc-wk": lambda: _dp((3, 4), "dp-cc-wk"),
    "dp-pbc-pba": lambda: _dp((5, 6), "dp-pbc-pba"),
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()


def load_config(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def apply_overrides(config: dict, overrides: dict[str, object]) -> dict:
    """Dotted-path overrides, e.g. {"trainer.local_steps": 10}."""
    cfg = copy.deepcopy(config)
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        cur = cfg
        for p in parts[:-1]:
            if p not in cur or not isinstance(cur[p], dict):
                cur[p] = {}
            cur = cur[p]
        cur[parts[-1]] = value
    return cfg


@dataclass
class ResolvedExperiment:
    name: str
    config: dict
    tree: FederationTree
    shards: dict[int, Shard]
    sources: dict[str, MarkovSource]
    engine: EngineConfig
    stages_per_round: int

    @property
    def leaf_ids(self) -> list[int]:
        return self.tree.leaves()

    @property
    def total_stages(self) -> int:
        return self.engine.rounds * self.stages_per_round


def _fields(cls, *skip: str) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.name not in skip]


_TOP_KEYS = ("name", "tree", "data", "model", "trainer", "schedule", "attention", "server",
             "residual", "dp", "rounds", "seed")  # a manifest's config also carries its seed
_CLUSTERED_KEYS = ("kind", "vocab_size", "num_clusters", "sources_per_cluster", "divergence",
                   "concentration", "intra_jitter", "leaf_sources", "leaf_budgets",
                   "val_tokens", "test_tokens", "internal_budget_scale")
_DATA_KEYS = {"clustered": _CLUSTERED_KEYS, "iid": _CLUSTERED_KEYS, "text": ("kind", "path")}
_SECTION_KEYS = {
    "model": _fields(ModelConfig),
    "trainer": TRAINER_KEYS,
    "schedule": _fields(ScheduleConfig),
    "attention": _fields(AttentionConfig),
    "server": ["eta", "mu"],
    "residual": ["nu", "threshold"],
    "dp": _fields(DpConfig),
}


def _check_keys(cfg: dict) -> None:
    """Reject a section that is not an object, and a key that the config,
    or a section of it, does not take."""
    reject_unknown_keys("config", cfg, _TOP_KEYS)
    for section in ("tree", "data", *_SECTION_KEYS):
        value = cfg.get(section)  # only dp may be null
        if not isinstance(value, dict) and (value is not None or section != "dp"):
            raise ValueError(f"config {section}: expected an object, got {value!r}")
        if section in _SECTION_KEYS and value is not None:
            reject_unknown_keys(f"config {section}", value, _SECTION_KEYS[section])
    kind = cfg["data"]["kind"]
    if kind not in _DATA_KEYS:
        raise ValueError(f"unknown data kind {kind!r}")
    reject_unknown_keys(f"config data ({kind})", cfg["data"], _DATA_KEYS[kind])


def _build_clustered_shards(tree: FederationTree, data: dict, seed: int):
    sources = make_clustered_sources(
        num_clusters=data["num_clusters"],
        sources_per_cluster=data["sources_per_cluster"],
        divergence=data["divergence"],
        vocab_size=data["vocab_size"],
        seed=seed,
        concentration=data.get("concentration", 0.3),
        intra_jitter=data.get("intra_jitter", 0.25),
    )
    by_id = {s.id: s for s in sources}
    assignment = {}
    for leaf_str, source_id in data["leaf_sources"].items():
        leaf = int(leaf_str)
        budget = data["leaf_budgets"][leaf_str]
        assignment[leaf] = MixtureSpec.from_budgets([(source_id, budget)])
    shards = build_hierarchy_dataset(
        tree, assignment, by_id, seed,
        val_tokens=data.get("val_tokens", 1024),
        test_tokens=data.get("test_tokens", 2048),
        internal_budget_scale=data.get("internal_budget_scale", 1.0),
    )
    return shards, by_id


def _build_text_shards(tree: FederationTree, data: dict):
    path = Path(data["path"])
    raw = path.read_bytes()
    if not raw:
        raise ValueError(f"empty file: {path}")
    vocab = build_byte_vocab(raw)
    tokens = np.array([vocab[b] for b in raw], dtype=np.int64)
    leaves = tree.leaves()
    chunk = len(tokens) // len(leaves)
    if chunk < 40:
        raise ValueError("file too small to split across leaves")
    shards = {}
    for i, leaf in enumerate(leaves):
        shards[leaf] = split_stream(tokens[i * chunk : (i + 1) * chunk], f"text:{path.name}#{i}")
    # internal nodes evaluate on the concatenation of their leaves' splits
    for nid in sorted(tree.nodes):
        if tree.is_leaf(nid):
            continue
        subs = [shards[l] for l in tree.descendant_leaves(nid)]
        shards[nid] = Shard(
            train=np.concatenate([s.train for s in subs]),
            val=np.concatenate([s.val for s in subs]),
            test=np.concatenate([s.test for s in subs]),
            provenance=subs[0].provenance,
        )
    return shards, {}, len(vocab)


def resolve(config: dict, seed: int, rounds: int | None = None) -> ResolvedExperiment:
    """Instantiate tree, data, and engine config for one experiment run."""
    cfg = copy.deepcopy(config)
    if rounds is not None:
        cfg["rounds"] = rounds
    if cfg["rounds"] < 1:
        raise ValueError("rounds must be >= 1")
    _check_keys(cfg)
    trainer = TrainerConfig(**cfg["trainer"])  # its schedule is set below
    tree = tree_from_json(cfg["tree"], trainer)
    bad = validate(tree)
    if bad:
        raise ValueError("invalid tree: " + "; ".join(bad))

    data = cfg["data"]
    if data["kind"] == "text":
        shards, sources, text_vocab = _build_text_shards(tree, data)
        if cfg["model"]["vocab_size"] < text_vocab:
            raise ValueError(
                f"model vocab {cfg['model']['vocab_size']} < text vocab {text_vocab}"
            )
    else:
        shards, sources = _build_clustered_shards(tree, data, seed)

    model = ModelConfig(**cfg["model"])
    sched = dict(cfg["schedule"])
    levels = tree.levels()
    trainable_stages = 0
    for level in levels:
        if any(tree.nodes[nid].trains_locally and nid in shards for nid in level):
            trainable_stages += 1

    def scheduled(t: TrainerConfig) -> TrainerConfig:
        """`t` on the experiment's schedule; a null total_steps spans every
        step `t` takes: rounds x trainable stages x its local_steps."""
        total = sched.get("total_steps")
        if total is None:
            total = max(1, cfg["rounds"] * trainable_stages * t.local_steps)
        return dataclasses.replace(t, schedule=ScheduleConfig(**{**sched, "total_steps": total}))

    trainer = scheduled(trainer)
    for node in tree.nodes.values():
        if node.trainer is not None:
            node.trainer = scheduled(node.trainer)
    attention = AttentionConfig(**cfg["attention"])
    dp = None
    if cfg.get("dp"):
        dp = DpConfig(
            sigma=cfg["dp"]["sigma"],
            initial_bound=cfg["dp"]["initial_bound"],
            enabled_nodes=frozenset(cfg["dp"]["enabled_nodes"]),
            absolute_noise=cfg["dp"].get("absolute_noise", False),
        )
    engine = EngineConfig(
        model=model,
        trainer=trainer,
        attention=attention,
        server_eta=cfg["server"]["eta"],
        server_mu=cfg["server"]["mu"],
        nu=cfg["residual"]["nu"],
        residual_threshold=cfg["residual"]["threshold"],
        dp=dp,
        rounds=cfg["rounds"],
        seed=seed,
    )
    # a null total_steps stays null: with the recorded rounds and tree it
    # derives every node's total again, which one number could not record
    resolved_cfg = copy.deepcopy(cfg)
    resolved_cfg["seed"] = seed
    return ResolvedExperiment(
        name=cfg.get("name", "custom"),
        config=resolved_cfg,
        tree=tree,
        shards=shards,
        sources=sources,
        engine=engine,
        stages_per_round=trainable_stages,
    )
