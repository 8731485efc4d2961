"""Named experiment presets, the config format and config resolution.

A config is a plain JSON-able dict (schema documented in the README). Each
of its sections, and its top level, has a dataclass that is its only schema;
from_json parses a section against it. resolve parses every section before
it samples any data. PRESETS holds the shipped scenarios, each fig2's config
with its changes applied through apply_overrides or swap_sources:

  fig2         three-level, seven-node tree over two quantity-skewed source
               clusters (one big + one small leaf per cluster)
  fig2-swapped the same tree with the two small leaves exchanged across
               sub-federations (the swap ablation axis), breaking the cluster
               relationship
  iid          the same tree with every node sampling one shared source
  dp-cc-wk     fig2 with DP on the first sibling leaf pair
  dp-pbc-pba   fig2 with DP on the second sibling leaf pair
"""

from __future__ import annotations

import copy
import dataclasses
import difflib
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import AttentionConfig, ScheduleConfig
from .datagen import (
    MarkovSource,
    Shard,
    build_byte_vocab,
    build_hierarchy_dataset,
    clustered_source_ids,
    make_clustered_sources,
    node_train_budget,
    split_sizes,
    split_stream,
)
from .engine import EngineConfig, ResidualConfig, ServerConfig, check_tree_and_dp, stage_trainees
from .model import ModelConfig, TrainerConfig
from .privacy import DpConfig
from .topology import FederationTree, NodeSpec

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", frozenset: "a list", dict: "an object"}


def _mismatch(value, tp, path: str) -> tuple[str, str, object] | None:
    """(path, expected JSON type, value) of the first part of `value` that
    annotation `tp` does not take, or None. An int counts as a float, a bool
    as neither, a float must be finite (JSON readers take NaN and Infinity),
    and a list stands for a list or frozenset."""
    args = typing.get_args(tp)
    if type(None) in args:  # tp is X | None
        if value is None:
            return None
        [tp] = [a for a in args if a is not type(None)]
        args = typing.get_args(tp)
    kind = typing.get_origin(tp) or tp
    json_type = {frozenset: list, float: (int, float)}.get(kind, kind)
    if not isinstance(value, json_type) or isinstance(value, bool) and kind is not bool:
        return path, _JSON_TYPES[kind], value
    if isinstance(value, float) and not math.isfinite(value):
        return path, "a finite number", value
    items = value.items() if kind is dict else enumerate(value) if json_type is list else ()
    for key, item in items if args else ():
        bad = _mismatch(item, args[-1], f"{path}.{key}")
        if bad:
            return bad
    return None


def from_json(cls, obj, where: str, base=None):
    """cls(**obj), or replace(base, **obj), for a JSON object whose keys are
    the dataclass's fields, except dataclass-typed ones (sections of their
    own). Raises a ValueError starting with `where` for a non-object, an
    unknown key, a value of a JSON type the field's annotation does not
    take, a missing field without a default, or a value cls rejects."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {obj!r}")
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if not any(
        map(dataclasses.is_dataclass, (hints[f.name], *typing.get_args(hints[f.name]))))]
    keys = [f.name for f in fields]
    for key, value in obj.items():
        if key not in keys:
            close = difflib.get_close_matches(key, keys, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"expected one of {keys}"
            raise ValueError(f"{where}: unknown key {key!r}; {hint}")
        bad = _mismatch(value, hints[key], key)
        if bad:
            raise ValueError(f"{where} {bad[0]}: expected {bad[1]}, got {bad[2]!r}")
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if base is None and required and f.name not in obj:
            raise ValueError(f"{where}: missing key {f.name!r}")
    try:
        return cls(**obj) if base is None else dataclasses.replace(base, **obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass(kw_only=True)
class _Sections:
    """A config's top level; resolve parses each section on its own."""

    name: str = "custom"
    tree: dict
    data: dict
    model: dict
    trainer: dict
    schedule: dict
    attention: dict
    server: dict
    residual: dict
    dp: dict | None = None
    rounds: int
    seed: int | None = None  # a manifest's config carries its run's seed, which must match


@dataclass(kw_only=True)
class ClusteredData:
    """Clustered Markov sources (kind "clustered") over the model's vocab."""

    kind: str
    num_clusters: int
    sources_per_cluster: int
    divergence: float
    concentration: float = 0.3
    intra_jitter: float = 0.25
    leaf_sources: dict[str, str]
    leaf_budgets: dict[str, int]
    val_tokens: int = 1024
    test_tokens: int = 2048
    internal_budget_scale: float = 1.0

    def __post_init__(self):
        if not 0 <= self.divergence <= 1:
            raise ValueError(f"divergence must lie in [0, 1], got {self.divergence!r}")
        if not self.concentration > 0:
            raise ValueError(f"concentration must be positive, got {self.concentration!r}")
        # a source mixes its cluster's matrix with weight 1 - divergence * intra_jitter
        if not (self.intra_jitter >= 0 and self.divergence * self.intra_jitter <= 1):
            raise ValueError(f"intra_jitter must be >= 0 with divergence * intra_jitter <= 1, "
                             f"got {self.intra_jitter!r}")


@dataclass
class TextData:
    """A byte-level text file, split evenly across the leaves."""

    kind: str
    path: str


@dataclass
class _TreeJson:
    nodes: list


def tree_from_json(obj, trainer: TrainerConfig) -> FederationTree:
    """The tree a JSON object describes. A node's trainer block is laid over
    `trainer`, the experiment's, so unset keys keep its values."""
    nodes = {}
    for entry in from_json(_TreeJson, obj, "tree").nodes:
        if not isinstance(entry, dict):
            raise ValueError(f"tree nodes: expected an object per node, got {entry!r}")
        where = f"tree node {entry.get('id')}"
        if "dp_enabled" in entry:
            raise ValueError(f"{where}: unknown key 'dp_enabled'; "
                             "list DP clients in dp.enabled_nodes instead")
        node = from_json(NodeSpec, {k: v for k, v in entry.items() if k != "trainer"}, where)
        if "trainer" in entry:
            if isinstance(entry["trainer"], dict) and "schedule" in entry["trainer"]:
                raise ValueError(f"{where}: a node trainer takes no schedule; "
                                 "every node follows the experiment's")
            node.trainer = from_json(TrainerConfig, entry["trainer"], f"{where} trainer",
                                     base=trainer)
        if node.id in nodes:
            raise ValueError(f"{where}: listed twice in tree nodes")
        nodes[node.id] = node
    return FederationTree(nodes)


def tree_to_json(tree: FederationTree) -> dict:
    """The JSON object of a tree. A node trainer is written without its
    schedule, which is the experiment's, and a node without one has no
    trainer key."""
    nodes = []
    for nid in sorted(tree.nodes):
        entry = dataclasses.asdict(tree.nodes[nid])
        if entry["trainer"] is None:
            del entry["trainer"]
        else:
            del entry["trainer"]["schedule"]
        nodes.append(entry)
    return {"nodes": nodes}


# Fig. 2-style tree: root 0, two mid servers, two leaves each.
_FIG2_CHILDREN = {0: [1, 2], 1: [3, 4], 2: [5, 6]}
# big:small = 4:1 quantity skew inside each cluster
_FIG2_BUDGETS = {3: 16000, 4: 4000, 5: 16000, 6: 4000}
_FIG2_SOURCES = {3: "c0s0", 4: "c0s1", 5: "c1s0", 6: "c1s1"}

_FIG2 = {
    "name": "fig2",
    "tree": tree_to_json(FederationTree.from_children_map(_FIG2_CHILDREN)),
    "data": {
        "kind": "clustered",
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


def apply_overrides(config: dict, overrides: dict[str, object]) -> dict:
    """Dotted-path overrides, e.g. {"trainer.local_steps": 10}. A missing or
    null key on the path becomes an object; any other non-object is an error."""
    if not isinstance(config, dict):
        raise ValueError(f"config: expected an object, got {config!r}")
    cfg = copy.deepcopy(config)
    for dotted, value in overrides.items():
        *path, last = dotted.split(".")
        cur = cfg
        for depth, key in enumerate(path, 1):
            if cur.get(key) is None:
                cur[key] = {}
            cur = cur[key]
            if not isinstance(cur, dict):
                raise ValueError(f"override {dotted}: {'.'.join(path[:depth])} is "
                                 f"{_JSON_TYPES.get(type(cur), type(cur).__name__)}, not an object")
        cur[last] = value
    return cfg


def swap_sources(config: dict) -> dict:
    """`config` with the sources of its smallest-budget leaf (ties by id)
    and the next one in that order under another parent exchanged, so the
    swap crosses sub-federations, and "-swapped" added to its name. Leaves
    and parents are read from the config's own tree JSON."""
    data = config["data"]
    if data["kind"] != "clustered":
        raise ValueError(f"swap axis: data kind {data['kind']!r} has no leaf sources to exchange")
    parent = {node["id"]: node["parent"] for node in config["tree"]["nodes"]}
    leaves = [node["id"] for node in config["tree"]["nodes"] if not node.get("children")]
    first, *rest = sorted(leaves, key=lambda nid: (data["leaf_budgets"][str(nid)], nid))
    other = next((nid for nid in rest if parent[nid] != parent[first]), None)
    if other is None:
        raise ValueError("swap axis needs two leaves under different parents")
    src = data["leaf_sources"]
    return apply_overrides(config, {f"data.leaf_sources.{first}": src[str(other)],
                                    f"data.leaf_sources.{other}": src[str(first)],
                                    "name": config.get("name", "custom") + "-swapped"})


_IID = {"name": "iid", "data.num_clusters": 1, "data.sources_per_cluster": 1,
        "data.divergence": 0.0, "data.leaf_budgets": {str(k): 10000 for k in _FIG2_BUDGETS},
        "data.leaf_sources": {str(k): "c0s0" for k in _FIG2_BUDGETS}}

# DP presets run a gentler operating point: at this model size the
# round-zero noise kick (sigma * S0 per coordinate) dwarfs typical
# pseudo-gradient norms, and with mu=0.9 the two nested server momentum
# buffers integrate that kick for ~10 rounds before forgetting it, which
# blows up every backbone in the tree. Halving the server momentum and
# slowing local training keeps the hierarchy stable under noise while
# the flat baseline (4x the noise throughput at its single server) still
# diverges.
_DP = {"server.mu": 0.5, "trainer.local_steps": 64, "schedule.eta_max": 0.003,
       "schedule.alpha": 0.3, "dp.sigma": 0.5, "dp.initial_bound": 1.0}

# each preset is fig2's config with its changes applied
PRESETS = {
    "fig2": _FIG2,
    "fig2-swapped": swap_sources(_FIG2),
    "iid": apply_overrides(_FIG2, _IID),
    "dp-cc-wk": apply_overrides(_FIG2, {**_DP, "name": "dp-cc-wk", "dp.enabled_nodes": [3, 4]}),
    "dp-pbc-pba": apply_overrides(_FIG2, {**_DP, "name": "dp-pbc-pba", "dp.enabled_nodes": [5, 6]}),
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])


def load_config(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


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


def _clustered_shards(tree: FederationTree, data: ClusteredData, model: ModelConfig, seed: int):
    """Every node's shard and the sources, over the model's vocab, once that
    vocab holds at least 2 tokens, the leaf maps name the tree's leaves and
    known sources, every size (an internal node's train budget among them)
    fits a context window and the internal budget scale is positive."""
    if model.vocab_size < 2:
        raise ValueError(f"config model vocab_size: clustered sources need at least 2 tokens, "
                         f"got {model.vocab_size}")
    leaves = [str(leaf) for leaf in tree.leaves()]
    for name in ("leaf_sources", "leaf_budgets"):
        keys = getattr(data, name)
        for key in keys:
            if key not in leaves:
                raise ValueError(f"config data {name}: {key!r} is not a leaf of the tree; "
                                 f"its leaves are {leaves}")
        for leaf in leaves:
            if leaf not in keys:
                raise ValueError(f"config data {name}: missing leaf {leaf!r}")
    source_ids = clustered_source_ids(data.num_clusters, data.sources_per_cluster)
    for leaf, source in data.leaf_sources.items():
        if source not in source_ids:
            raise ValueError(f"config data leaf_sources.{leaf}: unknown source {source!r}; "
                             f"expected one of {source_ids}")
    window = model.context_len + 1
    sizes = [*((f"leaf_budgets.{leaf}", b) for leaf, b in data.leaf_budgets.items()),
             ("val_tokens", data.val_tokens), ("test_tokens", data.test_tokens)]
    for key, size in sizes:
        if size < window:
            raise ValueError(f"config data {key}: {size} tokens is less than one "
                             f"context window ({window} tokens)")
    if data.internal_budget_scale <= 0:
        raise ValueError("config data internal_budget_scale: must be positive, "
                         f"got {data.internal_budget_scale!r}")
    for nid in sorted(set(tree.nodes) - set(tree.leaves())):
        budget = node_train_budget([data.leaf_budgets[str(leaf)]
                                    for leaf in tree.descendant_leaves(nid)],
                                   data.internal_budget_scale)
        if budget < window:
            raise ValueError(f"config data internal_budget_scale: node {nid}'s train "
                             f"budget of {budget} tokens is less than one context window "
                             f"({window} tokens)")

    sources = make_clustered_sources(data.num_clusters, data.sources_per_cluster,
                                     data.divergence, model.vocab_size, seed,
                                     data.concentration, data.intra_jitter)
    by_id = {s.id: s for s in sources}
    leaf_budgets = {int(leaf): (source, data.leaf_budgets[leaf])
                    for leaf, source in data.leaf_sources.items()}
    shards = build_hierarchy_dataset(tree, leaf_budgets, by_id, seed, data.val_tokens,
                                     data.test_tokens, data.internal_budget_scale)
    return shards, by_id


def _text_shards(tree: FederationTree, data: TextData, model: ModelConfig, _seed: int):
    """Every node's shard, and no sources, once the file's bytes fit the
    model's vocab and its splits a context window: each leaf splits an equal
    chunk of the file (split_stream), and an internal node joins its leaves'."""
    path = Path(data.path)
    raw = path.read_bytes()
    if not raw:
        raise ValueError(f"empty file: {path}")
    vocab = build_byte_vocab(raw)
    if len(vocab) > model.vocab_size:
        raise ValueError(f"config data path: {path} holds {len(vocab)} distinct bytes, "
                         f"more than model vocab_size {model.vocab_size}")
    leaves = tree.leaves()
    chunk = len(raw) // len(leaves)
    window = model.context_len + 1
    for name, size in zip(("train", "val", "test"), split_sizes(chunk)):
        if size < window:  # every leaf's chunk has the same size
            raise ValueError(f"config data path: {path} gives leaf {leaves[0]} a {name} split "
                             f"of {size} tokens, less than one context window "
                             f"({window} tokens)")

    tokens = np.array([vocab[b] for b in raw], dtype=np.int64)
    shards = {leaf: split_stream(tokens[i * chunk : (i + 1) * chunk], f"text:{path.name}#{i}")
              for i, leaf in enumerate(leaves)}
    for nid in sorted(set(tree.nodes) - set(leaves)):
        shards[nid] = Shard.union([shards[leaf] for leaf in tree.descendant_leaves(nid)])
    return shards, {}


# data kind -> (its section's dataclass, the function that checks it and builds the shards)
_DATA_KINDS = {"clustered": (ClusteredData, _clustered_shards), "text": (TextData, _text_shards)}


def resolve(config: dict, seed: int) -> ResolvedExperiment:
    """Instantiate tree, data, and engine config for one experiment run.
    Every section is parsed before any data is sampled."""
    cfg = copy.deepcopy(config)
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed}")
    top = from_json(_Sections, cfg, "config")
    if top.seed is not None and top.seed != seed:
        raise ValueError(f"config seed: {top.seed} differs from the run's seed {seed}; "
                         f"pass --seed {top.seed}, or drop the key")
    if top.rounds < 1:
        raise ValueError(f"config rounds: must be >= 1, got {top.rounds}")
    model = from_json(ModelConfig, top.model, "config model")
    trainer = from_json(TrainerConfig, top.trainer, "config trainer")  # its schedule is set below
    if trainer.local_steps == 0:  # the baselines train with it
        raise ValueError("config trainer local_steps: the experiment trainer takes no step")
    schedule = from_json(ScheduleConfig, top.schedule, "config schedule")
    attention = from_json(AttentionConfig, top.attention, "config attention")
    server = from_json(ServerConfig, top.server, "config server")
    residual = from_json(ResidualConfig, top.residual, "config residual")
    dp = None if top.dp is None else from_json(DpConfig, top.dp, "config dp")
    kind = top.data.get("kind")
    if not isinstance(kind, str) or kind not in _DATA_KINDS:
        raise ValueError(f"config data kind: expected one of {list(_DATA_KINDS)}, got {kind!r}")
    data_cls, build_shards = _DATA_KINDS[kind]
    data = from_json(data_cls, top.data, "config data")
    tree = tree_from_json(top.tree, trainer)
    check_tree_and_dp(tree, dp)
    if not any(n.trains_locally and (n.trainer or trainer).local_steps for n in tree.nodes.values()):
        raise ValueError("config tree: no node trains locally with at least one local step")
    shards, sources = build_shards(tree, data, model, seed)

    trainable_stages = sum(1 for level in tree.levels()
                           if stage_trainees(tree, level, shards, trainer))

    def scheduled(t: TrainerConfig) -> TrainerConfig:
        """`t` on the experiment's schedule; a null total_steps spans every
        step `t` takes: rounds x trainable stages x its local_steps."""
        total = schedule.total_steps
        if total is None:
            total = max(1, top.rounds * trainable_stages * t.local_steps)
        return dataclasses.replace(t, schedule=dataclasses.replace(schedule, total_steps=total))

    for node in tree.nodes.values():
        if node.trainer is not None:
            node.trainer = scheduled(node.trainer)
    engine = EngineConfig(
        model=model,
        trainer=scheduled(trainer),
        attention=attention,
        server=server,
        residual=residual,
        dp=dp,
        rounds=top.rounds,
        seed=seed,
    )
    # a null total_steps stays null: with the recorded rounds and tree it
    # derives every node's total again, which one number could not record
    return ResolvedExperiment(
        name=top.name,
        config={**copy.deepcopy(cfg), "seed": seed},
        tree=tree,
        shards=shards,
        sources=sources,
        engine=engine,
        stages_per_round=trainable_stages,
    )
