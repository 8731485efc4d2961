"""Round execution for a federation tree plus the flat/local/centralized
baselines, all sharing the same trainers, seeds, and step accounting.

`fit` runs each round as phases over one `_Run` state, after *start* has
checked the tree and initialized every node. It walks the tree level by
level (top-down); every level is one *stage*, whose nodes are logically
simultaneous. A stage's *enter* takes each node in level order: it adopts
its parent's freshly trained backbone and merges keys by attention with the
parent and, at a leaf, the residual packets routed to it; a server routes its
packets to its children, scoring their current keys. *train* then stacks the
level's nodes that share a trainer and a schedule position into one
local_train call (up to model.stack_width nodes), and *evaluate* scores every
node. After the last stage, *aggregate* runs at each server bottom-up:
pseudo-gradient averaging with server momentum for backbones (with DP
sanitization of flagged children's deltas), per-layer attention for keys, and
dissimilarity-based residual selection. Each selected packet goes straight
to the server where it turns around (its ceiling, or the selecting server
when the ceiling lies below it), which routes it in the next round; every
hop below happens in that round too.

A stage consumes one sequential step when at least one of its nodes trains;
baselines are budgeted in the same units. Every runner stacks its same-shape
trainings the same way, so the baselines train their leaves together too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .aggregation import (
    AttentionConfig,
    ServerConfig,
    WeightLog,
    aggregate_child_keys,
    average_pseudograds,
    merge_with_parent,
    server_opt,
)
from .datagen import EVAL_SPLITS, Shard
from .model import (
    ModelConfig,
    Partition,
    TrainerConfig,
    TrainJob,
    TrainResult,
    context_len,
    init_model,
    local_train,
    mean_nll,
    stack_width,
    window_nlls,
)
from .privacy import DpConfig, add_noise, clip, next_bound
from .residual import ResidualPacket, partition_residuals, route_residuals, turn_node
from .tensors import ParamSet, axpy
from .topology import FederationTree, validate

# RNG stream tags: every draw comes from (seed, node, round, tag)
_TRAIN_TAG = 2
_NOISE_TAG = 3
_CENTRAL_NODE = 999_983  # stand-in node id for the pooled baseline stream


def rng_for(seed: int, node: int, round_k: int, tag: int):
    return np.random.default_rng(np.random.SeedSequence([seed, node, round_k, tag]))


class MetricRow(NamedTuple):
    method: str
    node: int
    round: int
    stage: int
    split: str
    loss: float
    perplexity: float


class AttentionRow(NamedTuple):
    """One candidate's weight in one layer's attention at a node."""

    node: int
    round: int
    stage: str  # "merge" with the parent, or "children" at aggregation
    layer: str
    candidate: str
    weight: float


class DpRow(NamedTuple):
    """One DP client's sanitized pseudo-gradient in one round."""

    round: int
    node: int
    pre_clip_norm: float
    bound: float
    noise_std: float


@dataclass
class ResidualConfig:
    """Per key layer, at most nu child layers below threshold similarity."""

    nu: int = 1
    threshold: float = 0.999

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be >= 0")


@dataclass
class EngineConfig:
    model: ModelConfig
    trainer: TrainerConfig
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    residual: ResidualConfig = field(default_factory=ResidualConfig)
    dp: DpConfig | None = None
    rounds: int = 1
    seed: int = 0


def stage_trainees(tree: FederationTree, level: list[int], shards: dict[int, Shard],
                   trainer: TrainerConfig) -> list[tuple[int, TrainerConfig]]:
    """The (node, trainer) pairs that train in a level's stage: nodes that
    train locally, hold a shard and take local steps under their trainer
    (their own, else `trainer`, the experiment's). A stage with any takes
    one sequential step."""
    trainers = {nid: tree.nodes[nid].trainer or trainer for nid in level}
    return [(nid, t) for nid, t in trainers.items()
            if tree.nodes[nid].trains_locally and nid in shards and t.local_steps > 0]


@dataclass
class RunResult:
    method: str
    rows: list[MetricRow]
    attention_log: list[AttentionRow] = field(default_factory=list)
    residual_log: list[dict] = field(default_factory=list)
    dp_log: list[DpRow] = field(default_factory=list)
    final_models: dict[int, ParamSet] = field(default_factory=dict)
    seq_steps: int = 0

    def final_leaf_ppl(self, leaf_ids, split="test") -> dict[int, float]:
        """Last logged perplexity per leaf on its own split."""
        out: dict[int, float] = {}
        for row in self.rows:
            if row.node in leaf_ids and row.split == split:
                out[row.node] = row.perplexity
        return out


@dataclass
class _NodeState:
    model: ParamSet  # replaced through _Run.set_model, never written
    momentum: ParamSet | None = None  # a server's optimizer state
    bound: float | None = None  # a server's clipping bound, if it has a DP client
    # residual packets for the node's next stage: a leaf merges them, a
    # server routes them to its children
    inbox: list[ResidualPacket] = field(default_factory=list)


def _row(method: str, nid: int, round_k: int, stage: int, split: str, nll: float) -> MetricRow:
    with np.errstate(over="ignore"):
        return MetricRow(method, nid, round_k, stage, split, nll, float(np.exp(nll)))


def evaluate_round(
    method: str,
    params_by_node: dict[int, ParamSet],
    shards: dict[int, Shard],
    round_k: int,
    stage: int,
    memo: dict[int, dict[str, float]] | None = None,
) -> list[MetricRow]:
    """Per-node perplexity rows on each node's own EVAL_SPLITS.

    `memo` maps a node to its NLL on each split, from the last time its
    model was scored, and a node with an entry is not scored again. It holds
    no model, so a caller that replaces a node's model must drop the node's
    entry. A shard's splits are indexed once, into one shared context set
    kept with the shard, and a node's model runs once over it.
    """
    memo = {} if memo is None else memo
    rows = []
    for nid in sorted(params_by_node):
        if nid not in shards:
            continue
        if nid not in memo:
            params, shard = params_by_node[nid], shards[nid]
            n = context_len(params.layout)
            scored = window_nlls(params, [shard.context_index(split, n) for split in EVAL_SPLITS])
            memo[nid] = {split: mean_nll(params, getattr(shard, split), nll=nll)
                         for split, nll in zip(EVAL_SPLITS, scored)}
        nlls = memo[nid]
        rows += [_row(method, nid, round_k, stage, split, nlls[split]) for split in EVAL_SPLITS]
    return rows


def _train_stacked(entries: list[tuple[int, TrainerConfig, int]],
                   make_job: Callable[[int], TrainJob]) -> Iterator[tuple[int, TrainResult]]:
    """Train (key, trainer, global step) entries, stacking entries that share
    a trainer and a global step into one local_train call of at most
    stack_width jobs, in the entries' order. A group's jobs are built by
    make_job(key) just before it trains, and its (key, result) pairs are
    yielded as soon as it is done, so a caller that consumes them at once
    holds one group's models at a time."""
    while entries:
        _, trainer, step = entries[0]
        keys = [key for key, t, s in entries if t == trainer and s == step]
        first = make_job(keys[0])
        keys = keys[:stack_width(first.params.layout)]
        jobs = [first] + [make_job(key) for key in keys[1:]]
        yield from zip(keys, local_train(jobs, trainer, step))
        entries = [e for e in entries if e[0] not in keys]


def server_step(server: ParamSet, clients: list[tuple[int, ParamSet]], momentum: ParamSet,
                bound: float | None, cfg: EngineConfig, round_k: int,
                dp_log: list[DpRow]) -> tuple[ParamSet, ParamSet, float | None]:
    """One server round over its clients' (id, trained parameters), in the
    given order. Each client's pseudo-gradient is its parameters minus the
    server's. A DP client's is clipped to the server's current `bound`,
    Gaussian noise from the client's (round, noise) stream is added, and one
    dp.csv row is logged. The mean pseudo-gradient then takes a server
    momentum step. Returns the new server parameters and momentum, and the
    next round's bound from this round's pre-clip norms (`bound` itself
    without a DP client). Every operation is looked up in this module's
    namespace, where the benchmark trace wraps it."""
    dp, deltas, norms = cfg.dp, [], []
    for cid, params in clients:
        delta = axpy(-1.0, server, params)
        if dp and cid in dp.enabled_nodes:
            clipped, pre_norm = clip(delta, bound)
            norms.append(pre_norm)
            delta = add_noise(clipped, dp.sigma, bound,
                              rng_for(cfg.seed, cid, round_k, _NOISE_TAG))
            dp_log.append(DpRow(round_k, cid, pre_norm, bound, dp.sigma * bound))
        deltas.append(delta)
    server, momentum = server_opt(server, average_pseudograds(deltas), momentum, cfg.server)
    return server, momentum, next_bound(bound, norms)


@dataclass
class _Run:
    """The state one `fit` shares between its phases, which are its methods."""

    tree: FederationTree
    shards: dict[int, Shard]
    cfg: EngineConfig
    part: Partition
    state: dict[int, _NodeState]
    result: RunResult
    # evaluate_round's memo: a node's NLL per split, dropped by set_model
    scored: dict[int, dict[str, float]] = field(default_factory=dict)

    @classmethod
    def start(cls, tree: FederationTree, shards: dict[int, Shard], cfg: EngineConfig) -> _Run:
        """Check the tree and DP clients; start every node from one model."""
        check_tree_and_dp(tree, cfg.dp)
        part = Partition.for_config(cfg.model)
        base = init_model(cfg.model, cfg.seed)
        zero = part.split(base)[0].zeros_like()
        state = {nid: _NodeState(model=base, momentum=zero if tree.nodes[nid].children else None)
                 for nid in tree.nodes}
        for nid in cfg.dp.enabled_nodes if cfg.dp else ():
            state[tree.nodes[nid].parent].bound = cfg.dp.initial_bound
        return cls(tree, shards, cfg, part, state, RunResult(method="worldlm", rows=[]))

    def enter(self, round_k: int, nid: int) -> None:
        """Adopt the parent's backbone and merge keys with the parent's and,
        at a leaf, the packets routed in; a server routes its packets to its
        children, unchanged since its last bottom-up step."""
        node, st, part = self.tree.nodes[nid], self.state[nid], self.part
        if node.parent is not None:
            parent = self.state[node.parent].model
            keys, weight_log = merge_with_parent(
                part.keys(st.model), part.keys(parent), [] if node.children else st.inbox,
                self.cfg.attention)
            self.log_attention(nid, round_k, "merge", weight_log)
            self.set_model(nid, part.assemble(parent, keys))
        if node.children and st.inbox:
            routed = route_residuals(
                st.inbox, [(cid, part.keys(self.state[cid].model)) for cid in node.children],
                self.cfg.attention, self.tree, round_k, router=nid)
            for cid, pkts in routed.landed.items():
                self.state[cid].inbox.extend(pkts)
            self.result.residual_log.extend(routed.events)
        st.inbox = []

    def train(self, round_k: int, stage: int, level: list[int]) -> None:
        """Train a level's trainees stacked and log their mean losses. A
        stage with any trainee takes one sequential step."""
        trainees = [(nid, t, self.result.seq_steps * t.local_steps)
                    for nid, t in stage_trainees(self.tree, level, self.shards, self.cfg.trainer)]
        outs = _train_stacked(trainees, lambda nid: TrainJob(
            self.state[nid].model, self.shards[nid].train,
            rng_for(self.cfg.seed, nid, round_k, _TRAIN_TAG)))
        losses = {}
        for nid, out in outs:
            self.set_model(nid, out.params)
            losses[nid] = out.mean_loss
        self.result.rows += [_row(self.result.method, nid, round_k, stage, "train", losses[nid])
                             for nid in sorted(losses)]
        self.result.seq_steps += bool(trainees)

    def evaluate(self, round_k: int, stage: int) -> None:
        """Score every node's current model on its own splits."""
        params = {nid: self.state[nid].model for nid in sorted(self.tree.nodes)}
        self.result.rows += evaluate_round(self.result.method, params, self.shards, round_k,
                                           stage, memo=self.scored)

    def aggregate(self, round_k: int, nid: int) -> None:
        """A server's bottom-up step over its children. A selected packet
        turns around at its ceiling, or here when that lies below."""
        st, part, cfg = self.state[nid], self.part, self.cfg
        children = sorted(self.tree.nodes[nid].children)
        backbone, keys = part.split(st.model)
        splits = {cid: part.split(self.state[cid].model) for cid in children}
        backbone, st.momentum, st.bound = server_step(
            backbone, [(cid, splits[cid][0]) for cid in children], st.momentum, st.bound, cfg,
            round_k, self.result.dp_log)
        child_keys = [(cid, splits[cid][1]) for cid in children]
        keys, weight_log = aggregate_child_keys(keys, child_keys, cfg.attention)
        self.log_attention(nid, round_k, "children", weight_log)
        for pkt in partition_residuals(keys, child_keys, cfg.residual.nu, cfg.attention,
                                       round_k, cfg.residual.threshold):
            self.state[turn_node(pkt, nid, self.tree)].inbox.append(pkt)
        self.set_model(nid, part.assemble(backbone, keys))

    def set_model(self, nid: int, model: ParamSet) -> None:
        """Replace a node's model and drop its scores, so that the old model
        (and the training stack it may be a row of) is freed and the new one
        is scored at the next evaluate."""
        self.state[nid].model = model
        self.scored.pop(nid, None)

    def log_attention(self, nid: int, round_k: int, stage: str, weight_log: WeightLog) -> None:
        for layer, (labels, weights) in weight_log.items():
            self.result.attention_log += [
                AttentionRow(nid, round_k, stage, layer, label, float(weight))
                for label, weight in zip(labels, weights, strict=True)]


def check_tree_and_dp(tree: FederationTree, dp: DpConfig | None) -> None:
    """Reject an invalid tree, or a DP client outside it or at its root."""
    bad = validate(tree)
    if bad:
        raise ValueError("invalid tree: " + "; ".join(bad))
    for nid in sorted(dp.enabled_nodes) if dp else ():
        if nid not in tree.nodes:
            raise ValueError(f"config dp enabled_nodes: node {nid} is not in the tree")
        if tree.nodes[nid].parent is None:
            raise ValueError(f"config dp enabled_nodes: node {nid} is the root, "
                             "which has no server to be a client of")


def fit(tree: FederationTree, shards: dict[int, Shard], cfg: EngineConfig) -> RunResult:
    """Execute `cfg.rounds` rounds of the hierarchical procedure."""
    run = _Run.start(tree, shards, cfg)
    stages = tree.levels()
    servers = [nid for level in reversed(stages) for nid in level if tree.nodes[nid].children]
    for round_k in range(cfg.rounds):
        for stage, level in enumerate(stages):
            for nid in level:
                run.enter(round_k, nid)
            run.train(round_k, stage, level)
            run.evaluate(round_k, stage)
        for nid in servers:
            run.aggregate(round_k, nid)
    run.result.final_models = {nid: run.state[nid].model for nid in sorted(tree.nodes)}
    return run.result


def run_flat_fl(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    rounds: int,
) -> RunResult:
    """One server over all leaves: full-model FedAvg with momentum, no keys,
    no residuals. Each round is one sequential step."""
    leaf_ids = sorted(leaf_ids)
    if not leaf_ids:
        raise ValueError("flat FL needs at least one leaf")
    server = init_model(cfg.model, cfg.seed)
    momentum = server.zeros_like()
    bound = cfg.dp.initial_bound if cfg.dp and cfg.dp.enabled_nodes else None
    result = RunResult(method="flat_fl", rows=[])

    for round_k in range(rounds):
        outs = dict(_train_stacked(
            [(nid, cfg.trainer, round_k * cfg.trainer.local_steps) for nid in leaf_ids],
            lambda nid: TrainJob(server, shards[nid].train,
                                 rng_for(cfg.seed, nid, round_k, _TRAIN_TAG))))
        for nid in leaf_ids:
            result.rows.append(_row(result.method, nid, round_k, 0, "train", outs[nid].mean_loss))
        server, momentum, bound = server_step(
            server, [(nid, outs[nid].params) for nid in leaf_ids], momentum, bound, cfg,
            round_k, result.dp_log)
        result.rows.extend(
            evaluate_round(result.method, {nid: server for nid in leaf_ids}, shards, round_k, 0))

    result.seq_steps = rounds
    result.final_models = {nid: server for nid in leaf_ids}
    return result


def _train_apart(result: RunResult, models: dict[int, tuple[np.ndarray, int, list[int]]],
                 shards: dict[int, Shard], cfg: EngineConfig, budget_steps: int) -> dict[int, ParamSet]:
    """Train one fresh model per entry of `models`, row node -> (tokens, RNG
    stream, eval ids), for budget_steps rounds, stacking the models' local
    training in every round. Each model is evaluated as every node in its eval
    ids. Rows are buffered per model and written model by model, each in
    round order."""
    base = init_model(cfg.model, cfg.seed)
    params = dict.fromkeys(models, base)
    owner = {eid: key for key, (_, _, eval_ids) in models.items() for eid in eval_ids}
    rows: dict[int, list[MetricRow]] = {key: [] for key in models}
    for round_k in range(budget_steps):
        outs = _train_stacked(
            [(key, cfg.trainer, round_k * cfg.trainer.local_steps) for key in models],
            lambda key: TrainJob(params[key], models[key][0],
                                 rng_for(cfg.seed, models[key][1], round_k, _TRAIN_TAG)))
        for key, out in outs:
            params[key] = out.params
            rows[key].append(_row(result.method, key, round_k, 0, "train", out.mean_loss))
        evaluated = evaluate_round(
            result.method, {eid: params[key] for eid, key in owner.items()}, shards, round_k, 0)
        for row in evaluated:
            rows[owner[row.node]].append(row)
    for key in models:
        result.rows.extend(rows[key])
    return params


def run_local(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    budget_steps: int,
) -> RunResult:
    """Independent per-leaf training at the same sequential-step budget."""
    result = RunResult(method="local", rows=[], seq_steps=budget_steps)
    models = {nid: (shards[nid].train, nid, [nid]) for nid in sorted(leaf_ids)}
    result.final_models = _train_apart(result, models, shards, cfg, budget_steps)
    return result


def run_centralized(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    budget_steps: int,
) -> RunResult:
    """One model on the union of all leaf training streams."""
    leaf_ids = sorted(leaf_ids)
    pooled = np.concatenate([shards[nid].train for nid in leaf_ids])
    result = RunResult(method="centralized", rows=[], seq_steps=budget_steps)
    models = {0: (pooled, _CENTRAL_NODE, leaf_ids)}
    params = _train_apart(result, models, shards, cfg, budget_steps)[0]
    result.final_models = {nid: params for nid in leaf_ids}
    return result


def content_hash(config_obj: dict, shards: dict[int, Shard]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(config_obj, sort_keys=True).encode())
    for nid in sorted(shards):
        h.update(str(nid).encode())
        h.update(shards[nid].digest().encode())
    return h.hexdigest()
