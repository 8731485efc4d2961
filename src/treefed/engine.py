"""One round engine for both federated methods, plus the local and
centralized baselines, all sharing the same trainers, seeds, and step
accounting.

`fit` checks the tree and runs each round as phases, the methods of one
`_Run` state, after *start* has initialized every node. It walks the tree
level by level (top-down); every level is one *stage*, whose nodes are
logically simultaneous. A stage's *enter* takes each node in level order: it
adopts its parent's freshly trained backbone and merges keys by attention
with the parent and, at a leaf, the residual packets routed to it; a server
routes its packets to its children, scoring their current keys. *train*
then stacks the level's nodes that share a trainer, and so a schedule
position, into local_train calls of up to model.stack_width nodes, spread
over one lane per CPU the process may run on (plan_calls), and *evaluate*
scores every node. After the last stage, *aggregate* runs at each server
bottom-up: pseudo-gradient averaging with server momentum for backbones
(with DP sanitization of flagged children's deltas), per-layer attention for
keys, and dissimilarity-based residual selection. Each selected packet goes
straight to the server where it turns around (its ceiling, or the selecting
server when the ceiling lies below it), which routes it in the next round;
every hop below happens in that round too. `run_flat_fl` drives the same
phases on a keyless star tree: each round every leaf enters, the leaves
train as one stage and the server aggregates; then each leaf is scored on
the server's model. The local and centralized baselines run *train* alone:
on that star tree's leaves, and on one node that holds all the leaves' data.

A stage consumes one sequential step when at least one of its nodes trains;
the baselines are budgeted in the same units.

Lane 0 of a stage's training is the calling process. Every other lane is a
helper process that a run forks on first need and keeps until the driver
ends the run (_Run.close). A helper trains from its fork-time copy of the
shards and the seed: each call sends it the nodes, trainer, global step and
round, pickled, and the models as raw float32 bytes, and gets back the mean
losses and trained rows the same way. Rows never mix, so a node trains to the
same bytes on any lane and in any stack, and every output is the same at any
number of lanes. A process with other threads running trains on one lane,
since a fork copies only the calling thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import weakref
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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


class Call(NamedTuple):
    """One local_train call of a stage: its lane, trainer and nodes."""

    lane: int
    trainer: TrainerConfig
    nodes: list[int]


def plan_calls(trainees: list[tuple[int, TrainerConfig]], width: int, lanes: int) -> list[Call]:
    """A stage's local_train calls, in call order. Each trainer's nodes, the
    trainers in order of first appearance, are cut in order into groups of
    min(width, ceil(k / lanes)) for its k nodes; one lane gives groups of up
    to `width`. Each call goes to the lane with the fewest node-steps (group
    size x local_steps) so far, the lowest lane on a tie."""
    trainers = []
    for _, t in trainees:
        if t not in trainers:
            trainers.append(t)
    calls, load = [], [0] * lanes
    for trainer in trainers:
        nodes = [nid for nid, t in trainees if t == trainer]
        size = min(width, -(-len(nodes) // lanes))
        for lo in range(0, len(nodes), size):
            lane = load.index(min(load))
            calls.append(Call(lane, trainer, nodes[lo : lo + size]))
            load[lane] += len(calls[-1].nodes) * trainer.local_steps
    return calls


# A stage splits over lanes only when it trains at least this many
# parameter-steps (node-steps times the model's parameters). A smaller stage
# trains in less time than a helper costs: the fork of a large process takes
# up to about 20 ms, and each stage a pipe round trip. So a run of tiny models
# never forks, while every fig2 stage (764,928 or more) may split.
SPLIT_WORK = 1 << 18


def lane_count() -> int:
    """How many lanes a stage trains on: the CPUs this process may run on,
    or 1 where it cannot fork, or cannot fork safely because other threads
    are running."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return 1 if threading.active_count() > 1 else len(os.sched_getaffinity(0))


def _train(shards: dict[int, Shard], seed: int, models: list[ParamSet], nodes: list[int],
           trainer: TrainerConfig, global_step: int, round_k: int) -> list[TrainResult]:
    """One call of a stage on any lane: the nodes' models stacked in one
    local_train call, each on its (seed, node, round) training stream."""
    return local_train([TrainJob(model, shards[nid].train, rng_for(seed, nid, round_k, _TRAIN_TAG))
                        for nid, model in zip(nodes, models)], trainer, global_step)


def _write(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_into(fd: int, out):
    """Fill `out` (an array or bytearray) from `fd`; EOFError if it closes first."""
    view = memoryview(out).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError
        view = view[got:]
    return out


def _send(fd: int, message, *arrays: np.ndarray) -> None:
    """A pickled message, its length first, then each array's raw bytes."""
    data = pickle.dumps(message)
    _write(fd, len(data).to_bytes(8, "little") + data)
    for a in arrays:
        _write(fd, a)


def _receive(fd: int):
    """The next message _send wrote to the other end of `fd`'s pipe."""
    size = int.from_bytes(_read_into(fd, bytearray(8)), "little")
    return pickle.loads(_read_into(fd, bytearray(size)))


def _serve(inbox: int, outbox: int, shards: dict[int, Shard], seed: int, layout) -> None:
    """A helper's loop, until the parent closes its end: read a stage's
    calls and all their models, train every call, then send back each
    call's exception, or None, its (n,) mean losses and its (n, P) trained
    rows. Nothing is sent before the last call has trained: the parent reads
    only once its own calls are done, and a result larger than the pipe
    holds would stall the helper until then."""
    while True:
        try:
            calls = _receive(inbox)
        except EOFError:
            return
        models = [_read_into(inbox, np.empty((len(nodes), layout.size), np.float32))
                  for nodes, *_ in calls]
        outs = []
        for (nodes, *call), rows in zip(calls, models):
            try:
                outs.append(_train(shards, seed, [ParamSet.from_buffer(layout, row)
                                                  for row in rows], nodes, *call))
            except Exception as exc:  # the parent raises it
                outs.append(exc)
        for out in outs:
            if isinstance(out, Exception):
                _send(outbox, out)
            else:
                _send(outbox, None, np.array([o.mean_loss for o in out]),
                      *(o.params.buf for o in out))


class _Helper:
    """A forked process that trains one lane's calls of a run's stages. It
    ends only through os._exit, so it never runs its caller's code: at EOF
    on its pipe (the parent closed it, or died), or quietly at an interrupt
    or any error outside a call."""

    def __init__(self, shards: dict[int, Shard], seed: int, layout):
        (inbox, self.to), (self.back, outbox) = os.pipe(), os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                # keep only the standard streams and its own two pipe ends,
                # so that every other helper sees EOF once its parent closes
                # (or loses) its end
                lo, hi = sorted((inbox, outbox))
                for start, stop in ((3, lo), (lo + 1, hi), (hi + 1, os.sysconf("SC_OPEN_MAX"))):
                    os.closerange(start, stop)
                _serve(inbox, outbox, shards, seed, layout)
                status = 0
            finally:
                os._exit(status)
        os.close(inbox)
        os.close(outbox)
        self.layout = layout

    def send(self, calls: list[tuple], models: list[ParamSet]) -> None:
        try:
            _send(self.to, calls, *(model.buf for model in models))
        except BrokenPipeError:
            raise self.died() from None

    def receive(self, n: int) -> list[TrainResult] | Exception:
        """The results of one call of n nodes, or the exception it raised."""
        try:
            exc = _receive(self.back)
            if exc is not None:
                return exc
            losses = _read_into(self.back, np.empty(n))
            rows = _read_into(self.back, np.empty((n, self.layout.size), np.float32))
        except EOFError:
            raise self.died() from None
        return [TrainResult(ParamSet.from_buffer(self.layout, row), float(loss))
                for row, loss in zip(rows, losses)]

    def died(self) -> RuntimeError:
        return RuntimeError(f"training helper {self.pid} exited with status "
                            f"{os.waitstatus_to_exitcode(self.close())}")

    def close(self) -> int | None:
        """Close both pipes, so that the helper ends, and reap it; its wait
        status, or None if it was closed before."""
        if self.pid is None:
            return None
        os.close(self.to)
        os.close(self.back)
        # a closed helper's numbers may name another file by now
        pid, self.pid, self.to, self.back = self.pid, None, -1, -1
        return os.waitpid(pid, 0)[1]


def _reap(helpers: list[_Helper], owner: int) -> None:
    """Close a run's helpers, in the process that forked them."""
    if os.getpid() == owner:
        for helper in helpers:
            helper.close()
        helpers.clear()


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
    """A metric row, its perplexity exp(nll). The caller holds
    np.errstate(over="ignore"), so that a huge NLL gives inf quietly."""
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
    nodes = [nid for nid in sorted(params_by_node) if nid in shards]
    for nid in nodes:
        if nid not in memo:
            params, shard = params_by_node[nid], shards[nid]
            n = context_len(params.layout)
            scored = window_nlls(params, [shard.context_index(split, n) for split in EVAL_SPLITS])
            memo[nid] = {split: mean_nll(params, getattr(shard, split), nll=nll)
                         for split, nll in zip(EVAL_SPLITS, scored)}
    with np.errstate(over="ignore"):
        return [_row(method, nid, round_k, stage, split, memo[nid][split])
                for nid in nodes for split in EVAL_SPLITS]


@dataclass
class _Run:
    """The state that one run of any method shares between its phases,
    which are its methods."""

    tree: FederationTree
    shards: dict[int, Shard]
    cfg: EngineConfig
    part: Partition
    state: dict[int, _NodeState]
    result: RunResult
    # evaluate_round's memo: a node's NLL per split, dropped by set_model
    scored: dict[int, dict[str, float]] = field(default_factory=dict)
    helpers: list[_Helper] = field(default_factory=list)  # lanes 1, 2, ... as forked

    def __post_init__(self):
        # a run driven by hand, never closed, reaps its helpers when it is
        # collected or the interpreter exits
        weakref.finalize(self, _reap, self.helpers, os.getpid())

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the run's helpers; a later stage forks them again."""
        _reap(self.helpers, os.getpid())

    @classmethod
    def start(cls, tree: FederationTree, shards: dict[int, Shard], cfg: EngineConfig,
              method: str = "worldlm") -> _Run:
        """Start every node from one model, and give each server with a DP
        client the initial bound."""
        part = Partition.for_config(cfg.model)
        base = init_model(cfg.model, cfg.seed)
        zero = part.split(base)[0].zeros_like()
        state = {nid: _NodeState(model=base, momentum=zero if tree.nodes[nid].children else None)
                 for nid in tree.nodes}
        for nid in cfg.dp.enabled_nodes if cfg.dp else ():
            state[tree.nodes[nid].parent].bound = cfg.dp.initial_bound
        return cls(tree, shards, cfg, part, state, RunResult(method=method, rows=[]))

    def enter(self, round_k: int, nid: int) -> None:
        """Adopt the parent's backbone and merge keys with the parent's and,
        at a leaf, the packets routed in; a server routes its packets to its
        children, unchanged since its last bottom-up step. A keyless model
        has nothing to merge, so the node adopts the parent's model itself."""
        node, st, part = self.tree.nodes[nid], self.state[nid], self.part
        if node.parent is not None:
            model = self.state[node.parent].model
            if part.key_layout.size:
                keys, weight_log = merge_with_parent(
                    part.keys(st.model), part.keys(model), [] if node.children else st.inbox,
                    self.cfg.attention)
                self.log_attention(nid, round_k, "merge", weight_log)
                model = part.assemble(model, keys)
            self.set_model(nid, model)
        if node.children and st.inbox:
            routed = route_residuals(
                st.inbox, [(cid, part.keys(self.state[cid].model)) for cid in node.children],
                self.cfg.attention, self.tree, round_k, router=nid)
            for cid, pkts in routed.landed.items():
                self.state[cid].inbox.extend(pkts)
            self.result.residual_log.extend(routed.events)
        st.inbox = []

    def train(self, round_k: int, stage: int, level: list[int]) -> None:
        """Train a level's trainees and log their mean losses. Those that
        share a trainer share a global step and train stacked in calls of at
        most stack_width nodes, dealt over lane_count() lanes (plan_calls),
        or over one when the stage holds less than SPLIT_WORK.
        Each helper lane gets its calls first and trains them while this
        process trains lane 0's; then the results are taken in call order.
        If calls raised, the first of them in call order raises here, once
        every lane is done. A stage with any trainee takes one sequential
        step."""
        trainees = stage_trainees(self.tree, level, self.shards, self.cfg.trainer)
        work = self.part.layout.size * sum(t.local_steps for _, t in trainees)
        calls = plan_calls(trainees, stack_width(self.part.layout),
                           lane_count() if work >= SPLIT_WORK else 1)
        jobs = [(call.nodes, call.trainer, self.result.seq_steps * call.trainer.local_steps,
                 round_k) for call in calls]
        by_lane: dict[int, list[int]] = {}
        for i, call in enumerate(calls):
            by_lane.setdefault(call.lane, []).append(i)
        helped = [(self.helper(lane), mine) for lane, mine in by_lane.items() if lane]
        for helper, mine in helped:
            helper.send([jobs[i] for i in mine],
                        [self.state[nid].model for i in mine for nid in calls[i].nodes])
        outs: list = [None] * len(calls)  # each call's results, or its exception
        for i in by_lane.get(0, ()):
            try:
                outs[i] = _train(self.shards, self.cfg.seed,
                                 [self.state[nid].model for nid in calls[i].nodes], *jobs[i])
            except Exception as exc:  # raised below, once every lane is done
                outs[i] = exc
        for helper, mine in helped:
            for i in mine:
                outs[i] = helper.receive(len(calls[i].nodes))
        failed = next((out for out in outs if isinstance(out, Exception)), None)
        if failed is not None:
            raise failed
        losses = {}
        for call, results in zip(calls, outs):
            for nid, out in zip(call.nodes, results):
                self.set_model(nid, out.params)
                losses[nid] = out.mean_loss
        with np.errstate(over="ignore"):
            self.result.rows += [_row(self.result.method, nid, round_k, stage, "train", losses[nid])
                                 for nid in sorted(losses)]
        self.result.seq_steps += bool(losses)

    def helper(self, lane: int) -> _Helper:
        """Lane `lane`'s helper, forked (with any below it) on first need."""
        while len(self.helpers) < lane:
            self.helpers.append(_Helper(self.shards, self.cfg.seed, self.part.layout))
        return self.helpers[lane - 1]

    def evaluate(self, round_k: int, stage: int) -> None:
        """Score every node's current model on its own splits."""
        params = {nid: self.state[nid].model for nid in sorted(self.tree.nodes)}
        self.result.rows += evaluate_round(self.result.method, params, self.shards, round_k,
                                           stage, memo=self.scored)

    def aggregate(self, round_k: int, nid: int) -> None:
        """A server's bottom-up step over its children, in id order. Each
        child's backbone pseudo-gradient is its backbone minus the server's.
        A DP child's is clipped to the server's bound, Gaussian noise from the
        child's (round, noise) stream is added, and one dp.csv row is logged.
        The mean pseudo-gradient takes a server momentum step, and the round's
        pre-clip norms set the next bound. Keys are merged by attention, and a
        selected packet turns around at its ceiling, or here when that lies
        below; a keyless model skips both key steps. Every operation is
        looked up in this module's namespace, where the benchmark trace wraps
        it."""
        st, part, cfg, dp = self.state[nid], self.part, self.cfg, self.cfg.dp
        children = sorted(self.tree.nodes[nid].children)
        backbone, keys = part.split(st.model)
        splits = {cid: part.split(self.state[cid].model) for cid in children}
        deltas, norms = [], []
        for cid in children:
            delta = axpy(-1.0, backbone, splits[cid][0])
            if dp and cid in dp.enabled_nodes:
                clipped, pre_norm = clip(delta, st.bound)
                norms.append(pre_norm)
                delta = add_noise(clipped, dp.sigma, st.bound,
                                  rng_for(cfg.seed, cid, round_k, _NOISE_TAG))
                self.result.dp_log.append(
                    DpRow(round_k, cid, pre_norm, st.bound, dp.sigma * st.bound))
            deltas.append(delta)
        backbone, st.momentum = server_opt(backbone, average_pseudograds(deltas), st.momentum,
                                           cfg.server)
        st.bound = next_bound(st.bound, norms)
        if part.key_layout.size:
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
    check_tree_and_dp(tree, cfg.dp)
    stages = tree.levels()
    servers = [nid for level in reversed(stages) for nid in level if tree.nodes[nid].children]
    with _Run.start(tree, shards, cfg) as run:
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


def _star(leaf_ids: list[int], method: str) -> tuple[list[int], int]:
    """The sorted leaves, and an id for a server over them that no leaf has
    (not 0: a one-node tree's root is its only leaf)."""
    leaves = sorted(leaf_ids)
    if not leaves:
        raise ValueError(f"{method} needs at least one leaf")
    return leaves, leaves[-1] + 1


def run_flat_fl(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    rounds: int,
) -> RunResult:
    """Flat FL, the paper's standard federation: `_Run`'s phases on a star
    tree of one server over all leaves, with a keyless model and no
    residuals, so that each round is full-model FedAvg with server momentum
    and one sequential step. After its round's aggregation, every leaf is
    scored on the server's model. Node trainers are not read, and a DP flag
    counts only on a leaf."""
    leaf_ids, server = _star(leaf_ids, "flat FL")
    tree = FederationTree.from_children_map({server: leaf_ids})
    dp = replace(cfg.dp, enabled_nodes=cfg.dp.enabled_nodes & set(leaf_ids)) if cfg.dp else None
    model = replace(cfg.model, key_block_count=0, include_head_in_keys=False)
    with _Run.start(tree, shards, replace(cfg, model=model, residual=ResidualConfig(nu=0), dp=dp),
                    "flat_fl") as run:
        for round_k in range(rounds):
            for nid in leaf_ids:
                run.enter(round_k, nid)
            run.train(round_k, 0, leaf_ids)
            run.aggregate(round_k, server)
            scored = dict.fromkeys(leaf_ids, run.state[server].model)
            run.result.rows += evaluate_round("flat_fl", scored, shards, round_k, 0)
    run.result.final_models = dict.fromkeys(leaf_ids, run.state[server].model)
    return run.result


def run_local(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    budget_steps: int,
) -> RunResult:
    """Independent per-leaf training at the same sequential-step budget:
    `_Run`'s *train* and *evaluate* phases on flat FL's star tree, with no
    DP. The rows are written leaf by leaf, each leaf's in round order."""
    leaf_ids, server = _star(leaf_ids, "the local baseline")
    tree = FederationTree.from_children_map({server: leaf_ids})
    with _Run.start(tree, {nid: shards[nid] for nid in leaf_ids}, replace(cfg, dp=None),
                    "local") as run:
        for round_k in range(budget_steps):
            run.train(round_k, 0, leaf_ids)
            run.evaluate(round_k, 0)
    run.result.rows.sort(key=lambda row: row.node)  # stable: each leaf's rows keep their order
    run.result.final_models = {nid: run.state[nid].model for nid in leaf_ids}
    return run.result


def run_centralized(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    budget_steps: int,
) -> RunResult:
    """One model on the union of all leaf shards: `_Run`'s *train* phase on
    the one-node tree of node 0, which holds that union, with no DP. Every
    round, every leaf is scored on node 0's model."""
    leaf_ids, _ = _star(leaf_ids, "the centralized baseline")
    tree = FederationTree.from_children_map({0: []})
    pooled = {0: Shard.union([shards[nid] for nid in leaf_ids])}
    with _Run.start(tree, pooled, replace(cfg, dp=None), "centralized") as run:
        for round_k in range(budget_steps):
            run.train(round_k, 0, [0])
            scored = dict.fromkeys(leaf_ids, run.state[0].model)
            run.result.rows += evaluate_round("centralized", scored, shards, round_k, 0)
    run.result.final_models = dict.fromkeys(leaf_ids, run.state[0].model)
    return run.result


def content_hash(config_obj: dict, shards: dict[int, Shard]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(config_obj, sort_keys=True).encode())
    for nid in sorted(shards):
        h.update(str(nid).encode())
        h.update(shards[nid].digest().encode())
    return h.hexdigest()
