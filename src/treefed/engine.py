"""Round execution for a federation tree plus the flat/local/centralized
baselines, all sharing the same trainers, seeds, and step accounting.

One round walks the tree level by level (top-down): a node adopts its
parent's freshly trained backbone, merges keys by attention with the parent
and any routed-in residual packets, routes its pending residuals toward its
children, then trains locally. Every level is one *stage*; nodes on a level
are logically simultaneous and run in node-id order. After the last stage
the tree is aggregated bottom-up: pseudo-gradient averaging with server
momentum for backbones, per-layer attention for keys, and dissimilarity-based
residual selection, with DP sanitization applied to flagged children's
backbone deltas on the way.

A stage consumes one sequential step when at least one of its nodes trains;
baselines are budgeted in the same units.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .aggregation import (
    AttentionConfig,
    ServerOptState,
    aggregate_child_keys,
    average_pseudograds,
    merge_with_parent,
    server_opt,
)
from .datagen import Shard
from .model import (
    ModelConfig,
    Partition,
    TrainerConfig,
    init_model,
    local_train,
    mean_nll,
)
from .privacy import ClipState, DpConfig, add_noise, clip, update_bound
from .residual import KeyCache, ResidualPacket, partition_residuals, route_residuals, split_by_ceiling
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


@dataclass
class EngineConfig:
    model: ModelConfig
    trainer: TrainerConfig
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    server_eta: float = 0.2
    server_mu: float = 0.9
    nu: int = 1
    residual_threshold: float = 0.999
    dp: DpConfig | None = None
    rounds: int = 1
    seed: int = 0

    def trainer_for(self, node) -> TrainerConfig:
        return node.trainer if node.trainer is not None else self.trainer


@dataclass
class RunResult:
    method: str
    rows: list[MetricRow]
    attention_log: list[dict] = field(default_factory=list)
    residual_log: list[dict] = field(default_factory=list)
    dp_log: list[dict] = field(default_factory=list)
    final_models: dict[int, ParamSet] = field(default_factory=dict)
    seq_steps: int = 0

    def final_leaf_ppl(self, leaf_ids, split="test") -> dict[int, float]:
        """Last logged perplexity per leaf on its own split."""
        out: dict[int, float] = {}
        for row in self.rows:
            if row.node in leaf_ids and row.split == split:
                out[row.node] = row.perplexity
        return out

    def node_series(self, node: int, split: str = "test") -> list[float]:
        """Per-round perplexity trace for one node (last stage of each round)."""
        per_round: dict[int, float] = {}
        for row in self.rows:
            if row.node == node and row.split == split:
                per_round[row.round] = row.perplexity
        return [per_round[k] for k in sorted(per_round)]


@dataclass
class _NodeState:
    backbone: ParamSet
    keys: ParamSet
    opt: ServerOptState | None = None
    cache: KeyCache = field(default_factory=KeyCache)
    d_agg: list[ResidualPacket] = field(default_factory=list)
    d_route: list[ResidualPacket] = field(default_factory=list)
    upstream_inbox: list[ResidualPacket] = field(default_factory=list)


def evaluate_round(
    method: str,
    params_by_node: dict[int, ParamSet],
    shards: dict[int, Shard],
    round_k: int,
    stage: int,
    splits=("val", "test"),
) -> tuple[list[MetricRow], dict[str, tuple[float, float]]]:
    """Per-node perplexity on each node's own splits plus mean/std summaries."""
    rows = []
    for nid in sorted(params_by_node):
        if nid not in shards:
            continue
        for split in splits:
            nll = mean_nll(params_by_node[nid], getattr(shards[nid], split))
            with np.errstate(over="ignore"):
                ppl = float(np.exp(nll))
            rows.append(MetricRow(method, nid, round_k, stage, split, nll, ppl))
    summary = {}
    for split in splits:
        vals = [r.perplexity for r in rows if r.split == split]
        if vals:
            summary[split] = (float(np.mean(vals)), float(np.std(vals)))
    return rows, summary


def _dp_sanitize(delta: ParamSet, nid: int, round_k: int, cs: ClipState,
                 dp: DpConfig, seed: int, dp_log: list[dict]) -> ParamSet:
    """Clip a DP client's pseudo-gradient to its server's current bound,
    record the pre-clip norm for the next bound, add Gaussian noise from the
    client's (round, noise) stream, and log one dp.csv row. It stays in this
    module so `clip` and `add_noise` are looked up in engine's namespace,
    where the benchmark trace wraps them."""
    clipped, pre_norm = clip(delta, cs.bound)
    cs.record(pre_norm)
    noise_std = dp.sigma if dp.absolute_noise else dp.sigma * cs.bound
    delta = add_noise(
        clipped, dp.sigma, cs.bound, rng_for(seed, nid, round_k, _NOISE_TAG), dp.absolute_noise,
    )
    dp_log.append({
        "round": round_k, "node": nid, "pre_clip_norm": pre_norm,
        "bound": cs.bound, "noise_std": noise_std,
    })
    return delta


def fit(
    tree: FederationTree,
    shards: dict[int, Shard],
    cfg: EngineConfig,
    method: str = "worldlm",
) -> RunResult:
    """Execute `cfg.rounds` rounds of the hierarchical procedure."""
    bad = validate(tree)
    if bad:
        raise ValueError("invalid tree: " + "; ".join(bad))
    part = Partition.for_config(cfg.model)
    stages = tree.levels()
    depth = len(stages) - 1
    max_age = max(2, 2 * depth)

    base = init_model(cfg.model, cfg.seed)
    state: dict[int, _NodeState] = {}
    for nid in tree.nodes:
        backbone, keys = part.split(base)
        opt = None
        if tree.nodes[nid].children:
            opt = ServerOptState.init_like(backbone, cfg.server_eta, cfg.server_mu)
        state[nid] = _NodeState(backbone=backbone, keys=keys, opt=opt)

    dp = cfg.dp
    clip_states: dict[int, ClipState] = {}
    if dp and dp.enabled_nodes:
        for nid in dp.enabled_nodes:
            parent = tree.nodes[nid].parent
            if parent is None:
                raise ValueError("the root cannot be a DP client")
            clip_states.setdefault(parent, ClipState(bound=dp.initial_bound))

    ceilings = {nid: tree.nodes[nid].residual_ceiling for nid in tree.nodes}
    result = RunResult(method=method, rows=[])
    seq_counter = 0

    for round_k in range(cfg.rounds):
        for stage_idx, level in enumerate(stages):
            global_step = seq_counter * cfg.trainer.local_steps
            trained = False
            for nid in level:
                node = tree.nodes[nid]
                st = state[nid]
                # adopt parent backbone; merge keys with parent and routed-in packets
                if node.parent is not None:
                    parent_st = state[node.parent]
                    st.backbone = parent_st.backbone.copy()
                    if len(st.keys):
                        packets = st.d_agg
                        st.keys, weight_log = merge_with_parent(
                            st.keys, parent_st.keys, packets, cfg.attention
                        )
                        origins = ["self", "parent"] + [
                            str(p.origin)
                            for p in sorted(packets, key=lambda p: (p.origin, p.created_round))
                        ]
                        for layer, w in weight_log.items():
                            for origin, weight in zip(origins, w):
                                result.attention_log.append({
                                    "node": nid, "round": round_k, "stage": "merge",
                                    "layer": layer, "candidate": origin, "weight": float(weight),
                                })
                    st.d_agg = []
                # route pending residuals toward children
                if node.children and st.d_route:
                    routed = route_residuals(
                        st.d_route, st.cache, node.children, cfg.attention, tree,
                        round_k, max_age, router=nid,
                    )
                    for cid, pkts in routed.for_aggregation.items():
                        state[cid].d_agg.extend(pkts)
                    for cid, pkts in routed.to_forward.items():
                        state[cid].d_route.extend(pkts)
                    st.d_route = routed.held
                    result.residual_log.extend(routed.events)
                # local training
                trainer = cfg.trainer_for(node)
                if node.trains_locally and nid in shards and trainer.local_steps > 0:
                    trained = True
                    full = part.assemble(st.backbone, st.keys)
                    out = local_train(
                        full, shards[nid].train, trainer,
                        rng_for(cfg.seed, nid, round_k, _TRAIN_TAG), global_step,
                    )
                    st.backbone, st.keys = part.split(out.params)
                    with np.errstate(over="ignore"):
                        result.rows.append(MetricRow(
                            method, nid, round_k, stage_idx, "train",
                            out.mean_loss, float(np.exp(out.mean_loss)),
                        ))
            if trained:
                seq_counter += 1
            params_now = {
                nid: part.assemble(state[nid].backbone, state[nid].keys)
                for nid in sorted(tree.nodes)
            }
            rows, _ = evaluate_round(method, params_now, shards, round_k, stage_idx)
            result.rows.extend(rows)

        # bottom-up aggregation
        for level in reversed(stages[:-1]):
            for nid in level:
                node = tree.nodes[nid]
                if not node.children:
                    continue
                st = state[nid]
                children = sorted(node.children)
                deltas = []
                for cid in children:
                    delta = axpy(-1.0, st.backbone, state[cid].backbone, role="pseudo_gradient")
                    if dp and cid in dp.enabled_nodes:
                        delta = _dp_sanitize(
                            delta, cid, round_k, clip_states[nid], dp, cfg.seed, result.dp_log
                        )
                    deltas.append(delta)
                delta_mean = average_pseudograds(deltas)
                st.backbone, st.opt = server_opt(st.backbone, delta_mean, st.opt)

                if len(st.keys):
                    child_keys = [state[cid].keys for cid in children]
                    st.keys, weight_log = aggregate_child_keys(st.keys, child_keys, cfg.attention)
                    origins = (["self"] if cfg.attention.include_self else []) + [
                        str(cid) for cid in children
                    ]
                    for layer, w in weight_log.items():
                        for origin, weight in zip(origins, w):
                            result.attention_log.append({
                                "node": nid, "round": round_k, "stage": "children",
                                "layer": layer, "candidate": origin, "weight": float(weight),
                            })
                    new_packets = partition_residuals(
                        st.keys, [(cid, state[cid].keys) for cid in children],
                        cfg.nu, cfg.attention, round_k, ceilings, cfg.residual_threshold,
                    )
                else:
                    new_packets = []
                collected = new_packets + st.upstream_inbox
                st.upstream_inbox = []
                upstream, local = split_by_ceiling(collected, nid, tree)
                st.d_route.extend(local)
                if node.parent is not None:
                    state[node.parent].upstream_inbox.extend(upstream)
                st.cache.update({cid: state[cid].keys for cid in children}, round_k)

        for cs in clip_states.values():
            update_bound(cs)

    result.seq_steps = seq_counter
    result.final_models = {
        nid: part.assemble(state[nid].backbone, state[nid].keys)
        for nid in sorted(tree.nodes)
    }
    return result


def run_flat_fl(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    rounds: int,
    method: str = "flat_fl",
) -> RunResult:
    """One server over all leaves: full-model FedAvg with momentum, no keys,
    no residuals. Each round is one sequential step."""
    leaf_ids = sorted(leaf_ids)
    if not leaf_ids:
        raise ValueError("flat FL needs at least one leaf")
    server = init_model(cfg.model, cfg.seed)
    opt = ServerOptState.init_like(server, cfg.server_eta, cfg.server_mu)
    dp = cfg.dp
    cs = ClipState(bound=dp.initial_bound) if dp and dp.enabled_nodes else None
    result = RunResult(method=method, rows=[])

    for round_k in range(rounds):
        deltas = []
        for nid in leaf_ids:
            out = local_train(
                server, shards[nid].train, cfg.trainer,
                rng_for(cfg.seed, nid, round_k, _TRAIN_TAG),
                round_k * cfg.trainer.local_steps,
            )
            with np.errstate(over="ignore"):
                result.rows.append(MetricRow(
                    method, nid, round_k, 0, "train",
                    out.mean_loss, float(np.exp(out.mean_loss)),
                ))
            delta = axpy(-1.0, server, out.params, role="pseudo_gradient")
            if dp and nid in dp.enabled_nodes:
                delta = _dp_sanitize(delta, nid, round_k, cs, dp, cfg.seed, result.dp_log)
            deltas.append(delta)
        server, opt = server_opt(server, average_pseudograds(deltas), opt)
        if cs is not None:
            update_bound(cs)
        rows, _ = evaluate_round(method, {nid: server for nid in leaf_ids}, shards, round_k, 0)
        result.rows.extend(rows)

    result.seq_steps = rounds
    result.final_models = {nid: server for nid in leaf_ids}
    return result


def run_local(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    budget_steps: int,
    method: str = "local",
) -> RunResult:
    """Independent per-leaf training at the same sequential-step budget."""
    result = RunResult(method=method, rows=[])
    for nid in sorted(leaf_ids):
        params = init_model(cfg.model, cfg.seed)
        for round_k in range(budget_steps):
            out = local_train(
                params, shards[nid].train, cfg.trainer,
                rng_for(cfg.seed, nid, round_k, _TRAIN_TAG),
                round_k * cfg.trainer.local_steps,
            )
            params = out.params
            with np.errstate(over="ignore"):
                result.rows.append(MetricRow(
                    method, nid, round_k, 0, "train",
                    out.mean_loss, float(np.exp(out.mean_loss)),
                ))
            rows, _ = evaluate_round(method, {nid: params}, shards, round_k, 0)
            result.rows.extend(rows)
        result.final_models[nid] = params
    result.seq_steps = budget_steps
    return result


def run_centralized(
    leaf_ids: list[int],
    shards: dict[int, Shard],
    cfg: EngineConfig,
    budget_steps: int,
    method: str = "centralized",
) -> RunResult:
    """One model on the union of all leaf training streams."""
    leaf_ids = sorted(leaf_ids)
    pooled = np.concatenate([shards[nid].train for nid in leaf_ids])
    params = init_model(cfg.model, cfg.seed)
    result = RunResult(method=method, rows=[])
    for round_k in range(budget_steps):
        out = local_train(
            params, pooled, cfg.trainer,
            rng_for(cfg.seed, _CENTRAL_NODE, round_k, _TRAIN_TAG),
            round_k * cfg.trainer.local_steps,
        )
        params = out.params
        with np.errstate(over="ignore"):
            result.rows.append(MetricRow(
                method, 0, round_k, 0, "train",
                out.mean_loss, float(np.exp(out.mean_loss)),
            ))
        rows, _ = evaluate_round(
            method, {nid: params for nid in leaf_ids}, shards, round_k, 0
        )
        result.rows.extend(rows)
    result.seq_steps = budget_steps
    result.final_models = {nid: params for nid in leaf_ids}
    return result


def trailing_best(series: list[float], width: int = 3) -> list[float]:
    """Min over a trailing window; the convergence diagnostic used by the
    acceptance checks (non-increasing on convergent runs)."""
    out = []
    for i in range(len(series)):
        out.append(min(series[max(0, i - width + 1) : i + 1]))
    return out


def content_hash(config_obj: dict, shards: dict[int, Shard]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(config_obj, sort_keys=True).encode())
    for nid in sorted(shards):
        h.update(str(nid).encode())
        h.update(shards[nid].digest().encode())
    return h.hexdigest()
