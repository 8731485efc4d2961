"""The benchmark under bench/ wraps treefed functions it names by module and
attribute path. A rename or move that breaks one of those hooks would break
only the benchmark, so every hook is resolved here."""

import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import treefed.engine
import treefed.tensors
from treefed.aggregation import AttentionConfig
from treefed.cli import ExperimentPlan, execute
from treefed.model import init_model
from treefed.presets import preset_config, resolve
from treefed.residual import ResidualPacket, route_residuals
from treefed.tensors import ParamSet
from treefed.topology import FederationTree

from oracles import param_set

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def tracing_module():
    """bench/tracing.py, loaded without install(): nothing is patched."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_hooks():
    return tracing_module().PATCHES


@pytest.mark.parametrize("module, path, span", traced_hooks())
def test_traced_hook_resolves_to_callable(module, path, span):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target), f"{module}.{path} (span {span}) is not callable"


# every hook flat FL's keyless star reaches: it trains, scores and steps its
# server, with no keys to merge and no residuals to route
FLAT_FL_HOOKS = ["local_train", "mean_nll", "evaluate_round", "axpy", "average_pseudograds",
                 "server_opt", "clip", "add_noise"]


# every hook the local and centralized baselines reach: they train and score,
# and aggregate nothing
BASELINE_HOOKS = ["local_train", "mean_nll", "evaluate_round"]


@pytest.mark.parametrize("method", ["worldlm", "flat_fl", "local", "centralized"])
def test_every_engine_hook_is_called_through_the_engine_namespace(monkeypatch, method):
    # the trace wraps these names in treefed.engine; code that reached one
    # another way (say, local_train imported into another module) would run
    # untraced and silently zero its layer. A DP preset reaches clip and
    # add_noise too.
    calls = Counter()
    names = [path for module, path, _ in traced_hooks() if module == "treefed.engine"]
    subset = {"flat_fl": FLAT_FL_HOOKS, "local": BASELINE_HOOKS,
              "centralized": BASELINE_HOOKS}.get(method)
    if subset:
        assert set(subset) <= set(names)
        names = subset
    for name in names:
        def spy(*args, _name=name, _fn=getattr(treefed.engine, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(treefed.engine, name, spy)
    execute(ExperimentPlan(method=method, preset="dp-cc-wk", rounds=2, seed=1))
    assert [name for name in names if not calls[name]] == []


def test_mean_nll_gets_each_scored_model_and_its_split_tokens(monkeypatch):
    # the trace reads args[0] of every treefed.engine.mean_nll call as the
    # scored ParamSet and hashes args[1] as the scored split's 1-D tokens, so
    # each (node, split) that evaluate_round scores must be one call that
    # passes the node's model and that split's own array; a node whose model
    # is the one it last scored is not scored again. It runs on one lane:
    # a helper scores in its own process, out of this namespace's reach
    monkeypatch.setattr(treefed.engine, "lane_count", lambda: 1)
    made, evaluations = [], []
    orig_nll, orig_eval = treefed.engine.mean_nll, treefed.engine.evaluate_round

    def nll_spy(*args, **kwargs):
        made.append(args[:2])
        return orig_nll(*args, **kwargs)

    def eval_spy(method, params_by_node, shards, *args, **kwargs):
        start = len(made)
        rows = orig_eval(method, params_by_node, shards, *args, **kwargs)
        evaluations.append((params_by_node, shards, made[start:]))
        return rows

    monkeypatch.setattr(treefed.engine, "mean_nll", nll_spy)
    monkeypatch.setattr(treefed.engine, "evaluate_round", eval_spy)
    execute(ExperimentPlan(method="worldlm", preset="dp-cc-wk", rounds=2, seed=1))
    last = {}
    for params_by_node, shards, calls in evaluations:
        scored = []
        for params, tokens in calls:
            (nid, split), = [(nid, split) for nid in params_by_node for split in ("val", "test")
                             if getattr(shards[nid], split) is tokens]
            assert isinstance(params, ParamSet) and params is params_by_node[nid]
            assert tokens.ndim == 1
            scored.append((nid, split))
        changed = [nid for nid in sorted(params_by_node) if last.get(nid) is not params_by_node[nid]]
        assert scored == [(nid, split) for nid in changed for split in ("val", "test")]
        last.update(params_by_node)
    assert sum(len(calls) for *_, calls in evaluations) == len(made) > 0


def test_tensor_count_and_round_clock_hooks_exist():
    # bench/tracing.py counts Tensor constructions; bench/hostclock.py cuts
    # untraced runs into rounds at evaluate_round
    assert isinstance(treefed.tensors.Tensor, type)
    assert callable(treefed.engine.evaluate_round)


def test_mean_nll_counter_reads_the_parameter_views():
    # the trace reads ps["embed"].shape, ps["in_proj.w"].shape and iterates
    # the set's views by .name and .data, as every mean_nll call does
    exp = resolve({**preset_config("fig2"), "rounds": 1}, seed=1)
    params = init_model(exp.engine.model, 1)
    tokens = exp.shards[exp.leaf_ids[0]].val
    tracer = tracing_module().Tracer()
    tracer._after_mean_nll((params, tokens), None)
    tracer._after_mean_nll((params, tokens), None)
    assert tracer.counts["model.eval_windows"] == 2 * (len(tokens) - exp.engine.model.context_len)
    assert tracer.counts["engine.eval_repeats"] == 1


def test_tokens_sampled_counter_reads_every_split_of_every_shard():
    # the trace sums the sizes of the train, val and test splits of every
    # shard build_hierarchy_dataset returns
    exp = resolve({**preset_config("fig2"), "rounds": 1}, seed=1)
    tracer = tracing_module().Tracer()
    tracer._after_build_dataset((), exp.shards)
    assert tracer.counts["datagen.tokens_sampled"] == sum(
        len(s.train) + len(s.val) + len(s.test) for s in exp.shards.values())


def test_every_residual_action_feeds_a_packet_counter():
    # the trace counts packets by residuals.csv action; an action it does
    # not know would raise KeyError in a traced run
    _, result = execute(ExperimentPlan(method="worldlm", preset="fig2", rounds=2, seed=1))
    actions = {e["action"] for e in result.residual_log}
    assert actions >= {"aggregate", "forward"}
    tree = FederationTree.from_children_map({0: [1], 1: [2, 3]})
    pkt = ResidualPacket(origin=2, layer="a", values=np.ones(2, np.float32),
                         created_round=0)
    out = route_residuals([pkt], [(1, param_set({"a": np.ones(2)}))],
                          AttentionConfig(), tree, round_k=1)
    actions |= {e["action"] for e in out.events}
    assert "drop:origin-exclusion" in actions
    assert actions <= set(tracing_module()._PACKET_ACTIONS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fig2-worldlm", "fig2-flat_fl", "wide-dp"])
def test_the_benchmark_worker_runs_each_workload(workload, trace, tmp_path):
    # one shrunk repetition through bench/worker.py, so that a change the
    # benchmark cannot run fails here; a traced run reports every per-layer
    # metric BENCHMARK.json declares
    root = TRACING.parent.parent
    argv = [sys.executable, str(root / "bench" / "worker.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--rounds", "1", "--trace", str(trace),
            "--out", str(tmp_path)]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=root)
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["failed"] == 0 and record["attempted"] >= 2
    if trace:
        declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
        assert {m["name"] for m in declared} <= set(record["metrics"])
