"""Run one benchmark workload in this process and print what it measured.

bench/run.py starts this script in a fresh child process for every workload,
so peak RSS and the trace wrappers never carry over from one workload to the
next. It drives the simulator only through public functions: presets
(preset_config, apply_overrides, resolve), cli.execute, cli.write_outputs and
datagen.entropy_rate. The untraced runs wrap one more, treefed.engine's
evaluate_round, only to cut each run into rounds for bench/hostclock.py; the
traced run wraps every layer instead. Its last line of standard output is one
JSON object.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --out DIR [--rounds R]

`--rounds` shrinks a workload; bench/selfcheck.py uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# workload: (method, rounds of the tree procedure). fig2-flat_fl runs its
# matched budget of 12 rounds x 3 trainable levels = 36 flat rounds.
WORKLOADS = {
    "fig2-worldlm": ("worldlm", 12),
    "fig2-flat_fl": ("flat_fl", 12),
    "wide-dp": ("worldlm", 24),
}
SETUPS_PER_REP = 2  # each repetition runs on a freshly resolved experiment
MIN_REPS = 2  # the digest check needs a pair even when one repetition fills the run
OUTPUT_FILES = ("metrics.csv", "attention.csv", "residuals.csv", "dp.csv")


def import_treefed():
    """Import treefed from this checkout's src/, never from elsewhere."""
    package = SRC / "treefed"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no treefed sources at {package}")
    sys.path.insert(0, str(SRC))
    from treefed import cli, datagen, presets

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported treefed from {cli.__file__}, not from {package}")
    return cli, datagen, presets


def wide_dp_config(presets) -> dict:
    """dp-cc-wk widened to 21 nodes in 3 levels: root 0, mids 1-4, leaves 5-20.

    Mid m's four leaves draw from cluster m-1 of 4x4 clustered sources, with
    fig2's 4:1 budget skew (big and small leaves alternate). DP stays on the
    four leaves under node 1.
    """
    children = {0: [1, 2, 3, 4]}
    leaf_sources, leaf_budgets = {}, {}
    for c in range(4):
        leaves = [5 + 4 * c + s for s in range(4)]
        children[c + 1] = leaves
        for s, leaf in enumerate(leaves):
            leaf_sources[str(leaf)] = f"c{c}s{s}"
            leaf_budgets[str(leaf)] = 16000 if s % 2 == 0 else 4000
    parent = {c: p for p, cs in children.items() for c in cs}
    nodes = [{"id": n, "parent": parent.get(n), "children": children.get(n, [])}
             for n in range(21)]
    return presets.apply_overrides(presets.preset_config("dp-cc-wk"), {
        "name": "wide-dp",
        "tree": {"nodes": nodes},
        "data.num_clusters": 4,
        "data.sources_per_cluster": 4,
        "data.leaf_sources": leaf_sources,
        "data.leaf_budgets": leaf_budgets,
        "data.val_tokens": 128,
        "data.test_tokens": 256,
        "model.embed_dim": 32,
        "model.num_blocks": 4,
        "model.key_block_count": 2,
        "model.include_head_in_keys": True,
        "trainer.local_steps": 2,
        "residual.nu": 2,
        "dp.enabled_nodes": children[1],
    })


def workload(presets, name: str, rounds: int | None) -> tuple[dict, str]:
    """(config, method) of a workload."""
    method, default_rounds = WORKLOADS[name]
    config = wide_dp_config(presets) if name == "wide-dp" else presets.preset_config("fig2")
    rounds = default_rounds if rounds is None else rounds
    return presets.apply_overrides(config, {"rounds": rounds}), method


def output_digest(cli, exp, plan, result, scratch: Path) -> str:
    """sha256 over the deterministic files cli.write_outputs writes."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        cli.write_outputs(Path(tmp), exp, plan, result, elapsed=0.0)
        h = hashlib.sha256()
        for name in OUTPUT_FILES:
            h.update(name.encode())
            h.update((Path(tmp) / name).read_bytes())
    return h.hexdigest()


def run_once(cli, exp, plan, entropy: dict[int, float], scratch: Path, clock):
    """One timed cli.execute plus its checks: (record, result or None).

    The record keeps the run's (start, end, cpu seconds) pieces; run_s and
    cpu_s are their sums, as measured, without the probes between them.
    """
    clock.start()
    try:
        _, result = cli.execute(plan, exp=exp)
    except Exception:  # a failed run is counted, and the benchmark goes on
        pieces = clock.stop()
        traceback.print_exc()
        return {"ok": False, "error": traceback.format_exc(limit=0).strip(),
                "run_s": sum(end - start for start, end, _ in pieces)}, None
    pieces = clock.stop()
    run_s = sum(end - start for start, end, _ in pieces)
    cpu_s = sum(cpu for _, _, cpu in pieces)

    finals = {}
    for row in result.rows:
        if row.split == "test" and row.node in entropy:
            finals[row.node] = row
    trainer = exp.config["trainer"]
    train_calls = sum(1 for row in result.rows if row.split == "train")
    record = {
        "ok": True,
        "pieces": pieces,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "train_tokens": train_calls * trainer["local_steps"] * trainer["batch_size"],
        "final_finite": len(finals) == len(entropy)
                        and all(math.isfinite(r.perplexity) for r in finals.values()),
        "final_excess_nats": statistics.fmean(
            r.loss - entropy[leaf] for leaf, r in finals.items()) if finals else math.inf,
        "digest": output_digest(cli, exp, plan, result, scratch),
    }
    return record, result


def judge(records: list[dict]) -> int:
    """Mark failed repetitions in place; returns how many failed.

    A repetition fails if it raised, if a leaf's final perplexity is not
    finite, or if its output digest differs from the first repetition's.
    """
    reference = next((r["digest"] for r in records if "digest" in r), None)
    for r in records:
        if r["ok"] and not r["final_finite"]:
            r["ok"], r["error"] = False, "non-finite final perplexity"
        elif r["ok"] and r["digest"] != reference:
            r["ok"], r["error"] = False, "output digest differs from the first repetition"
    return sum(not r["ok"] for r in records)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next((line.split()[1] for line in Path("/proc/self/status").read_text().splitlines()
                    if line.startswith("Threads:")), "unknown")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "process_threads_at_end": threads,
    }


def measure(args) -> dict:
    cli, datagen, presets = import_treefed()
    from treefed import engine

    from hostclock import HostClock, RoundClock

    config, method = workload(presets, args.workload, args.rounds)
    plan = cli.ExperimentPlan(method=method, preset=None, seed=args.seed)
    out_dir = Path(args.out)
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + args.seconds
    host = HostClock()
    clock = RoundClock(host)

    setups = []  # (start, end) of each timed presets.resolve

    def setup():
        host.probe()
        start = time.perf_counter()
        exp = presets.resolve(config, seed=args.seed)
        setups.append((start, time.perf_counter()))
        return exp

    exp = presets.resolve(config, seed=args.seed)  # warm-up; not timed
    sources = exp.config["data"]["leaf_sources"]
    entropy = {leaf: datagen.entropy_rate(exp.sources[sources[str(leaf)]])
               for leaf in exp.leaf_ids}

    def rep(exp):
        return run_once(cli, exp, plan, entropy, scratch, clock)

    if args.trace:
        spans = out_dir / "spans" / f"{args.workload}-seed{args.seed}.csv"
        records, metrics = traced_run(rep, setup, exp, spans)
    else:
        # Set-ups are spread over the run, between repetitions, and every
        # timed piece is rescaled by the host's speed around it (hostclock.py).
        clock.install(engine)
        records = []
        while len(records) < MIN_REPS or time.perf_counter() + cycle_s <= deadline:
            cycle_start = time.perf_counter()
            for _ in range(SETUPS_PER_REP):
                exp = setup()
            host.probe()
            records.append(rep(exp)[0])
            cycle_s = time.perf_counter() - cycle_start
        host.probe()
        metrics = end_to_end(records, host, setups)
    failed = judge(records)
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "method": method, "rounds": config["rounds"],
            "setups": setups,
            "metrics": metrics, "attempted": len(records), "failed": failed,
            "probes": host.probes,
            "repetitions": records, "environment": environment()}


def end_to_end(records: list[dict], host, setups: list[tuple[float, float]]) -> dict:
    """End-to-end metrics from the repetitions that returned.

    Times are at the reference host speed (hostclock.py): setup_s is the
    median rescaled set-up, run_s and cpu_s the medians over the repetitions
    of their rescaled rounds' sums.
    """
    done = [r for r in records if "digest" in r]
    if not done:
        return {}
    scaled = [host.scale(r["pieces"]) for r in done]
    run_s = statistics.median(sum(walls) for walls, _ in scaled)
    setup_walls, _ = host.scale([(start, end, 0.0) for start, end in setups])
    return {
        "setup_s": statistics.median(setup_walls),
        "run_s": run_s,
        "cpu_s": statistics.median(sum(cpus) for _, cpus in scaled),
        "train_tokens_per_s": done[0]["train_tokens"] / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_excess_nats": done[0]["final_excess_nats"],
    }


def traced_run(rep, resolve, exp, spans: Path) -> tuple[list[dict], dict]:
    """One untraced repetition, then set-up and one repetition under the trace."""
    from tracing import Tracer

    untraced, _ = rep(exp)
    tracer = Tracer()
    tracer.install()
    traced, result = rep(resolve())
    metrics = tracer.layer_metrics(result.residual_log if result else [])
    metrics["trace.overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1
    spans.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans)
    return [untraced, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="directory for spans and scratch outputs")
    ap.add_argument("--rounds", type=int, default=None)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
