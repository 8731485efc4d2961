"""What the benchmark measures: its workloads, metrics, units and bounds.

This file is the one place these are written down. `BENCHMARK.json` at the
repository root is generated from it:

    python3 bench/spec.py --write

and `python3 bench/selfcheck.py` fails when the two disagree. The layer table
below also records, for every per-layer metric, which end-to-end metric it
should move and on which workload, so that a change to one layer can state
its prediction against names that already exist.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 35

# Why each workload exists. Every workload runs in a fresh child process.
WORKLOADS = {
    "fig2-worldlm": (
        "Paper's headline run: fig2 tree, worldlm, 12 rounds. Bound by training a tiny "
        "model; 280 of its 504 mean_nll calls re-score parameters that did not change."
    ),
    "fig2-flat_fl": (
        "Flat FedAvg at the matched 36-round budget: slowest runner, 4 same-shape leaves "
        "a round, no keys, residuals or DP, no repeated evaluation. Bypass workload."
    ),
    "wide-dp": (
        "21-node fanout-4 tree built from dp-cc-wk, 2 local steps a stage, DP on 4 leaves: "
        "aggregation, residual routing, DP and evaluation dominate, training is small."
    ),
}

# name, unit, better, bound (share of the parent's median it may worsen by), what.
# Times are at a reference host speed: every timed piece is rescaled by a
# probe of the host's speed run next to it (bench/hostclock.py).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "wall time of presets.resolve (config resolution plus Markov dataset synthesis); "
     "median of the run's set-ups, two before each repetition"),
    ("run_s", "s", "lower", 0.25,
     "wall time of cli.execute (engine.fit or a baseline runner), summed over its rounds; "
     "median over the run's repetitions"),
    ("cpu_s", "s", "lower", 0.25,
     "process CPU time over the same rounds, all threads counted; median over the repetitions"),
    ("train_tokens_per_s", "tok/s", "higher", 0.25,
     "target tokens trained (local_steps x batch_size per local_train call) / run_s"),
    ("peak_rss_mb", "MiB", "lower", 0.1,
     "ru_maxrss of the workload's own child process"),
    ("final_excess_nats", "nats", "lower", 0.25,
     "mean over leaves of final test NLL minus the entropy rate of the leaf's source; "
     "exact for a fixed seed"),
]

# Not an entry of BENCHMARK.json: the contract wants metrics that are never 0,
# and this one is 0 on a healthy commit. It is the result line's failed/attempted.
ERROR_RATE = ("error_rate", "ratio",
              "failed / attempted repetitions: a raise, a non-finite final perplexity, "
              "or an output digest that differs from the run's other repetitions")


def _span(name: str) -> list[tuple[str, str]]:
    """A wrapped function: total time of its spans and how many there were."""
    return [(f"{name}.ms", "ms"), (f"{name}.calls", "count")]


# Per-layer metrics, from the traced run only. Spans are taken by wrapping the
# layers' public functions from the benchmark's own files (bench/tracing.py).
# layer, metrics (name, unit), end-to-end metrics it should move, where it
# matters. The shares are of engine.fit.ms in seed-1 traced runs on a 2-core
# x86-64 VM with OpenBLAS at its default 2 threads.
LAYERS = [
    ("model (train)",
     [*_span("model.local_train"), ("model.local_train.self_ms", "ms"),
      ("model.forward.train_ms", "ms"), ("model.forward.train_calls", "count"),
      *_span("model.backward"), *_span("model.sample_batch"),
      ("model.opt_steps", "count"), ("model.step_us", "us")],
     ("run_s", "cpu_s", "train_tokens_per_s"),
     "fig2-flat_fl (~92% of traced engine.fit time), fig2-worldlm (~80%); wide-dp (~30%)"),
    ("model (eval)",
     [*_span("model.mean_nll"), ("model.forward.eval_ms", "ms"),
      ("model.forward.eval_calls", "count"), ("model.eval_windows", "count")],
     ("run_s",),
     "wide-dp (~32%), fig2-worldlm (~18%), fig2-flat_fl (~7%)"),
    ("model (partition)",
     _span("model.Partition"),
     ("run_s", "peak_rss_mb"),
     "wide-dp (~8%) and fig2-worldlm (<1%); the flat runners never split a model"),
    ("engine",
     [*_span("engine.fit"), ("engine.fit.self_ms", "ms"), *_span("engine.evaluate_round"),
      ("engine.eval_repeats", "count"), ("engine.eval_repeat_frac", "ratio")],
     ("run_s",),
     "repeat share 280/504 on fig2-worldlm, 1792/3024 on wide-dp, 0/288 on fig2-flat_fl"),
    ("aggregation",
     [*_span("aggregation.merge_with_parent"), *_span("aggregation.aggregate_child_keys"),
      *_span("aggregation.average_pseudograds"), *_span("aggregation.server_opt")],
     ("run_s",),
     "wide-dp (~10%); under 1% on both fig2 workloads"),
    ("residual",
     [*_span("residual.partition_residuals"), *_span("residual.route_residuals"),
      ("residual.packets.created", "count"), ("residual.packets.aggregate", "count"),
      ("residual.packets.forward", "count"), ("residual.packets.held", "count"),
      ("residual.packets.dropped", "count")],
     ("run_s",),
     "wide-dp (~4%); ~0.1% on fig2-worldlm; none on fig2-flat_fl"),
    ("privacy",
     [*_span("privacy.clip"), *_span("privacy.add_noise")],
     ("run_s",),
     "wide-dp only"),
    ("tensors",
     [*_span("tensors.axpy"), ("tensors.Tensor.constructed", "count")],
     ("run_s", "cpu_s", "peak_rss_mb"),
     "all three"),
    ("datagen",
     [*_span("datagen.build_hierarchy_dataset"), ("datagen.tokens_sampled", "count")],
     ("setup_s",),
     "all three"),
    ("trace",
     [("trace.overhead_frac", "ratio"), ("trace.spans", "count")],
     (),
     "all three: traced run_s / untraced run_s - 1 and the spans recorded"),
]

PER_LAYER = [m for _, metrics, _, _ in LAYERS for m in metrics]
UNITS = {name: unit for name, unit, *_ in END_TO_END} | dict(PER_LAYER)


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        # Every per-layer metric is a time or a count of work done: less is better.
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        BENCHMARK_JSON.write_text(render())
    else:
        sys.stdout.write(render())
