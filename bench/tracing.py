"""Per-layer trace of one run, taken from outside the program.

Each layer's public function is wrapped in the namespace its caller looks it
up in (`engine` imported `local_train` by name, so the wrapper replaces
`treefed.engine.local_train`). A wrapper records one span per call: name,
start, end and the index of the enclosing span. Spans stay in memory and are
written out when the run ends. Counters are taken at the same boundaries.

The recorder keeps one span stack, so it assumes one thread: the benchmark
runs every workload with the default `workers=1`.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, attribute path, span name). The same span name may wrap several
# call sites: `axpy` is looked up both by `engine` and by `aggregation`.
PATCHES = [
    ("treefed.cli", "fit", "engine.fit"),
    ("treefed.cli", "run_flat_fl", "engine.fit"),
    ("treefed.engine", "evaluate_round", "engine.evaluate_round"),
    ("treefed.engine", "local_train", "model.local_train"),
    ("treefed.engine", "mean_nll", "model.mean_nll"),
    ("treefed.engine", "merge_with_parent", "aggregation.merge_with_parent"),
    ("treefed.engine", "aggregate_child_keys", "aggregation.aggregate_child_keys"),
    ("treefed.engine", "average_pseudograds", "aggregation.average_pseudograds"),
    ("treefed.engine", "server_opt", "aggregation.server_opt"),
    ("treefed.engine", "partition_residuals", "residual.partition_residuals"),
    ("treefed.engine", "route_residuals", "residual.route_residuals"),
    ("treefed.engine", "clip", "privacy.clip"),
    ("treefed.engine", "add_noise", "privacy.add_noise"),
    ("treefed.engine", "axpy", "tensors.axpy"),
    ("treefed.aggregation", "axpy", "tensors.axpy"),
    ("treefed.model", "forward_loss", "model.forward"),
    ("treefed.model", "backward", "model.backward"),
    ("treefed.model", "sample_batch", "model.sample_batch"),
    ("treefed.model", "Partition.assemble", "model.Partition"),
    ("treefed.model", "Partition.split", "model.Partition"),
    ("treefed.presets", "build_hierarchy_dataset", "datagen.build_hierarchy_dataset"),
]

# Packet actions in the residual log, by the counter they feed.
_PACKET_ACTIONS = {
    "aggregate": "aggregate",
    "forward": "forward",
    "held:empty-cache": "held",
    "drop:ttl": "dropped",
    "drop:origin-exclusion": "dropped",
}


class Tracer:
    """Span recorder plus the counters taken at the wrapped boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._scored: set[bytes] = set()

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` runs once
        the span has closed, so a counter's own cost lands in the enclosing
        span and in trace.overhead_frac, not in this layer's time."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in PATCHES and count Tensor constructions."""
        after = {
            "model.mean_nll": self._after_mean_nll,
            "residual.partition_residuals": self._after_partition_residuals,
            "datagen.build_hierarchy_dataset": self._after_build_dataset,
        }
        for module, path, name in PATCHES:
            *owners, attr = path.split(".")
            target = importlib.import_module(module)
            for owner in owners:
                target = getattr(target, owner)
            setattr(target, attr, self.wrap(name, getattr(target, attr), after.get(name)))

        tensor_cls = importlib.import_module("treefed.tensors").Tensor
        init, counts = tensor_cls.__init__, self.counts

        def counting_init(tensor, *args, **kwargs):
            counts["tensors.Tensor.constructed"] += 1
            init(tensor, *args, **kwargs)

        tensor_cls.__init__ = counting_init

    # --- counters ---------------------------------------------------------

    def _after_mean_nll(self, args, _out) -> None:
        """Count windows scored, and repeats: (parameter bytes, split) pairs
        scored before. The split is identified by its token bytes."""
        params, tokens = args[0], args[1]
        _, dim = params["embed"].shape
        context = params["in_proj.w"].shape[0] // dim
        self.counts["model.eval_windows"] += len(tokens) - context
        h = hashlib.sha1()
        for t in params:
            h.update(t.name.encode())
            h.update(np.ascontiguousarray(t.data))
        h.update(b"|")
        h.update(np.ascontiguousarray(tokens))
        key = h.digest()
        if key in self._scored:
            self.counts["engine.eval_repeats"] += 1
        self._scored.add(key)

    def _after_partition_residuals(self, _args, packets) -> None:
        self.counts["residual.packets.created"] += len(packets)

    def _after_build_dataset(self, _args, shards) -> None:
        self.counts["datagen.tokens_sampled"] += sum(
            s.train.size + s.val.size + s.test.size for s in shards.values())

    # --- reduction --------------------------------------------------------

    def layer_metrics(self, residual_log: list[dict]) -> dict[str, float]:
        """Span totals, call counts, self times and counters, by metric name.

        Self time is a span's duration minus the durations of its child
        spans, found through the parent links (children never overlap, as
        there is one thread).
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            if name == "model.forward":
                caller = spans[parent][0] if parent >= 0 else ""
                name = "model.forward.train" if caller == "model.local_train" else "model.forward.eval"
            total[name] += end - start
            self_s[name] += end - start - child_s[i]
            calls[name] += 1

        out: dict[str, float] = {}
        for _, _, name in PATCHES:
            if name == "model.forward":
                continue
            out[f"{name}.ms"] = 1e3 * total[name]
            out[f"{name}.calls"] = calls[name]
        for kind in ("train", "eval"):
            out[f"model.forward.{kind}_ms"] = 1e3 * total[f"model.forward.{kind}"]
            out[f"model.forward.{kind}_calls"] = calls[f"model.forward.{kind}"]
        out["model.local_train.self_ms"] = 1e3 * self_s["model.local_train"]
        out["engine.fit.self_ms"] = 1e3 * self_s["engine.fit"]

        # one optimizer step per backward pass inside local_train
        steps = sum(1 for name, _, _, parent in spans
                    if name == "model.backward" and parent >= 0
                    and spans[parent][0] == "model.local_train")
        out["model.opt_steps"] = steps
        out["model.step_us"] = 1e6 * total["model.local_train"] / steps if steps else 0.0
        out["model.eval_windows"] = self.counts["model.eval_windows"]

        nll_calls = calls["model.mean_nll"]
        out["engine.eval_repeats"] = self.counts["engine.eval_repeats"]
        out["engine.eval_repeat_frac"] = (
            self.counts["engine.eval_repeats"] / nll_calls if nll_calls else 0.0)

        packets = Counter(_PACKET_ACTIONS[e["action"]] for e in residual_log)
        out["residual.packets.created"] = self.counts["residual.packets.created"]
        for kind in ("aggregate", "forward", "held", "dropped"):
            out[f"residual.packets.{kind}"] = packets[kind]

        out["tensors.Tensor.constructed"] = self.counts["tensors.Tensor.constructed"]
        out["datagen.tokens_sampled"] = self.counts["datagen.tokens_sampled"]
        out["trace.spans"] = len(spans)
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["span", "name", "start_s", "end_s", "parent"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent])
