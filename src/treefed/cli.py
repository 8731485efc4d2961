"""Batch experiment runner: single runs, method comparisons, and ablations.

`run`, `compare` and `ablate` run every experiment through `run_plan`, so
each run writes the same files, under --out/<experiment id>/ (ablation runs
add __<axis>-on or __<axis>-off):
  metrics.csv    per-(node, round, stage, split) loss/perplexity rows
  manifest.json  resolved config, seed, content hash of the inputs, the
                 treefed version, and the numpy version and BLAS kernels it
                 ran on
  attention.csv  per-layer attention weights by candidate origin
  residuals.csv  residual packet hop decisions
  dp.csv         pre-clip norms, bounds, and noise levels (DP runs)
  timings.csv    wall-clock sidecar; the only file allowed to differ between
                 identical reruns
`ablate --axis swap` exchanges the sources of two leaves under different
parents (presets.swap_sources). --rounds overrides the config's rounds, and
an --override path through a non-object value is an error.

All randomness flows from --seed, so every other file is reproducible.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (AttentionRow, DpRow, MetricRow, RunResult, content_hash, fit, run_centralized,
                     run_flat_fl, run_local)
from .presets import (PRESETS, ResolvedExperiment, apply_overrides, load_config, preset_config,
                      resolve, swap_sources)
from .residual import EVENT_FIELDS

METHODS = ("worldlm", "flat_fl", "local", "centralized")


@dataclass
class ExperimentPlan:
    method: str = "worldlm"
    preset: str | None = "fig2"
    config_path: str | None = None
    rounds: int | None = None
    seed: int = 0
    out: str | None = None
    overrides: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")


def _write_csv(path: Path, header, rows) -> None:
    """Floats are written as %.10g; csv writes None as an empty cell and
    anything else as str() does."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([f"{x:.10g}" if isinstance(x, float) else x for x in row] for row in rows)


# run-directory CSV -> (RunResult log it is written from, columns). The
# attention and dp logs hold NamedTuples, written by position; residual_log
# rows are dicts, written by key.
_LOG_FILES = {
    "attention.csv": ("attention_log", AttentionRow._fields),
    "residuals.csv": ("residual_log", EVENT_FIELDS),
    "dp.csv": ("dp_log", DpRow._fields),
}


def plan_config(plan: ExperimentPlan) -> dict:
    """The plan's config: its --config file, else its preset, with its
    overrides applied, then its rounds as the `rounds` override."""
    if plan.config_path:
        config = load_config(plan.config_path)
    elif plan.preset:
        config = preset_config(plan.preset)
    else:
        raise ValueError("either --preset or --config is required")
    config = apply_overrides(config, plan.overrides)
    return config if plan.rounds is None else apply_overrides(config, {"rounds": plan.rounds})


def resolve_plan(plan: ExperimentPlan) -> ResolvedExperiment:
    return resolve(plan_config(plan), seed=plan.seed)


def execute(plan: ExperimentPlan, exp: ResolvedExperiment | None = None) -> tuple[ResolvedExperiment, RunResult]:
    exp = exp or resolve_plan(plan)
    if plan.method == "worldlm":
        result = fit(exp.tree, exp.shards, exp.engine)
    elif plan.method == "flat_fl":
        result = run_flat_fl(exp.leaf_ids, exp.shards, exp.engine, rounds=exp.total_stages)
    elif plan.method == "local":
        result = run_local(exp.leaf_ids, exp.shards, exp.engine, budget_steps=exp.total_stages)
    else:
        result = run_centralized(exp.leaf_ids, exp.shards, exp.engine, budget_steps=exp.total_stages)
    return exp, result


def _experiment_id(exp: ResolvedExperiment, plan: ExperimentPlan) -> str:
    return f"{exp.name}__{plan.method}__seed{plan.seed}"


def openblas_runtime() -> tuple[str, str] | None:
    """(configuration, core name) that the scipy-openblas bundled in numpy's
    wheel reports, or None without one. OpenBLAS picks its kernel core when
    it loads (OPENBLAS_CORETYPE forces one), and both strings name it."""
    root = Path(np.__file__).resolve().parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
            query = (lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_)
        except (OSError, AttributeError):  # not loadable, or another build
            continue
        for fn in query:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
        return query[0]().decode(), query[1]().decode()
    return None


def numerics() -> dict[str, str]:
    """The numpy version and BLAS that a run's bits depend on: BLAS kernels
    round matrix products differently across builds and CPUs. `blas` is the
    configuration the loaded OpenBLAS reports and `blas_core` the kernel
    core it runs; without that report, `blas` is numpy's build
    configuration, else "unknown", and the core is "unknown"."""
    runtime = openblas_runtime()
    if runtime:
        return {"numpy": np.__version__, "blas": runtime[0], "blas_core": runtime[1]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its build configuration
        blas = {}
    named = " ".join(str(blas[k]) for k in ("name", "version") if k in blas)
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration") or named or "unknown",
            "blas_core": "unknown"}


def write_outputs(out_dir: Path, exp: ResolvedExperiment, plan: ExperimentPlan,
                  result: RunResult, elapsed: float, extra_manifest: dict | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    experiment_id = _experiment_id(exp, plan)
    _write_csv(out_dir / "metrics.csv", ("experiment_id", *MetricRow._fields),
               ((experiment_id, *row) for row in result.rows))
    manifest = {
        "experiment_id": experiment_id,
        "method": plan.method,
        "seed": plan.seed,
        "config": exp.config,
        "sequential_steps": result.seq_steps,
        "content_hash": content_hash(exp.config, exp.shards),
        "treefed_version": __version__,
        "numerics": numerics(),
        **(extra_manifest or {}),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    for name, (log, columns) in _LOG_FILES.items():
        _write_csv(out_dir / name, columns,
                   (r if isinstance(r, tuple) else [r[c] for c in columns]
                    for r in getattr(result, log)))
    _write_csv(out_dir / "timings.csv", ("experiment_id", "seconds"),
               [(experiment_id, f"{elapsed:.3f}")])


def run_plan(plan: ExperimentPlan, exp: ResolvedExperiment | None = None, suffix: str = "",
             extra_manifest: dict | None = None
             ) -> tuple[ResolvedExperiment, RunResult, float, Path | None]:
    """Execute `plan`, on `exp` when given, else on the plan resolved first,
    timing only the execution. With plan.out set, write its run directory,
    named by its experiment id plus `suffix`. Returns (experiment, result,
    elapsed seconds, run directory or None)."""
    exp = exp or resolve_plan(plan)
    start = time.perf_counter()
    exp, result = execute(plan, exp=exp)
    elapsed = time.perf_counter() - start
    run_dir = None
    if plan.out:
        run_dir = Path(plan.out) / (_experiment_id(exp, plan) + suffix)
        write_outputs(run_dir, exp, plan, result, elapsed, extra_manifest)
    return exp, result, elapsed, run_dir


def _mean_std(values) -> tuple[float, float]:
    """Mean and std of perplexities; an inf among them gives inf and nan,
    with no floating-point warning."""
    with np.errstate(all="ignore"):
        return float(np.mean(values)), float(np.std(values))


def final_leaf_mean(exp: ResolvedExperiment, result: RunResult, split="test") -> tuple[float, float]:
    finals = result.final_leaf_ppl(set(exp.leaf_ids), split)
    return _mean_std([finals[nid] for nid in sorted(finals)])


def _single(args, flag: str, default):
    """The value of a flag that only compare may repeat, or `default`."""
    values = getattr(args, flag) or [default]
    if len(values) > 1:
        raise ValueError(f"{args.command} takes one --{flag}, got {len(values)}; "
                         "use compare to run several")
    return values[0]


def cmd_run(args) -> int:
    plan = _plan_from_args(args, _single(args, "method", "worldlm"), _single(args, "seed", 0))
    exp, result, elapsed, run_dir = run_plan(plan)
    if run_dir:
        print(f"wrote {run_dir}")
    mean, std = final_leaf_mean(exp, result)
    print(f"{plan.method} on {exp.name} (seed {plan.seed}): "
          f"final leaf test perplexity {mean:.4f} +- {std:.4f} "
          f"[{result.seq_steps} sequential steps, {elapsed:.1f}s]")
    return 0


def cmd_compare(args) -> int:
    methods, seeds = args.method or ["worldlm", "flat_fl"], args.seed or [0]
    # a seed's experiment is the same under every method; resolving them all
    # first rejects a bad seed before any run writes its directory
    exps = {seed: resolve_plan(_plan_from_args(args, methods[0], seed)) for seed in seeds}
    rows = []
    for method in methods:
        per_seed = []
        for seed in seeds:
            exp, result, _, _ = run_plan(_plan_from_args(args, method, seed), exps[seed])
            per_seed.append(final_leaf_mean(exp, result)[0])
        rows.append((method, *_mean_std(per_seed)))
    base = next((r for r in rows if r[0] == "worldlm"), rows[0])
    header = ["method", "mean_ppl", "std_ppl", f"ratio_vs_{base[0]}"]
    table = [[m, f"{mean:.4f}", f"{std:.4f}", f"{mean / base[1]:.4f}"]
             for m, mean, std in rows]
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "compare.csv", header, table)
        print(f"wrote {out / 'compare.csv'}")
    return 0


# ablation axis -> the function that switches it off in a config
_AXES = {
    "residuals": lambda config: apply_overrides(config, {"residual.nu": 0}),
    "attention": lambda config: apply_overrides(config, {"attention.uniform": True}),
    "dp": lambda config: apply_overrides(config, {"dp": None}),
    "swap": swap_sources,
}


def cmd_ablate(args) -> int:
    method = _single(args, "method", "worldlm")
    base_config = plan_config(_plan_from_args(args, method, 0))
    seeds, exps = args.seed or [0], {}
    for seed in seeds:  # every pair is resolved, the base first, before the first run
        exps[seed] = (resolve(base_config, seed=seed),
                      resolve(_AXES[args.axis](base_config), seed=seed))
    deltas = []
    for seed in seeds:
        plan = _plan_from_args(args, method, seed)
        pair = []
        for tag, exp in zip(("on", "off"), exps[seed]):
            _, result, _, _ = run_plan(plan, exp, f"__{args.axis}-{tag}",
                                       {"ablation_axis": args.axis, "toggle": tag})
            pair.append(final_leaf_mean(exp, result)[0])
        deltas.append((seed, pair[0], pair[1], pair[1] - pair[0]))
    print(f"axis={args.axis} method={method}")
    print("seed  baseline  toggled  delta")
    for seed, on, off, d in deltas:
        print(f"{seed:<5d} {on:<9.4f} {off:<8.4f} {d:+.4f}")
    if args.out:
        _write_csv(Path(args.out) / f"ablate_{args.axis}.csv",
                   ("seed", "baseline_ppl", "toggled_ppl", "delta"), deltas)
    return 0


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _plan_from_args(args, method: str, seed: int) -> ExperimentPlan:
    return ExperimentPlan(method=method, preset=args.preset, config_path=args.config,
                          rounds=args.rounds, seed=seed, out=args.out,
                          overrides=dict(args.override or []))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default="fig2", help=f"one of {sorted(PRESETS)}")
    p.add_argument("--config", default=None, help="path to a config JSON (overrides --preset)")
    p.add_argument("--method", action="append", choices=METHODS, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", action="append", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--override", action="append", type=_parse_override, metavar="KEY=VALUE")


def cmd_export_preset(args) -> int:
    print(json.dumps(preset_config(args.name), indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treefed")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment")
    p_cmp = sub.add_parser("compare", help="run several methods/seeds and summarize")
    p_abl = sub.add_parser("ablate", help="paired runs with one axis toggled")
    p_abl.add_argument("--axis", required=True, choices=_AXES)
    for p, cmd in ((p_run, cmd_run), (p_cmp, cmd_compare), (p_abl, cmd_ablate)):
        _add_common(p)
        p.set_defaults(cmd=cmd)
    p_exp = sub.add_parser("export-preset", help="print a preset config as JSON")
    p_exp.add_argument("name")
    p_exp.set_defaults(cmd=cmd_export_preset)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.cmd(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
