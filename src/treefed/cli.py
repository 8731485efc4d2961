"""Batch experiment runner: single runs, method comparisons, and ablations.

Every run writes, under --out/<run-name>/:
  metrics.csv    per-(node, round, stage, split) loss/perplexity rows
  manifest.json  resolved config, seed, and content hash of the inputs
  attention.csv  per-layer attention weights by candidate origin
  residuals.csv  residual packet hop decisions
  dp.csv         pre-clip norms, bounds, and noise levels (DP runs)
  timings.csv    wall-clock sidecar; the only file allowed to differ between
                 identical reruns

All randomness flows from --seed, so metrics/manifest bytes are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import RunResult, content_hash, fit, run_centralized, run_flat_fl, run_local
from .presets import PRESETS, ResolvedExperiment, apply_overrides, load_config, preset_config, resolve

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
            raise ValueError("rounds must be >= 1")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def plan_config(plan: ExperimentPlan) -> dict:
    """The plan's config: its --config file, else its preset, with its
    overrides applied."""
    if plan.config_path:
        config = load_config(plan.config_path)
    elif plan.preset:
        config = preset_config(plan.preset)
    else:
        raise ValueError("either --preset or --config is required")
    return apply_overrides(config, plan.overrides) if plan.overrides else config


def resolve_plan(plan: ExperimentPlan) -> ResolvedExperiment:
    return resolve(plan_config(plan), seed=plan.seed, rounds=plan.rounds)


def execute(plan: ExperimentPlan, exp: ResolvedExperiment | None = None) -> tuple[ResolvedExperiment, RunResult]:
    exp = exp or resolve_plan(plan)
    if plan.method == "worldlm":
        result = fit(exp.tree, exp.shards, exp.engine, method="worldlm")
    elif plan.method == "flat_fl":
        result = run_flat_fl(exp.leaf_ids, exp.shards, exp.engine, rounds=exp.total_stages)
    elif plan.method == "local":
        result = run_local(exp.leaf_ids, exp.shards, exp.engine, budget_steps=exp.total_stages)
    else:
        result = run_centralized(exp.leaf_ids, exp.shards, exp.engine, budget_steps=exp.total_stages)
    return exp, result


def write_outputs(out_dir: Path, exp: ResolvedExperiment, plan: ExperimentPlan,
                  result: RunResult, elapsed: float, extra_manifest: dict | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    experiment_id = f"{exp.name}__{plan.method}__seed{plan.seed}"
    with open(out_dir / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["experiment_id", "method", "node", "round", "stage", "split",
                    "loss", "perplexity"])
        for row in result.rows:
            w.writerow([experiment_id, row.method, row.node, row.round, row.stage,
                        row.split, _fmt(row.loss), _fmt(row.perplexity)])
    manifest = {
        "experiment_id": experiment_id,
        "method": plan.method,
        "seed": plan.seed,
        "config": exp.config,
        "sequential_steps": result.seq_steps,
        "content_hash": content_hash(exp.config, exp.shards),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    with open(out_dir / "attention.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["node", "round", "stage", "layer", "candidate", "weight"])
        for r in result.attention_log:
            w.writerow([r["node"], r["round"], r["stage"], r["layer"], r["candidate"],
                        _fmt(r["weight"])])
    with open(out_dir / "residuals.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["round", "router", "origin", "layer", "created_round", "action",
                    "landed_at", "similarity"])
        for r in result.residual_log:
            w.writerow([r["round"], r["router"], r["origin"], r["layer"],
                        r["created_round"], r["action"], r["landed_at"],
                        _fmt(r["similarity"]) if r["similarity"] is not None else ""])
    with open(out_dir / "dp.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["round", "node", "pre_clip_norm", "bound", "noise_std"])
        for r in result.dp_log:
            w.writerow([r["round"], r["node"], _fmt(r["pre_clip_norm"]),
                        _fmt(r["bound"]), _fmt(r["noise_std"])])
    with open(out_dir / "timings.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["experiment_id", "seconds"])
        w.writerow([experiment_id, f"{elapsed:.3f}"])


def final_leaf_mean(exp: ResolvedExperiment, result: RunResult, split="test") -> tuple[float, float]:
    finals = result.final_leaf_ppl(set(exp.leaf_ids), split)
    vals = [finals[nid] for nid in sorted(finals)]
    return float(np.mean(vals)), float(np.std(vals))


def cmd_run(args) -> int:
    plan = _plan_from_args(args)
    start = time.perf_counter()
    exp, result = execute(plan)
    elapsed = time.perf_counter() - start
    if plan.out:
        run_dir = Path(plan.out) / f"{exp.name}__{plan.method}__seed{plan.seed}"
        write_outputs(run_dir, exp, plan, result, elapsed)
        print(f"wrote {run_dir}")
    mean, std = final_leaf_mean(exp, result)
    print(f"{plan.method} on {exp.name} (seed {plan.seed}): "
          f"final leaf test perplexity {mean:.4f} +- {std:.4f} "
          f"[{result.seq_steps} sequential steps, {elapsed:.1f}s]")
    return 0


def cmd_compare(args) -> int:
    methods = args.method or ["worldlm", "flat_fl"]
    seeds = args.seed or [0]
    rows = []
    for method in methods:
        per_seed = []
        for seed in seeds:
            plan = _plan_from_args(args, method=method, seed=seed)
            start = time.perf_counter()
            exp, result = execute(plan)
            elapsed = time.perf_counter() - start
            if plan.out:
                run_dir = Path(plan.out) / f"{exp.name}__{method}__seed{seed}"
                write_outputs(run_dir, exp, plan, result, elapsed)
            mean, _ = final_leaf_mean(exp, result)
            per_seed.append(mean)
        rows.append((method, float(np.mean(per_seed)), float(np.std(per_seed))))
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
        with open(out / "compare.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(table)
        print(f"wrote {out / 'compare.csv'}")
    return 0


_AXES = ("residuals", "attention", "dp", "swap")


def _toggle(axis: str, config: dict) -> dict:
    if axis == "residuals":
        return apply_overrides(config, {"residual.nu": 0})
    if axis == "attention":
        return apply_overrides(config, {"attention.uniform": True})
    if axis == "dp":
        return apply_overrides(config, {"dp": None})
    # swap: exchange the two smallest-budget leaves across sub-federations
    budgets = config["data"]["leaf_budgets"]
    small = sorted(budgets, key=lambda k: (budgets[k], int(k)))[:2]
    if len(small) < 2:
        raise ValueError("swap axis needs at least two leaves")
    cfg = apply_overrides(config, {})
    src = cfg["data"]["leaf_sources"]
    src[small[0]], src[small[1]] = src[small[1]], src[small[0]]
    cfg["name"] = config.get("name", "custom") + "-swapped"
    return cfg


def cmd_ablate(args) -> int:
    seeds = args.seed or [0]
    method = (args.method or ["worldlm"])[0]
    base_config = plan_config(_plan_from_args(args, method=method, seed=seeds[0]))
    toggled_config = _toggle(args.axis, base_config)

    deltas = []
    for seed in seeds:
        pair = []
        for tag, config in (("on", base_config), ("off", toggled_config)):
            exp = resolve(config, seed=seed, rounds=args.rounds)
            plan = _plan_from_args(args, method=method, seed=seed)
            start = time.perf_counter()
            _, result = execute(plan, exp=exp)
            elapsed = time.perf_counter() - start
            if args.out:
                run_dir = Path(args.out) / f"{exp.name}__{method}__seed{seed}__{args.axis}-{tag}"
                write_outputs(run_dir, exp, plan, result, elapsed,
                              extra_manifest={"ablation_axis": args.axis, "toggle": tag})
            mean, _ = final_leaf_mean(exp, result)
            pair.append(mean)
        deltas.append((seed, pair[0], pair[1], pair[1] - pair[0]))
    print(f"axis={args.axis} method={method}")
    print("seed  baseline  toggled  delta")
    for seed, on, off, d in deltas:
        print(f"{seed:<5d} {on:<9.4f} {off:<8.4f} {d:+.4f}")
    if args.out:
        with open(Path(args.out) / f"ablate_{args.axis}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["seed", "baseline_ppl", "toggled_ppl", "delta"])
            for row in deltas:
                w.writerow([row[0], _fmt(row[1]), _fmt(row[2]), _fmt(row[3])])
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


def _plan_from_args(args, method: str | None = None, seed: int | None = None) -> ExperimentPlan:
    methods = args.method or ["worldlm"]
    seeds = args.seed or [0]
    return ExperimentPlan(
        method=method or methods[0],
        preset=args.preset,
        config_path=args.config,
        rounds=args.rounds,
        seed=seed if seed is not None else seeds[0],
        out=args.out,
        overrides=dict(args.override or []),
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default="fig2", help=f"one of {sorted(PRESETS)}")
    p.add_argument("--config", default=None, help="path to a config JSON (overrides --preset)")
    p.add_argument("--method", action="append", choices=METHODS, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", action="append", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--override", action="append", type=_parse_override, metavar="KEY=VALUE")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treefed")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment")
    _add_common(p_run)
    p_cmp = sub.add_parser("compare", help="run several methods/seeds and summarize")
    _add_common(p_cmp)
    p_abl = sub.add_parser("ablate", help="paired runs with one axis toggled")
    p_abl.add_argument("--axis", required=True, choices=_AXES)
    _add_common(p_abl)
    p_exp = sub.add_parser("export-preset", help="print a preset config as JSON")
    p_exp.add_argument("name")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "ablate":
            return cmd_ablate(args)
        if args.command == "export-preset":
            print(json.dumps(preset_config(args.name), indent=1, sort_keys=True))
            return 0
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
    return 2


if __name__ == "__main__":
    sys.exit(main())
