"""treefed benchmark: one workload per call, or every workload in turn.

    python3 bench/run.py --workload fig2-worldlm --seed 1 --seconds 35 --trace 0
    python3 bench/run.py          # every workload, untraced and then traced

Each workload runs in a fresh child process (bench/worker.py), one at a
time; this process only starts it, waits for it and reports. With --trace 0
a run repeats set-up (twice) and the workload until --seconds have passed
(at least two repetitions). Its times are rescaled to a reference host speed
by a probe run between the timed pieces (bench/hostclock.py): setup_s is the
median set-up, and run_s and cpu_s the medians over the repetitions. With
--trace 1 it runs the workload once untraced and once with every layer's
public functions wrapped, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; every metric carries its unit. The full record
of a run (every repetition, digests, the run environment) is written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import spec

ROOT = spec.ROOT
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 rounds: int | None = None) -> dict:
    """Run one workload in a child process; returns its full record.

    Raises RuntimeError when the child exits non-zero or times out, which
    means there is no measurement to report.
    """
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{name}: worker did not finish in {CHILD_TIMEOUT_S} s") from exc
    if child.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with code {child.returncode}")
    record = json.loads(child.stdout.strip().splitlines()[-1])
    record["environment"].update(host_environment())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def result_line(record: dict) -> dict:
    """The contract's result object: correct, attempted, failed, metrics."""
    wanted = [n for n, *_ in spec.END_TO_END] if record["trace"] == 0 else [
        n for n, _ in spec.PER_LAYER]
    metrics = record["metrics"]
    return {
        "correct": record["failed"] == 0 and all(metrics.get(n) is not None for n in wanted),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": metrics.get(n), "unit": spec.UNITS[n]} for n in wanted},
    }


def report(record: dict, line: dict) -> None:
    """Human-readable summary of one run (everything before the JSON line)."""
    print(f"{record['workload']} ({record['method']}, {record['rounds']} rounds) "
          f"seed={record['seed']} trace={record['trace']}: "
          f"{line['attempted']} repetitions, {line['failed']} failed")
    for r in record["repetitions"]:
        if not r["ok"]:
            print(f"  failed repetition: {r['error']}")
    measured = " ".join(f"{r['run_s']:.3f}" for r in record["repetitions"] if "digest" in r)
    probes = [s for _, s in record.get("probes", [])]
    print(f"  measured run_s per repetition: {measured} s"
          + (f"; probe median {statistics.median(probes) * 1e3:.2f} ms" if probes else ""))
    for name, m in line["metrics"].items():
        value = m["value"]
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {m['unit']}")
    name, unit, _ = spec.ERROR_RATE
    print(f"  {name:<40} {line['failed'] / line['attempted']:>14.6g} {unit}")
    env = record["environment"]
    print(f"  env: git {env['git_sha'][:12]}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, nproc {env['nproc']}, threads {env['process_threads_at_end']}, "
          + ", ".join(f"{k}={v}" for k, v in env["thread_env"].items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS),
                    help="run one workload (default: all, untraced and traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    runs = ([(args.workload, args.trace)] if args.workload else
            [(w, t) for w in spec.WORKLOADS for t in (0, 1)])
    lines, crashed = {}, False
    for name, trace in runs:
        try:
            record = run_workload(name, args.seed, args.seconds, trace)
        except RuntimeError as exc:  # no measurement; go on with the other workloads
            print(f"error: {exc}", file=sys.stderr)
            crashed = True
            continue
        line = result_line(record)
        report(record, line)
        lines[f"{name}/trace{trace}"] = line
    if crashed:
        return 1
    print(json.dumps(lines.popitem()[1] if args.workload else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
