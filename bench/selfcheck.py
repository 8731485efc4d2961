"""Fast self-check of the benchmark harness (about half a minute).

    python3 bench/selfcheck.py

Runs every workload shrunk to one round, untraced and then traced, each in
its own child process as the benchmark does, and checks that:

- BENCHMARK.json is exactly what bench/spec.py generates, within the
  limits of the benchmark format;
- every end-to-end and per-layer metric is emitted, with its unit;
- no repetition failed, and the traced run's output digest equals the
  untraced one and that of the end-to-end run, whose rounds the host-speed
  probe runs between;
- the traced counts agree with each other;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits non-zero at the first check that fails.
"""

from __future__ import annotations

import math
import re
import shutil
import subprocess
import sys

import run
import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_benchmark_json() -> None:
    on_disk = spec.BENCHMARK_JSON.read_text() if spec.BENCHMARK_JSON.is_file() else ""
    check(on_disk == spec.render(),
          "BENCHMARK.json differs from bench/spec.py; run python3 bench/spec.py --write")
    bench = spec.benchmark_json()
    check(1 <= bench["run_seconds"] <= 60, "run_seconds out of 1..60")
    check(2 <= len(bench["workloads"]) <= 8, "need 2 to 8 workloads")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "a name is used twice")
    check(all(NAME.fullmatch(n) for n in names), "a name breaks the naming rule")
    for w in bench["workloads"]:
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} too long")
    for m in bench["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']} out of (0, 0.25]")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(bool(UNIT.fullmatch(m["unit"])), f"unit of {m['name']} breaks the unit rule")
        check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    setup = next((m for m in bench["end_to_end"] if m["name"] == "setup_s"), None)
    check(setup is not None and setup["unit"] == "s" and setup["better"] == "lower"
          and setup["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s must be in s, lower is better, with the largest bound")
    check(1 <= len(bench["per_layer"]) <= 128, "need 1 to 128 per-layer metrics")


def check_line(line: dict, expected: list[tuple[str, str]], label: str) -> None:
    check(sorted(line) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 2,
          f"{label}: {line['failed']} of {line['attempted']} repetitions failed")
    got = {n: m["unit"] for n, m in line["metrics"].items()}
    check(got == dict(expected), f"{label}: metrics or units differ from bench/spec.py")
    for name, m in line["metrics"].items():
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{label}: {name} = {m['value']!r}")


def check_trace_counts(record: dict) -> None:
    m, label = record["metrics"], record["workload"]
    digests = [r["digest"] for r in record["repetitions"]]
    check(len(set(digests)) == 1, f"{label}: traced digest differs from untraced")
    check(m["model.opt_steps"] == m["model.backward.calls"] == m["model.forward.train_calls"]
          == m["model.sample_batch.calls"] > 0, f"{label}: optimizer step counts disagree")
    check(m["engine.eval_repeats"] <= m["model.mean_nll.calls"]
          == m["model.forward.eval_calls"] > 0, f"{label}: evaluation counts disagree")
    check(m["engine.fit.calls"] == 1, f"{label}: expected one runner call")
    calls = sum(v for n, v in m.items() if n.endswith(".calls") or n.endswith("_calls"))
    check(calls == m["trace.spans"], f"{label}: span count {m['trace.spans']} != calls {calls}")
    flat = record["method"] == "flat_fl"
    check(flat == (m["model.Partition.calls"] == 0), f"{label}: Partition calls")
    check(flat == (m["residual.partition_residuals.calls"] == 0), f"{label}: residual calls")
    check((record["workload"] == "wide-dp") == (m["privacy.clip.calls"] > 0), f"{label}: DP calls")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(spec.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(spec.BENCHMARK_JSON, bare / "BENCHMARK.json")
        name = next(iter(spec.WORKLOADS))
        child = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", name, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(child.returncode != 0, "benchmark exited 0 without the program's sources")
    check('"correct"' not in child.stdout, "benchmark printed a result without the sources")


def main() -> int:
    try:
        check_benchmark_json()
        end_to_end = [(n, u) for n, u, *_ in spec.END_TO_END]
        for name in spec.WORKLOADS:
            digests = {}
            for trace, expected in ((0, end_to_end), (1, spec.PER_LAYER)):
                record = run.run_workload(name, seed=1, seconds=1, trace=trace, rounds=1)
                check_line(run.result_line(record), expected, f"{name} trace={trace}")
                if trace:
                    check_trace_counts(record)
                digests[trace] = {r["digest"] for r in record["repetitions"]}
                print(f"ok   {name} trace={trace}")
            check(digests[0] == digests[1],
                  f"{name}: the round clock's runs and the traced runs have other outputs")
        check_bare_directory()
        print("ok   bare directory fails without a result")
    except (CheckFailed, RuntimeError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
