#!/usr/bin/env python3
"""Verdicts for the last row of a committed perf-trajectory file.

Usage, from anywhere:

    python3 tools/bench_verdict.py BENCH_paper_nets.json [BENCH_fixture_burst.json ...]

Each file is a JSON list of rows, one per measuring change (see
docs/BENCHMARKS.md for the row format). Every row is checked; a malformed row
exits 1. For the last row of each file, every end-to-end metric of
BENCHMARK.json gets the two medians, the parent's quartiles, the change's wins
over the pairs (ties count for neither side) and one verdict:

  improved      the change wins at least nine tenths of the pairs, and the
                medians differ by more than the parent's quartile spread;
  regressed     the change's median is worse than the parent's by more than
                the metric's bound (a fraction of the parent's median);
  unresolved    the parent's quartile spread is wider than the bound, unless
                every change run beats every parent run;
  within bound  any other case.
"""
import json
import statistics
import sys
from pathlib import Path

ROW_KEYS = {"parent": str, "date": str, "workload": str, "nproc": int, "gemm_i8_body": str,
            "run_seconds": (int, float), "seeds": list, "first": list, "parent_runs": list,
            "change_runs": list}


def fail(message):
    print(f"bench_verdict: {message}", file=sys.stderr)
    sys.exit(1)


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def check_row(row, where, metrics):
    if not isinstance(row, dict):
        fail(f"{where}: a row must be an object")
    for key, kind in ROW_KEYS.items():
        if not isinstance(row.get(key), kind) or isinstance(row.get(key), bool):
            fail(f"{where}: missing or mistyped '{key}'")
    pairs = len(row["seeds"])
    if pairs < 2:
        fail(f"{where}: needs at least two pairs")
    if len(row["first"]) != pairs or any(side not in ("parent", "change") for side in row["first"]):
        fail(f"{where}: 'first' must name 'parent' or 'change' once per seed")
    for side in ("parent_runs", "change_runs"):
        if len(row[side]) != pairs:
            fail(f"{where}: '{side}' must hold one run per seed")
        for i, run in enumerate(row[side]):
            for name in metrics:
                value = run.get(name) if isinstance(run, dict) else None
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    fail(f"{where}: {side}[{i}] lacks a number for '{name}'")


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    all_beat = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > spread:
        result = "improved"
    elif worse_by > bound:
        result = "regressed"
    elif p_med and spread / abs(p_med) > bound and not all_beat:
        result = "unresolved"
    else:
        result = "within bound"
    return p_med, c_med, q1, q3, wins, result


def main():
    if len(sys.argv) < 2:
        fail("usage: bench_verdict.py FILE [FILE ...]")
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    for path in sys.argv[1:]:
        try:
            rows = json.loads(Path(path).read_text())
        except (OSError, ValueError) as error:
            fail(f"{path}: {error}")
        if not isinstance(rows, list) or not rows:
            fail(f"{path}: expected a non-empty JSON list of rows")
        for i, row in enumerate(rows):
            check_row(row, f"{path} row {i}", metrics)
        last = rows[-1]
        print(f"{path}: {last['workload']}, parent {last['parent'][:12]}, {last['date']}, "
              f"{len(last['seeds'])} pairs of {last['run_seconds']} s, nproc {last['nproc']}, "
              f"{last['gemm_i8_body']}")
        print(f"  {'metric':<16} {'parent':>12} {'change':>12} {'parent q1':>12} "
              f"{'parent q3':>12} {'wins':>9}  verdict")
        for name, spec in metrics.items():
            parent = [run[name] for run in last["parent_runs"]]
            change = [run[name] for run in last["change_runs"]]
            p_med, c_med, q1, q3, wins, result = verdict(parent, change, spec["better"],
                                                         spec["bound"])
            print(f"  {name:<16} {p_med:>12.6g} {c_med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{wins:>4}/{len(parent):<4} {result}")


if __name__ == "__main__":
    main()
