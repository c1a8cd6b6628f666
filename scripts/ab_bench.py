#!/usr/bin/env python3
"""A/B comparison of two checkouts on one benchmark workload.

Runs each checkout's perfbench/run.py in turn, --pairs times, alternating
which side goes first (the parent in even pairs, the change in odd ones),
all at the same --seed and --seconds.  Each run's last stdout line is its
JSON result.  For every end-to-end metric it prints the median per side,
the relative change of the medians, the distance between the quartiles of
the parent's runs, and the number of pairs in which the change's value was
lower.  It ends each metric's row with a verdict, by the metric's entry in
BENCHMARK.json (its better direction and bound):
- gain: the change is better in at least 9 of every 10 pairs, and its
  median beats the parent's by more than the parent's interquartile
  distance;
- worse: the change's median is worse than the parent's by more than the
  bound, as a fraction of the parent's median;
- unresolved: neither;
- "-": the metric has no entry.
With --workload all it compares every workload of BENCHMARK.json in turn,
prints each one's table, and ends with the metrics judged worse on any of
them ("worse: none" when there are none).
Each run's result is checked as soon as it finishes; exit status 1 at the
first run that fails: a nonzero exit, a missing result line, a result that
is not correct, or one that lacks a metric of the parent's first result.

Usage: python scripts/ab_bench.py --parent DIR --change DIR --workload W|all
           [--pairs N] [--seed S] [--seconds T]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class RunFailed(Exception):
    pass


def parse_result(line: str) -> dict[str, float]:
    """{metric: value} of a run's JSON result line."""
    try:
        result = json.loads(line)
    except ValueError as exc:
        raise RunFailed(f"no JSON result line: {line[:80]!r}") from exc
    if not isinstance(result, dict):
        raise RunFailed(f"no JSON result line: {line[:80]!r}")
    if not result.get("correct"):
        raise RunFailed(f"{result.get('failed')} of {result.get('attempted')} tasks failed")
    try:
        return {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RunFailed(f"malformed metrics: {exc!r}") from exc


def load_specs(path: Path = BENCHMARK) -> dict[str, dict]:
    """{metric: its end-to-end entry} of a BENCHMARK.json; {} without one."""
    if not path.exists():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def load_workloads(path: Path = BENCHMARK) -> list[str]:
    """The workload names of a BENCHMARK.json, in its order."""
    return [w["name"] for w in json.loads(path.read_text())["workloads"]]


def verdict(spec: dict | None, before: float, after: float, iqr: float, pairs) -> str:
    """gain, worse or unresolved (the rules of the module docstring) for one
    metric with parent and change medians before and after, parent
    interquartile distance iqr and (parent, change) values pairs, by its
    BENCHMARK.json entry spec; "-" without one."""
    if spec is None:
        return "-"
    sign = 1 if spec["better"] == "lower" else -1
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if 10 * wins >= 9 * len(pairs) and sign * (before - after) > iqr:
        return "gain"
    if sign * (after - before) > spec["bound"] * abs(before):
        return "worse"
    return "unresolved"


def summarize(runs, specs=None) -> list[tuple[str, float, float, float, float, int, str]]:
    """(metric, parent median, change median, relative change, parent
    interquartile distance, pairs in which the change was lower, verdict)
    for each metric of the first parent result, from (parent, change) pairs
    of parse_result dicts, with verdicts by specs (load_specs)."""
    for pair in runs:
        for result in pair:
            missing = [name for name in runs[0][0] if name not in result]
            if missing:
                raise RunFailed(f"result lacks metric(s) {', '.join(missing)}")
    rows = []
    for name in runs[0][0]:
        parent, change = [a[name] for a, _ in runs], [b[name] for _, b in runs]
        before, after = statistics.median(parent), statistics.median(change)
        rel = (after - before) / before if before else 0.0
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (0, 0, 0)
        pairs = list(zip(parent, change))
        rows.append((name, before, after, rel, q3 - q1, sum(b < a for a, b in pairs),
                     verdict((specs or {}).get(name), before, after, q3 - q1, pairs)))
    return rows


def run(checkout: str, args) -> dict[str, float]:
    """The parsed result of one perfbench run of checkout."""
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RunFailed(f"{checkout}: exit {proc.returncode}\n{proc.stderr.strip()}")
    try:
        return parse_result(lines[-1])
    except RunFailed as exc:
        raise RunFailed(f"{checkout}: {exc}") from exc


def compare(args, specs) -> list[tuple[str, float, float, float, float, int, str]]:
    """summarize's rows over args.pairs alternating pairs of runs of
    args.workload, each pair checked as soon as it has run."""
    pairs = []
    for i in range(args.pairs):
        if i % 2 == 0:
            pairs.append((run(args.parent, args), run(args.change, args)))
        else:
            change = run(args.change, args)
            pairs.append((run(args.parent, args), change))
        rows = summarize(pairs, specs)
        print(f"{args.workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
    return rows


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    specs, worse = load_specs(), []
    for workload in load_workloads() if args.workload == "all" else [args.workload]:
        args.workload = workload
        try:
            rows = compare(args, specs)
        except RunFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(f"workload {workload}\n{'metric':14s} {'parent':>12s} {'change':>12s} "
              f"{'rel':>8s} {'parent IQR':>12s}  lower  verdict")
        for name, parent, change, rel, iqr, lower, word in rows:
            print(f"{name:14s} {parent:12.6g} {change:12.6g} {rel:+8.1%} {iqr:12.6g}  "
                  f"{f'{lower}/{args.pairs}':>5s}  {word}")
            if word == "worse":
                worse.append(f"{workload} {name}")
    print(f"worse: {', '.join(worse) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
