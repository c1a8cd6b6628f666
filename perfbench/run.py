#!/usr/bin/env python3
"""The ranklab benchmark: one command, three workloads (search, certify,
geometry), every output checked against an independent oracle.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Each workload is a closed loop: one single-threaded caller runs the
workload's fixed batch of tasks back to back, in a fresh interpreter.

--trace 0 reports the end-to-end metrics.  SETUP_SAMPLES fresh interpreters
each set the workload up (imports, towers, fixtures, seeded inputs, the corpus
JSON); setup_s is the median time from process start to inputs ready.  The
last of them then runs whole batches for --seconds; run_s is the batch time,
the sum over the batch's tasks of each task's median time, and peak_rss_mb
that process's ru_maxrss.  Both times are given at a reference speed of the
host: the host is shared and slows identical work by up to ~1.8x at times, so
each worker samples its speed while it runs and scales by it (see speed.py).
The wall times are printed and written to the result file as well.

--trace 1 reports the per-layer metrics.  One untraced interpreter runs
batches for half of --seconds, then a traced one for the other half: spans
around each layer's public callables give per-batch self times and call
counts, the kernel probes run after it, and trace.overhead_ratio is the
traced mean wall batch time over the untraced one.

Human-readable lines, including evals_per_s (search) and fail_ratio, come
first; the last stdout line is the JSON result.  The run record and all
per-batch figures go to perfbench/out/.  Exit status: 0 when every oracle
agreed, 1 when a task failed or a worker broke, 2 when the checkout has no
ranklab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("search", "certify", "geometry")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


class WorkerError(Exception):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every task at a small size (smoke test)")
    return ap.parse_args(argv)


class Runner:
    """Starts worker interpreters one at a time, each under the run's deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, mode: str, seconds: float, trace: bool = False,
              spans: Path | None = None) -> tuple[float, dict]:
        """Returns (seconds from process start to READY, the worker's result)."""
        self.count += 1
        workdir = OUT / f"work-{os.getpid()}-{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", repr(seconds), "--size", self.args.size, "--mode", mode,
               "--workdir", str(workdir)]
        if trace:
            cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            shutil.rmtree(workdir, ignore_errors=True)
        if ready.strip() != "READY" or code != 0:
            raise WorkerError(f"{mode} worker exited {code} (ready={ready.strip()!r})")
        return setup_s, json.loads(rest.strip().splitlines()[-1])


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args) -> dict:
    return {"git_sha": git_sha(ROOT), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "loadavg_1m": os.getloadavg()[0], "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size}


def batch_time(per_batch: list[list[float]]) -> float:
    """The sum over tasks of each task's median time across batches: a
    batch in which one long task was timed badly moves only that task's
    median."""
    return sum(statistics.median(times) for times in zip(*per_batch))


def end_to_end(runner, args) -> tuple[dict, dict, list]:
    setups = [runner.spawn("setup", 0) for _ in range(SETUP_SAMPLES - 1)]
    setups.append(runner.spawn("measure", args.seconds))
    res = setups[-1][1]
    walls = [wall for wall, _ in setups]
    speeds = [r["speed"] for _, r in setups]
    at_ref = [(wall - r["sampling_s"]) * r["speed"] for wall, r in setups]
    values = {"setup_s": statistics.median(at_ref),
              "run_s": batch_time(res["task_at_ref"]),
              "fail_ratio": res["failed"] / res["attempted"],
              "peak_rss_mb": res["peak_rss_mb"],
              "setup_wall_s": statistics.median(walls),
              "run_wall_s": batch_time(res["task_walls"])}
    if args.workload == "search":
        values["evals_per_s"] = sum(res["units"]) / sum(map(sum, res["task_at_ref"]))
    detail = {"setup_walls": walls, "setup_speeds": speeds, "setup_at_ref": at_ref,
              "task_walls": res["task_walls"], "task_at_ref": res["task_at_ref"],
              "units": res["units"],
              "tasks": res["tasks"], "inputs": res["inputs"]}
    return values, detail, [res]


def per_layer(runner, args) -> tuple[dict, dict, list]:
    half = args.seconds / 2
    _, plain = runner.spawn("measure", half)
    _, traced = runner.spawn("measure", half, trace=True,
                             spans=OUT / f"spans-{args.workload}.bin.gz")
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = (values["trace.run_s"]
                                      / statistics.fmean(map(sum, plain["task_walls"])))
    detail = {"untraced_task_walls": plain["task_walls"],
              "traced_task_walls": traced["task_walls"],
              "tasks": traced["tasks"], "inputs": traced["inputs"]}
    return values, detail, [plain, traced]


UNITS = {"setup_s": "s", "run_s": "s", "evals_per_s": "1/s", "fail_ratio": "ratio",
         "peak_rss_mb": "MB", "setup_wall_s": "s", "run_wall_s": "s"}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # SIGTERM unwinds like an exit, so Runner.spawn still kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ranklab" / "__init__.py").is_file():
        print(f"error: no ranklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    record = run_record(args)
    # Workers inherit this: each runs on one CPU from start to end, so its
    # speed samples are taken on the CPU whose speed they are to measure (the
    # vCPUs of a shared host can run at different speeds).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record["cpu"] = cpu
    runner = Runner(args)
    try:
        values, detail, results = (per_layer if args.trace else end_to_end)(runner, args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]

    print(f"ranklab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(values) if args.trace else UNITS:
        if name in values:
            print(f"  {name:44s} {values[name]!r:>24} {units.get(name, UNITS.get(name, ''))}")
    print(f"  tasks: {attempted} attempted, {failed} failed")
    for msg in failures:
        print(f"  FAILED {msg}")
    print(f"  record: {json.dumps(record)}")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": values, "detail": detail,
                   "attempted": attempted, "failed": failed, "failures": failures}, fh, indent=1)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
