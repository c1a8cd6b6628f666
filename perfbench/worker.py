"""One workload in a fresh interpreter: set up, then (in measure mode) run
whole batches back to back for the given number of seconds.

Protocol with run.py: the worker prints ``READY`` on stdout as soon as its
inputs are ready (the parent times set-up from process start to that line),
then one JSON result as its last stdout line: the host's speed during set-up
and the time spent sampling it (untraced runs, see speed.py) and, in measure
mode, the batch figures.  Nothing else goes to stdout.

Usage: python worker.py --root DIR --workload W --seed N --seconds S
                        --size full|tiny --mode setup|measure --workdir DIR
                        [--trace] [--spans FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time

import speed


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the trace's spans to this file")
    return ap.parse_args(argv)


def run_batch(tasks, sampler) -> tuple[list[str], int, list[float], list[float]]:
    """Run every task once; returns (failure messages, work units, each
    task's wall seconds, each task's seconds at reference speed).  Without a
    sampler the two lists are the same."""
    failures, units, walls, at_ref = [], 0, [], []
    for name, fn in tasks:
        mark = sampler.mark() if sampler else 0
        t0 = time.perf_counter()
        try:
            got = fn()
        except Exception as exc:  # a task failure is counted, never fatal
            got = None
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        walls.append(dt)
        at_ref.append(sampler.at_ref_speed(dt, mark) if sampler else dt)
        if isinstance(got, int):
            units += got
    return failures, units, walls, at_ref


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # the traced run is not sampled: samples would land inside its spans
    sampler = None if args.trace else speed.Sampler()
    if sampler:
        sampler.start()
    sys.path.insert(0, os.path.join(args.root, "src"))
    # every ranklab module is imported before the tracer scans their bindings
    import ranklab.cli, ranklab.fixtures  # noqa: E401,F401

    tracer = None
    if args.trace:
        from tracer import SETUP, Tracer
        tracer = Tracer()
        tracer.install()
        tracer.open(tracer.name_id(SETUP))

    module = __import__(args.workload)
    os.makedirs(args.workdir)
    try:
        wl = module.Workload(args.seed, args.size, args.workdir)
        tasks = wl.tasks()
        if tracer:
            tracer.close()
        print("READY", flush=True)
        result = {}
        if sampler:
            end = sampler.mark()
            result = {"speed": sampler.speed(0), "sampling_s": sampler.sampling_s(0, end)}
        if args.mode == "measure":
            result.update(measure(args, wl, tasks, tracer, sampler))
    finally:
        if sampler:
            sampler.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(args, wl, tasks, tracer, sampler) -> dict:
    batches, at_refs, units, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()
        if tracer:
            tracer.run_id = len(batches) + 1
            tracer.open(tracer.batch)
        t0 = time.perf_counter()
        msgs, done, walls, at_ref = run_batch(tasks, sampler)
        t1 = time.perf_counter()
        if tracer:
            tracer.close()
        batches.append(walls)
        at_refs.append(at_ref)
        units.append(done)
        attempted += len(tasks)
        failures += msgs
        longest = max(longest, t1 - t0)
        # start another batch only if it is expected to finish in time
        if t1 - start + longest > args.seconds:
            break
    if sampler:
        sampler.stop()
    # per batch, the wall and the reference-speed time of each task
    result = {"task_walls": batches, "task_at_ref": at_refs, "units": units,
              "attempted": attempted, "failed": len(failures), "failures": failures[:20],
              "tasks": [name for name, _ in tasks],
              "inputs": wl.inputs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.summary(len(batches))
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
        import probes
        result["layers"].update(probes.run(args.seed))
    return result


if __name__ == "__main__":
    sys.exit(main())
