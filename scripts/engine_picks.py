#!/usr/bin/env python3
"""Print the engine picks of one batch of a perfbench workload.

Runs the workload WORKLOAD (search, certify or geometry) of the checkout
CHECKOUT in this process, against CHECKOUT's own src/ranklab: its set-up,
then each of its tasks once, with the fqlinalg.cheapest that subspaces and
rankcodes import wrapped.  Every call of the wrapper is one pick; it is
filed under the task that made it ("setup" for the set-up) and the unit of
the entry it returned.  A call made while the engine of an earlier pick
runs is that engine's own budget check, not a new pick, and is not
counted.  The output is one sorted line per task and unit:

    count task unit

so that `diff` between the outputs of two checkouts shows every pick a
change moves.  Nothing under perfbench/ is changed or written.

Usage: python scripts/engine_picks.py CHECKOUT WORKLOAD [--seed S]
           [--size tiny|full]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description="engine picks of one workload batch")
    ap.add_argument("checkout", help="a checkout of the repository")
    ap.add_argument("workload", choices=("search", "certify", "geometry"))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--size", choices=("tiny", "full"), default="full")
    return ap.parse_args(argv)


def record_picks(modules, picks: Counter, task: list):
    """Wrap the cheapest each of modules imports: a call counts
    picks[task[0], unit] for the entry it returns, unless it is made while
    a picked engine runs."""
    running = [0]

    def engine(value):
        def run(*args, **kwargs):
            running[0] += 1
            try:
                return value(*args, **kwargs)
            finally:
                running[0] -= 1
        return run

    for module in modules:
        real = module.cheapest

        def cheapest(engines, budget, real=real):
            engines = list(engines)
            value = real(engines, budget)
            if running[0]:
                return value
            unit = next(e[2] for e in engines if e[3] is value)
            picks[task[0], unit] += 1
            return engine(value) if callable(value) else value

        module.cheapest = cheapest


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.path.abspath(args.checkout)
    sys.dont_write_bytecode = True      # leave no __pycache__ in the checkout
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from ranklab import rankcodes, subspaces

    picks, task = Counter(), ["setup"]
    record_picks((subspaces, rankcodes), picks, task)
    workload = __import__(args.workload)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = os.path.join(tmp, "work")
        os.makedirs(workdir)
        tasks = workload.Workload(args.seed, args.size, workdir).tasks()
        for name, fn in tasks:
            task[0] = name
            fn()
    for (name, unit), count in sorted(picks.items()):
        print(count, name, unit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
