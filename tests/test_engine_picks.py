"""scripts/engine_picks.py: the pick counter on stand-in modules, and one
batch of each workload at the tiny size, run on this checkout in a fresh
interpreter."""

import importlib.util
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "engine_picks.py"
spec = importlib.util.spec_from_file_location("engine_picks", SCRIPT)
engine_picks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(engine_picks)


def test_a_budget_check_inside_a_picked_engine_is_not_a_pick():
    outer, inner = types.SimpleNamespace(), types.SimpleNamespace()
    outer.cheapest = inner.cheapest = lambda engines, budget: min(engines)[3]
    picks, task = Counter(), ["setup"]
    engine_picks.record_picks((outer, inner), picks, task)
    walk = lambda: inner.cheapest([(1, 7, "points", "walk")], 10)    # noqa: E731
    assert outer.cheapest([(2, 9, "words", "scan"), (1, 7, "points", walk)], 10)() == "walk"
    task[0] = "t"
    assert inner.cheapest([(1, 7, "points", True)], 10) is True
    assert picks == {("setup", "points"): 1, ("t", "points"): 1}


@pytest.mark.parametrize("workload", ["search", "certify", "geometry"])
def test_tiny_batch_prints_one_sorted_line_per_task_and_unit(workload):
    out = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), workload, "--size", "tiny"],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    rows = [line.split(" ", 2) for line in out]
    keys = [tuple(row[1:]) for row in rows]
    assert keys and keys == sorted(set(keys))
    assert all(int(count) > 0 for count, _, _ in rows)
    units = {unit for _, _, unit in rows}
    assert "subspace F_q-points" in units
    assert units <= {"subspace F_q-points", "codewords"} | {
        unit for unit in units if unit.startswith("subspaces of F_")}
