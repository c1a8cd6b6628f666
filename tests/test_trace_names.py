"""The names perfbench/tracer.py traces still resolve in ranklab.

The tracer wraps every name of its TRACED tuple at the ranklab import sites
and gives generator functions one span per item, so a renamed function, an
item-counted function that stops being a generator, or a traced method that
its class no longer defines itself breaks every traced benchmark run.
TRACED is read with ast, without importing perfbench.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def _resolve(name: str):
    mod, *attrs = name.split(".")
    obj = importlib.import_module("ranklab." + mod)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


TRACED = _traced()
ITEM_COUNTED = sorted(
    m["name"][:-len(".items")]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    if m["name"].endswith(".items"))


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", [n for n in TRACED if n.count(".") == 2])
def test_traced_method_is_defined_on_its_class(name):
    """Tracer.install reads a method from its class's own __dict__, so an
    inherited method, or one moved to module level, breaks every traced run."""
    owner, attr = name.rsplit(".", 1)
    raw = vars(_resolve(owner)).get(attr)
    assert inspect.isfunction(raw) or isinstance(raw, classmethod), name


def test_item_counted_names_are_traced_generator_functions():
    assert "fqlinalg.iter_span_rows" in ITEM_COUNTED
    for name in ITEM_COUNTED:
        assert name in TRACED, name
        assert inspect.isgeneratorfunction(_resolve(name)), name
