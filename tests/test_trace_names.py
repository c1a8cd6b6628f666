"""The names perfbench/tracer.py traces, and every ranklab name the
benchmark reads, still resolve in ranklab.

The tracer wraps every name of its TRACED tuple at the ranklab import sites
and gives generator functions one span per item, so a renamed function, an
item-counted function that stops being a generator, or a traced method that
its class no longer defines itself breaks every traced benchmark run.  The
workloads also read names of their own (constructions.cug_mrd_weight_distribution,
rankcodes.GabidulinExclusion.CERTIFIED_NEW, ...), and one of them gone fails
every run as well.  TRACED and the workloads are read with ast, without
importing perfbench.
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


def _perfbench_names() -> list[str]:
    """Every attribute chain perfbench/*.py roots at a ranklab module, as
    "module.attr...": the longest chain of each Name.attr... expression
    whose Name an import binds to ranklab or one of its modules."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots = {}      # bound name -> its ranklab module path ("" for the package)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ranklab" and not node.level:
                roots.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "ranklab":
                        roots[a.asname or "ranklab"] = a.name.partition(".")[2] if a.asname else ""
        inner = set()
        for node in ast.walk(tree):     # breadth first: a chain's outermost node comes first
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
                inner.add(id(node))
            if isinstance(node, ast.Name) and node.id in roots:
                names.add(".".join(filter(None, [roots[node.id], *reversed(attrs)])))
    return sorted(names)


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


@pytest.mark.parametrize("name", _perfbench_names())
def test_perfbench_name_resolves(name):
    _resolve(name)


def test_perfbench_names_are_found():
    names = _perfbench_names()
    assert {"constructions.cug_mrd_weight_distribution", "fqlinalg.rref",
            "rankcodes.GabidulinExclusion.CERTIFIED_NEW"} <= set(names)


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
