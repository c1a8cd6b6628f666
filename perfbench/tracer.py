"""Span tracing from the benchmark's side of each layer boundary.

Nothing inside ``ranklab`` is instrumented.  ``Tracer.install`` replaces the
public callables listed in ``TRACED`` at every ``ranklab`` import site that
binds them (module attributes, class attributes and classmethods), so calls
made by the library into another layer are traced as well as the benchmark's
own calls.  ``Tracer.uninstall`` puts the originals back.

Every span records its name, start and end (``perf_counter_ns``), the index of
its parent span and a run id (0 is set-up, ``b >= 1`` is batch ``b``).  Spans
stay in memory and are written out once, when the run ends.  A span's self
time is its duration minus the durations of its child spans; self times are
accumulated as spans close, per name, separately for set-up and for batches.

Generators (``enumerate_subspaces``, ``projective_points``,
``iter_span_rows``, ``hyperplane_weight_iter``) get one span per ``next()``,
so their self time is the time spent producing items; their ``calls`` count
generator creations and ``items`` the items yielded.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

# Span names are the traced paths inside ranklab, "module.function" or
# "module.Class.method"; metrics are "<name>.s" (self time) and "<name>.calls".
TRACED = (
    "fields.make_tower",
    "fqlinalg.RowReducer.add_all",
    "fqlinalg.enumerate_subspaces",
    "fqlinalg.projective_points",
    "fqlinalg.iter_span_rows",
    "subspaces.FqSubspace.from_flat",
    "subspaces.FqSubspace.from_mid_vectors",
    "subspaces.iota",
    "subspaces.is_h_scattered",
    "subspaces.hyperplane_weight_iter",
    "subspaces.max_hyperplane_weight",
    "subspaces.delsarte_dual",
    "subspaces.delsarte_double_dual",
    "subspaces.ordinary_dual",
    "subspaces.characterize_max_h_scattered",
    "linsets.linear_set",
    "linsets.hyperplane_spectrum",
    "linsets.projective_system_code",
    "linsets.weight_enumerator",
    "rankcodes.RankCode.from_generators",
    "rankcodes.RankCode.rank_distribution",
    "rankcodes.RankCode.min_distance",
    "rankcodes.macwilliams_check",
    "rankcodes.right_idealiser",
    "rankcodes.left_idealiser",
    "rankcodes.delsarte_dual_code",
    "rankcodes.gabidulin_family_exclusion",
    "rankcodes.inequivalence_certificate",
    "constructions.random_scattered_search",
    "constructions.c_ug",
    "constructions.gabidulin",
    "constructions.twisted_gabidulin",
    "constructions.mrd_to_subspace",
    "constructions.find_nonsquare",
    "serialize.load_file",
    "serialize.rankcode_from_json",
    "serialize.subspace_from_json",
    "cli.main",
    "cli.run",
)
# The two driver spans whose self time excludes most of their work report it
# as "<name>.self_s".
SELF_S = {"constructions.random_scattered_search", "cli.run"}

LAYERS = ("fields", "fqlinalg", "subspaces", "rankcodes", "constructions",
          "linsets", "serialize", "cli")

# RowReducer.add_all is split by elimination path: packed GF(2) rows, odd
# characteristic, and the other generic fields (q = 4, 8).
ADD_ALL_PATHS = (".q2", ".qodd", ".qeven")
BATCH = "bench.batch"
SETUP = "bench.setup"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rec = array("q")      # name, run, parent, start_ns, end_ns per span
        self.stack: list[int] = []
        self.child: list[int] = []
        self.run_id = 0
        self.self_ns: dict[int, list[int]] = {0: [], 1: []}   # phase -> per name
        self.calls: dict[int, list[int]] = {0: [], 1: []}
        self.items: list[int] = []
        self.generators: set[str] = set()
        self._restore: list[tuple] = []
        self.batch = self.name_id(BATCH)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for table in (self.self_ns, self.calls):
                for col in table.values():
                    col.append(0)
            self.items.append(0)
        return nid

    # -- spans -----------------------------------------------------------------

    def open(self, nid: int) -> None:
        stack = self.stack
        i = len(self.rec) // 5
        self.rec.extend((nid, self.run_id, stack[-1] if stack else -1, 0, 0))
        stack.append(i)
        self.child.append(0)
        self.rec[5 * i + 3] = perf_counter_ns()

    def close(self) -> None:
        t = perf_counter_ns()
        rec = self.rec
        i = self.stack.pop()
        inner = self.child.pop()
        rec[5 * i + 4] = t
        dur = t - rec[5 * i + 3]
        if self.child:
            self.child[-1] += dur
        phase = 1 if self.run_id else 0
        nid = rec[5 * i]
        self.self_ns[phase][nid] += dur - inner

    # -- wrappers ----------------------------------------------------------------

    def _wrap_function(self, fn, name):
        nid = self.name_id(name)
        tr = self

        def traced(*args, **kwargs):
            tr.calls[1 if tr.run_id else 0][nid] += 1
            tr.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close()
        return traced

    def _wrap_generator(self, fn, name):
        self.generators.add(name)
        nid = self.name_id(name)
        tr = self

        def traced(*args, **kwargs):
            tr.calls[1 if tr.run_id else 0][nid] += 1
            it = fn(*args, **kwargs)
            while True:
                tr.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.close()
                tr.items[nid] += 1
                yield item
        return traced

    def _wrap_add_all(self, fn, name):
        q2, qodd, qeven = (self.name_id(name + path) for path in ADD_ALL_PATHS)
        tr = self

        def add_all(rr, rows):
            nid = q2 if rr.bits else (qodd if rr.field.order & 1 else qeven)
            tr.calls[1 if tr.run_id else 0][nid] += 1
            tr.open(nid)
            try:
                return fn(rr, rows)
            finally:
                tr.close()
        return add_all

    def install(self) -> None:
        """Wrap every TRACED callable at each ranklab site that binds it."""
        modules = {k: m for k, m in sys.modules.items()
                   if k == "ranklab" or k.startswith("ranklab.")}
        for name in TRACED:
            mod_name, *attrs = name.split(".")
            owner = modules["ranklab." + mod_name]
            if len(attrs) == 2:
                cls = getattr(owner, attrs[0])
                raw = cls.__dict__[attrs[1]]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap_function(raw.__func__, name))
                elif name == "fqlinalg.RowReducer.add_all":
                    wrapped = self._wrap_add_all(raw, name)
                else:
                    wrapped = self._wrap_function(raw, name)
                self._restore.append((cls, attrs[1], raw))
                setattr(cls, attrs[1], wrapped)
                continue
            orig = getattr(owner, attrs[0])
            if inspect.isgeneratorfunction(orig):
                wrapped = self._wrap_generator(orig, name)
            else:
                wrapped = self._wrap_function(orig, name)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def summary(self, batches: int) -> dict:
        """Per-batch self times and counts for the batch phase, the set-up
        phase self time of make_tower, and the per-layer totals."""
        out: dict[str, float] = {}
        s_run, s_setup = self.self_ns[1], self.self_ns[0]

        def per_batch(nid: int) -> tuple[float, float]:
            return s_run[nid] / batches / 1e9, _count(self.calls[1][nid], batches)

        for name in TRACED:
            if name == "fields.make_tower":
                nid = self.name_id(name)
                out[name + ".s"], out[name + ".calls"] = s_setup[nid] / 1e9, self.calls[0][nid]
            elif name == "fqlinalg.RowReducer.add_all":
                for path in ADD_ALL_PATHS:
                    out[name + ".s" + path], out[name + ".calls" + path] = \
                        per_batch(self.name_id(name + path))
            else:
                suffix = ".self_s" if name in SELF_S else ".s"
                out[name + suffix], out[name + ".calls"] = per_batch(self.name_id(name))
        for gen in self.generators:
            out[gen + ".items"] = _count(self.items[self.name_id(gen)], batches)
        layer = dict.fromkeys(LAYERS, 0)
        for nid, name in enumerate(self.names):
            mod = name.split(".", 1)[0]
            if mod in layer:
                layer[mod] += s_run[nid]
        for mod, ns in layer.items():
            out[mod + ".self_s"] = ns / batches / 1e9
        out["bench.self_s"] = s_run[self.batch] / batches / 1e9
        out["trace.run_s"] = self.batch_total_ns() / batches / 1e9
        return out

    def batch_total_ns(self) -> int:
        rec = self.rec
        return sum(rec[5 * i + 4] - rec[5 * i + 3]
                   for i in range(len(rec) // 5) if rec[5 * i] == self.batch)

    def write(self, path: str, header: dict) -> None:
        """gzip file: one JSON header line, then the span table as
        little-endian int64 rows (name, run, parent, start_ns, end_ns)."""
        head = dict(header, names=self.names, spans=len(self.rec) // 5,
                    columns=["name", "run", "parent", "start_ns", "end_ns"])
        rec = self.rec
        if sys.byteorder != "little":
            rec = array("q", rec)
            rec.byteswap()
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            fh.write(rec.tobytes())


def _count(total: int, batches: int):
    """Calls per batch: every batch repeats the same work, so this is an
    exact integer unless a batch diverged."""
    return total // batches if total % batches == 0 else total / batches
