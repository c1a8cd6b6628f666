"""Helpers shared by the workloads: oracle checks, the CLI call wrapper with
its report-schema check, and seeded input generators."""

from __future__ import annotations

import contextlib
import io
import json
import os

from ranklab import cli, fqlinalg, linsets, serialize, subspaces


class OracleError(Exception):
    """An output disagreed with its oracle."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


# -- the rank-lab CLI ------------------------------------------------------------


def load_schema() -> dict:
    with open(cli.SCHEMA_FILE, encoding="utf-8") as fh:
        return json.load(fh)


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None)}


def _is_type(value, name: str) -> bool:
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def schema_errors(value, schema: dict, root: dict, path: str = "$") -> list[str]:
    """Check value against the JSON-Schema subset run_report.schema.json uses
    (type, required, properties, items, const, enum, minimum, $ref)."""
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].lstrip("#/").split("/"):
            target = target[part]
        return schema_errors(value, target, root, path)
    errs: list[str] = []
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_is_type(value, t) for t in names):
            return [f"{path}: expected {schema['type']}"]
    if "const" in schema and value != schema["const"]:
        errs.append(f"{path}: expected {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        errs.append(f"{path}: not in {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        errs.append(f"{path}: below {schema['minimum']}")
    if isinstance(value, dict):
        errs += [f"{path}: missing {k}" for k in schema.get("required", ())
                 if k not in value]
        for k, sub in schema.get("properties", {}).items():
            if k in value:
                errs += schema_errors(value[k], sub, root, f"{path}.{k}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errs += schema_errors(item, schema["items"], root, f"{path}[{i}]")
    return errs


class Cli:
    """Runs rank-lab verbs in-process through ``cli.main`` and checks the
    exit code and the JSON report against the report schema."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.schema = load_schema()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def __call__(self, argv: list[str], artifact: str | None = None) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--json"])
        check(code == 0, f"rank-lab {argv[0]} exited {code}: {err.getvalue().strip()}")
        report = json.loads(out.getvalue())
        errs = schema_errors(report, self.schema, self.schema)
        if artifact is not None:
            errs += schema_errors(report["results"].get("artifact"),
                                  self.schema["$defs"][artifact], self.schema,
                                  "$.results.artifact")
        check(not errs, f"rank-lab {argv[0]} report: {errs[:3]}")
        return report["results"]


# -- seeded inputs -------------------------------------------------------------------


def random_invertible(F, r: int, rng) -> fqlinalg.Mat:
    while True:
        M = fqlinalg.Mat.from_rows(
            F, [[rng.randrange(F.order) for _ in range(r)] for _ in range(r)], r)
        if fqlinalg.rref(M)[1] == r:
            return M


def seeded_image(U: subspaces.FqSubspace, rng) -> subspaces.FqSubspace:
    """U·A for a seeded A in GL(r, q^n): a collineation, so h-scatteredness,
    iota and every weight spectrum of U carry over."""
    A = random_invertible(U.tower.mid, U.r, rng)
    return subspaces.FqSubspace.from_mid_vectors(
        U.tower, U.r, [fqlinalg.vec_mat(list(v), A) for v in U.basis_mid])


def write_subspace(path: str, U: subspaces.FqSubspace) -> None:
    serialize.dump_file(path, serialize.subspace_to_json(U))


# -- linear-set oracles ----------------------------------------------------------------


def point_weights(U: subspaces.FqSubspace) -> dict:
    """Point weights of L_U, checked against the partition identity
    sum_P (q^w(P) - 1) = q^k - 1."""
    q = U.tower.q
    pts = linsets.linear_set(U).points
    check(sum(q**w - 1 for w in pts.values()) == q**U.k - 1,
          "linear-set point weights break the partition identity")
    return pts


def scattered_by_points(U: subspaces.FqSubspace, pts: dict) -> bool:
    """U is 1-scattered iff it spans V and every point of L_U has weight 1."""
    return U.spans_ambient() and all(w == 1 for w in pts.values())


def max_hyperplane_by_dual(U: subspaces.FqSubspace) -> int:
    """max_H dim(U ∩ H) = max point weight of L_{U^⊥'} + k - n (the
    ordinary-duality identity dim(U ∩ H_w) = w_{U^⊥'}(<w>) + k - n)."""
    dual = subspaces.ordinary_dual(U)
    return max(point_weights(dual).values(), default=0) + U.k - U.tower.n
