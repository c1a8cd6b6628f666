"""JSON (de)serialization for towers, field elements, matrices, subspaces and
codes.

Field elements appear in two forms: the element form {level, coeffs} with the
coefficient vector over the prime field, and (inside matrices and code bases)
plain integer codes, whose base-p digits are exactly those coefficients.
Towers serialize with their derived moduli; deserialization re-derives the
deterministic moduli and verifies they match, so files are portable.
"""

from __future__ import annotations

import functools
import json
from typing import Any

from .errors import GateError, IoError, UsageError
from .fields import Field, FieldTower, make_tower
from .fqlinalg import Mat
from .linsets import HammingCode
from .rankcodes import RankCode
from .subspaces import FqSubspace


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _req(obj: Any, key: str, kind: type, what: str) -> Any:
    """obj[key], checked to be present and of the given JSON type."""
    if not isinstance(obj, dict):
        raise UsageError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise UsageError(f"{what}: missing key {key!r}")
    val = obj[key]
    if not (_is_int(val) if kind is int else isinstance(val, kind)):
        raise UsageError(f"{what}: key {key!r} must be of type {kind.__name__}, "
                         f"got {type(val).__name__}")
    return val


def _reads(what: str):
    """Decorate a reader of a {what} from file content: a GateError raised
    while building it means the file is malformed, so it becomes a
    UsageError naming the {what} (CLI exit 1).  BudgetExceeded and
    InternalInvariantError are not GateErrors and pass through."""
    def wrap(read):
        @functools.wraps(read)
        def reader(*args):
            try:
                return read(*args)
            except GateError as exc:
                raise UsageError(f"{what}: {exc}") from exc
        return reader
    return wrap


def tower_to_json(tower: FieldTower) -> dict[str, Any]:
    base, mid = tower.base, tower.mid
    return {
        "p": tower.p,
        "e": tower.e,
        "n": tower.n,
        "t": tower.t,
        "modulus_mid": [base.prime_vec(c) for c in tower.modulus_mid],
        "modulus_top": [mid.prime_vec(c) for c in tower.modulus_top],
    }


def tower_from_json(obj: dict[str, Any]) -> FieldTower:
    tower = make_tower(*(_req(obj, key, int, "tower") for key in ("p", "e", "n", "t")))
    want_mid = [tower.base.prime_vec(c) for c in tower.modulus_mid]
    want_top = [tower.mid.prime_vec(c) for c in tower.modulus_top]
    if obj.get("modulus_mid") != want_mid or obj.get("modulus_top") != want_top:
        raise UsageError("tower moduli do not match the deterministic derivation")
    return tower


def fe_from_json(tower: FieldTower, obj: dict[str, Any]) -> tuple[Field, int]:
    """The field of an element in the {level, coeffs} form, and its code."""
    level = _req(obj, "level", str, "element")
    F = tower.field(level)
    coeffs = _req(obj, "coeffs", list, "element")
    if len(coeffs) != F.dim_over_prime:
        raise UsageError("element coefficient vector has wrong length")
    if not all(_is_int(c) and 0 <= c < tower.p for c in coeffs):
        raise UsageError(f"element: key 'coeffs' must hold integers in 0..{tower.p - 1}")
    return F, F.from_prime_vec(coeffs)


def _checked_entries(order: int, rows, key: str) -> list[list[int]]:
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(_is_int(x) for x in row) for row in rows):
        raise UsageError(f"key {key!r} must hold lists of integer entries")
    out = []
    for vals in rows:
        if any(not 0 <= x < order for x in vals):
            raise UsageError(f"entry out of range for field of order {order}")
        out.append(vals)
    return out


@_reads("matrix")
def mat_from_json(tower: FieldTower, obj: dict[str, Any]) -> Mat:
    F = tower.field(_req(obj, "level", str, "matrix"))
    cols = _req(obj, "cols", int, "matrix")
    entries = _checked_entries(F.order, _req(obj, "entries", list, "matrix"), "entries")
    if cols < 0 or any(len(row) != cols for row in entries):
        raise UsageError(f"matrix: every row of 'entries' must hold 'cols' = {cols} entries")
    return Mat.from_rows(F, entries, cols)


def subspace_to_json(U: FqSubspace) -> dict[str, Any]:
    tower = U.tower
    mid = tower.mid
    return {
        "tower": tower_to_json(tower),
        "r": U.r,
        "k": U.k,
        "basis_mid": [
            [{"level": "mid", "coeffs": mid.prime_vec(c)} for c in v]
            for v in U.basis_mid
        ],
    }


@_reads("subspace")
def subspace_from_json(obj: dict[str, Any]) -> FqSubspace:
    tower = tower_from_json(_req(obj, "tower", dict, "subspace"))
    r = _req(obj, "r", int, "subspace")
    if r < 0:
        raise UsageError(f"subspace: key 'r' must be >= 0, got {r}")
    if r == 0:
        raise UsageError("subspace: key 'r' must be >= 1: F_{q^n}^0 has no points")
    vectors = []
    for vec in _req(obj, "basis_mid", list, "subspace"):
        if not isinstance(vec, list) or len(vec) != r:
            raise UsageError(f"subspace: key 'basis_mid' must hold lists of r = {r} elements")
        elems = [fe_from_json(tower, fe) for fe in vec]
        if any(F.order > tower.mid.order for F, _ in elems):
            raise UsageError("subspace: key 'basis_mid' must hold elements of F_{q^n}, "
                             "not of the top field")
        vectors.append(tuple(code for _, code in elems))
    U = FqSubspace.from_mid_vectors(tower, r, vectors)
    if "k" in obj and U.k != _req(obj, "k", int, "subspace"):
        raise UsageError("stored k does not match the basis rank")
    return U


def rankcode_to_json(C: RankCode) -> dict[str, Any]:
    return {
        "q": C.q,
        "p": C.field.p,
        "e": C.field.dim_over_prime,
        "m": C.m,
        "n": C.n,
        "basis": [[list(row) for row in M] for M in C.basis_matrices()],
    }


@_reads("code")
def rankcode_from_json(obj: dict[str, Any]) -> RankCode:
    p, e, q, m, n = (_req(obj, key, int, "code") for key in ("p", "e", "q", "m", "n"))
    if m < 1 or n < 1:
        raise UsageError(f"code: keys 'm' and 'n' must be >= 1, got m = {m}, n = {n}")
    field = make_tower(p, e, 1, 1).base
    if field.order != q:
        raise UsageError("q does not equal p^e")
    return RankCode.from_generators(field, m, n,
                                    [_checked_entries(field.order, M, "basis")
                                     for M in _req(obj, "basis", list, "code")])


def hamming_to_json(tower: FieldTower, C: HammingCode) -> dict[str, Any]:
    return {
        "field": {"p": tower.p, "e": tower.e, "n": tower.n},
        "k": C.k,
        "N": C.N,
        "d": C.d,
        "generator": [list(r) for r in C.gen],
    }


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators (determinism)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def dump_file(path: str, obj: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
