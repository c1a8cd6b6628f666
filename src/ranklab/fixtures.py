"""The canonical fixture corpus used by the acceptance suite.

materialize() writes every fixture named in the acceptance criteria under a
versioned directory; builders are exposed individually so tests can construct
the objects without touching the filesystem.
"""

from __future__ import annotations

import os

from . import constructions, serialize
from .errors import IoError
from .fields import make_tower
from .rankcodes import RankCode, delsarte_dual_code
from .subspaces import FqSubspace

CORPUS_VERSION = "v1"


def pseudoregulus(r: int, n: int, h: int, q: int = 2) -> FqSubspace:
    tower = make_tower(q, 1, n, 1)
    return constructions.pseudoregulus_subspace(tower, r, n, h)


def subgeometry_3_3() -> FqSubspace:
    """{(x, x^2, x^4) : x in F_8} in F_8^3: the 2-scattered subgeometry case."""
    tower = make_tower(2, 1, 3, 1)
    vecs = [(b, tower.frob("mid", b, 1), tower.frob("mid", b, 2))
            for b in (1, 2, 4)]
    return FqSubspace.from_mid_vectors(tower, 3, vecs)


def remark_counterexample() -> FqSubspace:
    """U' ⊕ <v> with U' scattered inside a hyperplane: 1-scattered of
    dimension k < rn/2 whose hyperplane weight reaches k-1 (q=2, n=4, r=2)."""
    tower = make_tower(2, 1, 4, 1)
    return FqSubspace.from_mid_vectors(tower, 2, [(1, 0), (0, 1)])


def certified_new_witness() -> FqSubspace:
    """A 9-dim 1-scattered subspace of F_64^3 found by the seeded search
    (scripts/search_demo.py, seed 20260808, 5628 evaluations); (h+1) = 2 does
    not divide r = 3, so the MRD code of its ordinary dual is certified
    inequivalent to every punctured generalized (twisted) Gabidulin code."""
    tower = make_tower(2, 1, 6, 1)
    basis = [(1, 32, 6), (2, 24, 51), (4, 32, 6), (8, 40, 55), (16, 8, 32),
             (32, 0, 49), (0, 42, 35), (0, 44, 35), (0, 0, 24)]
    return FqSubspace.from_mid_vectors(tower, 3, basis)


def gabidulin_4_2_1() -> RankCode:
    return constructions.gabidulin(make_tower(2, 1, 4, 1), 4, 2, 1)


def cug_pseudoregulus() -> RankCode:
    return constructions.c_ug(pseudoregulus(2, 4, 1)).code


def twisted_gabidulin_q3():
    tower = make_tower(3, 1, 4, 1)
    eta = constructions.find_nonsquare(tower, "mid")
    return constructions.twisted_gabidulin(tower, 4, 2, 1, eta, 0)


def restriction_6_3_1():
    return constructions.gabidulin_restriction(make_tower(2, 1, 3, 2), 6, 3, 1)


def fixture_codes() -> dict[str, RankCode]:
    """The MacWilliams fixture set of acceptance criterion 3."""
    gab = gabidulin_4_2_1()
    return {
        "gabidulin_4_2_1_q2": gab,
        "gabidulin_4_2_1_q2_dual": delsarte_dual_code(gab),
        "twisted_gabidulin_4_2_1_q3": twisted_gabidulin_q3().code,
        "cug_pseudoregulus_2_4_1_q2": cug_pseudoregulus(),
        "gabidulin_restriction_6_3_1_q2": restriction_6_3_1().code,
    }


def materialize(root: str) -> list[str]:
    """Write the corpus under root/CORPUS_VERSION; returns relative paths."""
    outdir = os.path.join(root, CORPUS_VERSION)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {outdir}: {exc}") from exc
    files: list[str] = []

    def put(name: str, obj) -> None:
        serialize.dump_file(os.path.join(outdir, name), obj)
        files.append(os.path.join(CORPUS_VERSION, name))

    put("tower_2_1_4_1.tower.json", serialize.tower_to_json(make_tower(2, 1, 4, 1)))
    put("pseudoregulus_2_4_1_q2.subspace.json",
        serialize.subspace_to_json(pseudoregulus(2, 4, 1)))
    put("pseudoregulus_4_4_1_q2.subspace.json",
        serialize.subspace_to_json(pseudoregulus(4, 4, 1)))
    put("subgeometry_3_3_2_q2.subspace.json",
        serialize.subspace_to_json(subgeometry_3_3()))
    put("remark_counterexample_2_4_q2.subspace.json",
        serialize.subspace_to_json(remark_counterexample()))
    put("certified_new_witness_3_6_1_q2.subspace.json",
        serialize.subspace_to_json(certified_new_witness()))
    for name, code in fixture_codes().items():
        put(f"{name}.code.json", serialize.rankcode_to_json(code))
    return files
