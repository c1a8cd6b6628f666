"""rank-lab: construct → verify → report pipelines over all modules.

Every verb emits a RunReport: human-readable key/value lines by default, a
canonical JSON document with --json.  Re-running a verb with identical
parameters and seed reproduces a byte-identical "results" payload (timings
live outside it).  Exit codes: 0 ok, 1 usage, 2 precondition/gate error,
3 budget exhaustion, 4 internal invariant broken (a library bug).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any

from . import constructions, linsets, rankcodes, serialize, subspaces
from .errors import (
    BudgetExceeded,
    GateError,
    InternalInvariantError,
    IoError,
    RankLabError,
    UsageError,
)
from .fields import DEFAULT_TOWER_BUDGET, make_tower, prime_factors
from .fqlinalg import DEFAULT_SUBSPACE_BUDGET, theta
from .rankcodes import DEFAULT_CODEWORD_BUDGET
from .serialize import dumps

SCHEMA_FILE = os.path.join(os.path.dirname(__file__), "schemas",
                           "run_report.schema.json")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid budget {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
    return value


def _parse_q(q: int) -> tuple[int, int]:
    """Split a prime power q into (p, e).  A q above the tower budget is
    refused before factoring (trial division up to √q)."""
    if q < 2:
        raise UsageError(f"q={q} is not a prime power")
    if q > DEFAULT_TOWER_BUDGET:
        raise BudgetExceeded(q, DEFAULT_TOWER_BUDGET, "field elements")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise UsageError(f"q={q} is not a prime power")
    p, e = factors[0], 1
    while p**e < q:
        e += 1
    return p, e


def _parse_triple(text: str) -> tuple[int, int, int]:
    try:
        r, n, h = map(int, text.split(","))
    except ValueError:
        raise UsageError(f"expected r,n,h — got {text!r}") from None
    return r, n, h


def _load_subspace(args) -> subspaces.FqSubspace:
    if getattr(args, "pseudoregulus", None):
        r, n, h = _parse_triple(args.pseudoregulus)
        p, e = _parse_q(args.q)
        tower = make_tower(p, e, n, 1)
        return constructions.pseudoregulus_subspace(tower, r, n, h)
    if getattr(args, "subspace", None):
        return serialize.subspace_from_json(serialize.load_file(args.subspace))
    raise UsageError("provide --subspace FILE or --pseudoregulus r,n,h")


def _load_code(args, attr: str = "code") -> rankcodes.RankCode:
    path = getattr(args, attr, None)
    if not path:
        raise UsageError(f"provide --{attr} FILE")
    return serialize.rankcode_from_json(serialize.load_file(path))


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument("--out", help="write the produced artifact to this file")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized verbs")
    common.add_argument("--subspace-budget", type=_budget, default=DEFAULT_SUBSPACE_BUDGET,
                        help="max items of a subspace scan: U's q^k vectors (or its "
                             "dual's) when that walk is the cheaper scan, else the "
                             "points of PG(r-1,q^n); subspaces for h>=2 checks; "
                             "point-hyperplane incidences for code scans "
                             "(default 2^20)")
    common.add_argument("--codeword-budget", type=_budget, default=DEFAULT_CODEWORD_BUDGET,
                        help="max items of a code's rank scan: its q^K codewords or "
                             "the subspaces of F_q^{min(m,n)}, whichever is fewer "
                             "(default 2^24)")
    p = _Parser(prog="rank-lab", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        return sp

    sp = verb("scattered-check", help="test an F_q-subspace for h-scatteredness")
    sp.add_argument("--subspace")
    sp.add_argument("--pseudoregulus", metavar="r,n,h")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--h", type=int, required=True)

    sp = verb("dualize", help="ordinary or Delsarte dual of a subspace")
    sp.add_argument("--subspace")
    sp.add_argument("--pseudoregulus", metavar="r,n,h")
    sp.add_argument("--q", type=int, default=2)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--ordinary", action="store_true")
    g.add_argument("--delsarte", action="store_true")

    for name in ("mrd-check", "rank-dist", "dualize-code"):
        sp = verb(name)
        sp.add_argument("--code", required=True)

    sp = verb("idealiser", help="left or right idealiser of a code")
    sp.add_argument("--code", required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--left", action="store_true")
    g.add_argument("--right", action="store_true")

    sp = verb("puncture")
    sp.add_argument("--code", required=True)
    sp.add_argument("--matrix", required=True, help="JSON Mat file (base level)")

    sp = verb("certify-inequivalent")
    sp.add_argument("--code", required=True)
    sp.add_argument("--code2", required=True)

    sp = verb("gabidulin")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--mrd-check", action="store_true")

    sp = verb("twisted-gabidulin")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--c", type=int, default=0)
    sp.add_argument("--q", type=int, default=2)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--eta", type=int, help="element code of eta")
    g.add_argument("--eta-nonsquare", action="store_true",
                   help="use the smallest non-square (odd q)")
    sp.add_argument("--mrd-check", action="store_true")

    sp = verb("cug", help="build C_{U,G} from a subspace")
    sp.add_argument("--subspace")
    sp.add_argument("--pseudoregulus", metavar="r,n,h")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--mrd-check", action="store_true")

    sp = verb("extract-subspace", help="recover U from an MRD code (converse)")
    sp.add_argument("--code", required=True)

    sp = verb("search-scattered")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--budget", type=_budget, default=200,
                    help="candidate evaluations (reproducible budget)")
    sp.add_argument("--time-budget", type=float, default=None,
                    help="optional wall-clock cap in seconds (not reproducible)")

    for name in ("linset-points", "hyperplane-spectrum", "qsystem-code"):
        sp = verb(name)
        sp.add_argument("--subspace")
        sp.add_argument("--pseudoregulus", metavar="r,n,h")
        sp.add_argument("--q", type=int, default=2)

    sp = verb("projsys-code")
    sp.add_argument("--subspace")
    sp.add_argument("--pseudoregulus", metavar="r,n,h")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--enumerator", action="store_true")
    sp.add_argument("--codeword-count", action="store_true",
                    help="codeword convention instead of the hyperplane count")

    sp = verb("fixtures", help="materialize the canonical fixture corpus")
    sp.add_argument("--dir", default="fixtures")
    return p


# -- verb implementations -------------------------------------------------------


def _code_summary(C: rankcodes.RankCode, budget: int) -> dict[str, Any]:
    d = C.min_distance(budget=budget)
    return {"m": C.m, "n": C.n, "q": C.q, "K": C.dim, "d": d,
            "mrd": C.is_mrd(budget=budget)}


def _run_scattered_check(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    sc = subspaces.is_h_scattered(U, args.h, budget=budgets["subspace"])
    res: dict[str, Any] = {
        "r": U.r, "n": U.tower.n, "q": U.tower.q, "k": U.k, "h": args.h,
        "scattered": sc, "iota": subspaces.iota(U, budget=budgets["subspace"]),
    }
    if sc:
        res["dimension_class"] = subspaces.check_dimension_bound(U, args.h).value
    return res


def _run_dualize(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    if args.ordinary:
        D = subspaces.ordinary_dual(U)
        return {"mode": "ordinary", "k": D.k,
                "involution_ok": subspaces.ordinary_dual(D) == U,
                "artifact": serialize.subspace_to_json(D)}
    data = subspaces.delsarte_dual(U, budget=budgets["subspace"])
    return {"mode": "delsarte", "k": data.dual.k, "ambient_r": data.dual.r,
            "double_dual_equals_input": subspaces.delsarte_double_dual(data) == U,
            "artifact": serialize.subspace_to_json(data.dual)}


def _run_mrd_check(args, budgets) -> dict[str, Any]:
    return _code_summary(_load_code(args), budgets["codeword"])


def _run_rank_dist(args, budgets) -> dict[str, Any]:
    C = _load_code(args)
    dist = C.rank_distribution(budget=budgets["codeword"])
    return {"A": list(dist.A), "K": C.dim, "d": C.min_distance(budget=budgets["codeword"])}


def _run_idealiser(args, budgets) -> dict[str, Any]:
    C = _load_code(args)
    ide = rankcodes.left_idealiser(C) if args.left else rankcodes.right_idealiser(C)
    return {"side": ide.side.value, "dim": ide.dim, "order": ide.order,
            "is_field": ide.is_field}


def _run_dualize_code(args, budgets) -> dict[str, Any]:
    C = _load_code(args)
    D = rankcodes.delsarte_dual_code(C)
    return {"K": D.dim, "artifact": serialize.rankcode_to_json(D)}


def _run_puncture(args, budgets) -> dict[str, Any]:
    C = _load_code(args)
    tower = make_tower(C.field.p, C.field.dim_over_prime, 1, 1)
    A = serialize.mat_from_json(tower, serialize.load_file(args.matrix))
    P = rankcodes.puncture(C, A)
    res = _code_summary(P, budgets["codeword"])
    res["artifact"] = serialize.rankcode_to_json(P)
    return res


def _run_certify(args, budgets) -> dict[str, Any]:
    C1, C2 = _load_code(args), _load_code(args, "code2")
    cert = rankcodes.inequivalence_certificate(C1, C2, budget=budgets["codeword"])
    return {"status": cert.status.value, "reason": cert.reason}


def _run_gabidulin(args, budgets) -> dict[str, Any]:
    p, e = _parse_q(args.q)
    tower = make_tower(p, e, args.N, 1)
    C = constructions.gabidulin(tower, args.N, args.k, args.s)
    res: dict[str, Any] = {"N": args.N, "k": args.k, "s": args.s, "q": args.q}
    if args.mrd_check:
        res.update(_code_summary(C, budgets["codeword"]))
    res["artifact"] = serialize.rankcode_to_json(C)
    return res


def _run_twisted(args, budgets) -> dict[str, Any]:
    p, e = _parse_q(args.q)
    tower = make_tower(p, e, args.N, 1)
    eta = (constructions.find_nonsquare(tower, "mid")
           if args.eta_nonsquare else args.eta)
    tg = constructions.twisted_gabidulin(tower, args.N, args.k, args.s, eta, args.c)
    res: dict[str, Any] = {"N": args.N, "k": args.k, "s": args.s, "c": args.c,
                           "q": args.q, "eta": eta, "untwisted": tg.untwisted}
    if args.mrd_check:
        res.update(_code_summary(tg.code, budgets["codeword"]))
    res["artifact"] = serialize.rankcode_to_json(tg.code)
    return res


def _run_cug(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    cug = constructions.c_ug(U, budget=budgets["subspace"])
    res: dict[str, Any] = {"k": U.k, "iota": cug.iota,
                           "mrd_predicate": constructions.c_ug_mrd_predicate(
                               U, budget=budgets["subspace"])}
    if args.mrd_check:
        res.update(_code_summary(cug.code, budgets["codeword"]))
        res["is_mrd"] = res["mrd"]
    res["artifact"] = serialize.rankcode_to_json(cug.code)
    return res


def _run_extract(args, budgets) -> dict[str, Any]:
    C = _load_code(args)
    p, e = _parse_q(C.q)
    tower = make_tower(p, e, C.n, 1)
    ext = constructions.mrd_to_subspace(C, tower, budget=budgets["codeword"])
    return {"k": ext.subspace.k,
            "iota": subspaces.iota(ext.subspace, budget=budgets["subspace"]),
            "reconstruction_equal": ext.reconstructed == ext.conjugated_code,
            "artifact": serialize.subspace_to_json(ext.subspace)}


def _run_search(args, budgets) -> dict[str, Any]:
    if args.seed is None:
        raise UsageError("search-scattered requires --seed")
    p, e = _parse_q(args.q)
    tower = make_tower(p, e, args.n, 1)
    res = constructions.random_scattered_search(
        tower, args.r, args.h, args.k, seed=args.seed, max_evals=args.budget,
        budget=budgets["subspace"], time_budget=args.time_budget)
    out: dict[str, Any] = {"found": res.found, "evaluations": res.evaluations,
                           "seed": res.seed}
    if res.found:
        out["artifact"] = serialize.subspace_to_json(res.subspace)
    return out


def _run_linset_points(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    L = linsets.linear_set(U, budget=budgets["subspace"])
    weights: dict[str, int] = {}
    for w in L.points.values():
        weights[str(w)] = weights.get(str(w), 0) + 1
    return {"rank": L.rank, "size": L.size, "weights": weights,
            "points": [list(pt) for pt in sorted(L.points)]}


def _run_spectrum(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    spec = linsets.hyperplane_spectrum(U, budget=budgets["subspace"])
    r, n, q, k = U.r, U.tower.n, U.tower.q, U.k
    h = r * n // k - 1
    ti = {i: linsets.ti_formula(r, n, h, q, i) for i in range(h + 1)}
    return {"h": h, "spectrum": {str(i): c for i, c in spec.items()},
            "ti_formula": {str(i): c for i, c in ti.items()},
            "matches_formula": spec == ti,
            "total": sum(spec.values()),
            "theta_r_minus_1": theta(r - 1, q**n)}


def _run_projsys(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    L = linsets.linear_set(U, budget=budgets["subspace"])
    C = linsets.projective_system_code(L, budget=budgets["subspace"])
    res: dict[str, Any] = {"N": C.N, "k": C.k, "d": C.d}
    convention = "codeword" if args.codeword_count else "projective"
    if args.enumerator:
        enum = linsets.weight_enumerator(C, convention, budget=budgets["subspace"])
        res["convention"] = convention
        res["enumerator"] = {str(w): c for w, c in enum.items()}
    res["artifact"] = serialize.hamming_to_json(U.tower, C)
    return res


def _run_qsystem(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    C = linsets.qsystem_code(U, budget=budgets["subspace"])
    return {"N": C.N, "k": C.k, "d": C.d,
            "artifact": serialize.hamming_to_json(U.tower, C)}


def _run_fixtures(args, budgets) -> dict[str, Any]:
    from .fixtures import materialize
    files = materialize(args.dir)
    return {"dir": args.dir, "files": files}


_VERBS = {
    "scattered-check": _run_scattered_check,
    "dualize": _run_dualize,
    "mrd-check": _run_mrd_check,
    "rank-dist": _run_rank_dist,
    "idealiser": _run_idealiser,
    "dualize-code": _run_dualize_code,
    "puncture": _run_puncture,
    "certify-inequivalent": _run_certify,
    "gabidulin": _run_gabidulin,
    "twisted-gabidulin": _run_twisted,
    "cug": _run_cug,
    "extract-subspace": _run_extract,
    "search-scattered": _run_search,
    "linset-points": _run_linset_points,
    "hyperplane-spectrum": _run_spectrum,
    "projsys-code": _run_projsys,
    "qsystem-code": _run_qsystem,
    "fixtures": _run_fixtures,
}


def run(argv: list[str]) -> tuple[dict[str, Any], bool]:
    """Execute one verb; returns (report, json_flag)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    budgets = {"subspace": args.subspace_budget, "codeword": args.codeword_budget}
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("json", "out", "verb") and v is not None}
    report: dict[str, Any] = {
        "command": args.verb,
        "parameters": params,
        "budgets": budgets,
        "seed": args.seed,
    }
    t0 = time.perf_counter()
    report["results"] = _VERBS[args.verb](args, budgets)
    report["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    report["status"] = "ok"
    if args.out and "artifact" in report["results"]:
        serialize.dump_file(args.out, report["results"]["artifact"])
    return report, args.json


def _render_human(report: dict[str, Any], fh) -> None:
    print(f"verb: {report['command']}", file=fh)
    for key, val in report["results"].items():
        if key == "artifact":
            continue
        print(f"  {key}: {val}", file=fh)
    print(f"  [time: {report['timings']['total_s']}s]", file=fh)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        report, as_json = run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except GateError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RankLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if as_json:
        print(dumps(report))
    else:
        _render_human(report, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
