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
from functools import cache
from typing import Any, Callable, NamedTuple

from . import constructions, linsets, rankcodes, serialize, subspaces
from .errors import (
    BudgetExceeded,
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
    if args.pseudoregulus:
        r, n, h = _parse_triple(args.pseudoregulus)
        p, e = _parse_q(args.q)
        tower = make_tower(p, e, n, 1)
        return constructions.pseudoregulus_subspace(tower, r, n, h)
    if args.subspace:
        return serialize.subspace_from_json(serialize.load_file(args.subspace))
    raise UsageError("provide --subspace FILE or --pseudoregulus r,n,h")


def _load_code(path: str) -> rankcodes.RankCode:
    return serialize.rankcode_from_json(serialize.load_file(path))


# -- the verb table ---------------------------------------------------------------


def _arg(*flags, **kw):
    """One option, added to whichever parser or group declares it."""
    return lambda container: container.add_argument(*flags, **kw)


def _one_of(*options):
    """A required mutually exclusive group of options."""
    def add(container):
        group = container.add_mutually_exclusive_group(required=True)
        for option in options:
            option(group)
    return add


@cache
def _parent(*options) -> argparse.ArgumentParser:
    """The parent parser of an option group that several verbs share, built
    once and only when the tree is."""
    parent = argparse.ArgumentParser(add_help=False)
    for option in options:
        option(parent)
    return parent


_Q = _arg("--q", type=int, default=2)
_MRD_CHECK = _arg("--mrd-check", action="store_true")
_GABIDULIN = (_arg("--N", type=int, required=True), _arg("--k", type=int, required=True),
              _arg("--s", type=int, default=1))

_COMMON = (
    _arg("--json", action="store_true", help="emit the report as JSON"),
    _arg("--out", help="write the produced artifact to this file"),
    _arg("--seed", type=int, default=None, help="seed for randomized verbs"),
    _arg("--subspace-budget", type=_budget, default=DEFAULT_SUBSPACE_BUDGET,
         help="max items of a subspace scan: the θ_{k-1}(q) F_q-points "
              "of U (or of its dual) when that walk is the cheaper scan, "
              "else the points of PG(r-1,q^n); subspaces for h>=2 checks; "
              "point-hyperplane incidences for code scans "
              "(default 2^20)"),
    _arg("--codeword-budget", type=_budget, default=DEFAULT_CODEWORD_BUDGET,
         help="max items of a code's rank scan: its q^K codewords, "
              "the subspaces of F_q^{min(m,n)}, or, for a (twisted) Gabidulin "
              "code built with c = 0, the F_q-points of the subspace S it "
              "carries or the projective points (cug's ranks fall under "
              "--subspace-budget); the "
              "cheapest that fits runs; the q^n elements the converse "
              "scans for a root (default 2^24)"))
_SUBSPACE_INPUT = (_arg("--subspace"), _arg("--pseudoregulus", metavar="r,n,h"), _Q)
_CODE_INPUT = (_arg("--code", required=True),)


class _Verb(NamedTuple):
    run: Callable[..., dict[str, Any]]
    inputs: tuple
    options: tuple
    help: str | None


VERBS: dict[str, _Verb] = {}


def _verb(name: str, *options, inputs=(), help=None):
    """Register the decorated runner as verb `name`, with its input options
    (a group shared with other verbs), its own options and its help line: the
    parser and the dispatch both read this one entry."""
    def register(run):
        VERBS[name] = _Verb(run, inputs, options, help)
        return run
    return register


@cache
def build_parser() -> _Parser:
    """The rank-lab parser, built from VERBS once per process."""
    p = _Parser(prog="rank-lab", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        # a help= keyword, even None, lists the verb in `rank-lab --help`
        sp = sub.add_parser(name, parents=[_parent(*g) for g in (_COMMON, verb.inputs) if g],
                            **({"help": verb.help} if verb.help else {}))
        for option in verb.options:
            option(sp)
    return p


# -- verb implementations -------------------------------------------------------


def _code_summary(C: rankcodes.RankCode, budget: int) -> dict[str, Any]:
    d = C.min_distance(budget=budget)
    return {"m": C.m, "n": C.n, "q": C.q, "K": C.dim, "d": d,
            "mrd": C.is_mrd(budget=budget)}


@_verb("scattered-check", _arg("--h", type=int, required=True), inputs=_SUBSPACE_INPUT,
       help="test an F_q-subspace for h-scatteredness")
def _run_scattered_check(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    sc = subspaces.is_h_scattered(U, args.h, budget=budgets["subspace"])
    # a 1-scattered U spans V and has every point weight <= 1: ι = 1
    res: dict[str, Any] = {
        "r": U.r, "n": U.tower.n, "q": U.tower.q, "k": U.k, "h": args.h,
        "scattered": sc,
        "iota": 1 if sc and args.h == 1 else subspaces.iota(U, budget=budgets["subspace"]),
    }
    if sc:
        res["dimension_class"] = subspaces.check_dimension_bound(U, args.h).value
    return res


@_verb("dualize", _one_of(_arg("--ordinary", action="store_true"),
                          _arg("--delsarte", action="store_true")),
       inputs=_SUBSPACE_INPUT, help="ordinary or Delsarte dual of a subspace")
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


@_verb("mrd-check", inputs=_CODE_INPUT)
def _run_mrd_check(args, budgets) -> dict[str, Any]:
    return _code_summary(_load_code(args.code), budgets["codeword"])


@_verb("rank-dist", inputs=_CODE_INPUT)
def _run_rank_dist(args, budgets) -> dict[str, Any]:
    C = _load_code(args.code)
    dist = C.rank_distribution(budget=budgets["codeword"])
    return {"A": list(dist.A), "K": C.dim, "d": C.min_distance(budget=budgets["codeword"])}


@_verb("dualize-code", inputs=_CODE_INPUT)
def _run_dualize_code(args, budgets) -> dict[str, Any]:
    C = _load_code(args.code)
    D = rankcodes.delsarte_dual_code(C)
    return {"K": D.dim, "artifact": serialize.rankcode_to_json(D)}


@_verb("idealiser", _one_of(_arg("--left", action="store_true"),
                            _arg("--right", action="store_true")),
       inputs=_CODE_INPUT, help="left or right idealiser of a code")
def _run_idealiser(args, budgets) -> dict[str, Any]:
    C = _load_code(args.code)
    ide = rankcodes.left_idealiser(C) if args.left else rankcodes.right_idealiser(C)
    return {"side": ide.side.value, "dim": ide.dim, "order": ide.order,
            "is_field": ide.is_field}


@_verb("puncture", _arg("--matrix", required=True, help="JSON Mat file (base level)"),
       inputs=_CODE_INPUT)
def _run_puncture(args, budgets) -> dict[str, Any]:
    C = _load_code(args.code)
    tower = make_tower(C.field.p, C.field.dim_over_prime, 1, 1)
    A = serialize.mat_from_json(tower, serialize.load_file(args.matrix))
    P = rankcodes.puncture(C, A)
    res = _code_summary(P, budgets["codeword"])
    res["artifact"] = serialize.rankcode_to_json(P)
    return res


@_verb("certify-inequivalent", _arg("--code2", required=True), inputs=_CODE_INPUT)
def _run_certify(args, budgets) -> dict[str, Any]:
    C1, C2 = _load_code(args.code), _load_code(args.code2)
    cert = rankcodes.inequivalence_certificate(C1, C2, budget=budgets["codeword"])
    return {"status": cert.status.value, "reason": cert.reason}


@_verb("gabidulin", *_GABIDULIN, _Q, _MRD_CHECK)
def _run_gabidulin(args, budgets) -> dict[str, Any]:
    p, e = _parse_q(args.q)
    tower = make_tower(p, e, args.N, 1)
    C = constructions.gabidulin(tower, args.N, args.k, args.s)
    res: dict[str, Any] = {"N": args.N, "k": args.k, "s": args.s, "q": args.q}
    if args.mrd_check:
        res.update(_code_summary(C, budgets["codeword"]))
    res["artifact"] = serialize.rankcode_to_json(C)
    return res


@_verb("twisted-gabidulin", *_GABIDULIN, _arg("--c", type=int, default=0), _Q,
       _one_of(_arg("--eta", type=int, help="element code of eta"),
               _arg("--eta-nonsquare", action="store_true",
                    help="use the smallest non-square (odd q)")),
       _MRD_CHECK)
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


@_verb("cug", _MRD_CHECK, inputs=_SUBSPACE_INPUT, help="build C_{U,G} from a subspace")
def _run_cug(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    cug = constructions.c_ug(U, budget=budgets["subspace"])
    res: dict[str, Any] = {"k": U.k, "iota": cug.iota,
                           "mrd_predicate": constructions._mrd_criterion(U, cug.iota)}
    if args.mrd_check:
        res.update(_code_summary(cug.code, budgets["codeword"]))
        res["is_mrd"] = res["mrd"]
    res["artifact"] = serialize.rankcode_to_json(cug.code)
    return res


@_verb("extract-subspace", inputs=_CODE_INPUT, help="recover U from an MRD code (converse)")
def _run_extract(args, budgets) -> dict[str, Any]:
    C = _load_code(args.code)
    tower = make_tower(C.field.p, C.field.dim_over_prime, C.n, 1)
    ext = constructions.mrd_to_subspace(C, tower, budget=budgets["codeword"])
    return {"k": ext.subspace.k,
            "iota": subspaces.iota(ext.subspace, budget=budgets["subspace"]),
            "reconstruction_equal": ext.reconstructed == ext.conjugated_code,
            "artifact": serialize.subspace_to_json(ext.subspace)}


@_verb("search-scattered",
       *(_arg(f"--{x}", type=int, required=True) for x in "rnhk"), _Q,
       _arg("--budget", type=_budget, default=200,
            help="candidate evaluations (reproducible budget)"),
       _arg("--time-budget", type=float, default=None,
            help="optional wall-clock cap in seconds (not reproducible)"))
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


@_verb("linset-points", inputs=_SUBSPACE_INPUT)
def _run_linset_points(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    L = linsets.linear_set(U, budget=budgets["subspace"])
    weights: dict[str, int] = {}
    for w in L.points.values():
        weights[str(w)] = weights.get(str(w), 0) + 1
    return {"rank": L.rank, "size": L.size, "weights": weights,
            "points": [list(pt) for pt in sorted(L.points)]}


@_verb("hyperplane-spectrum", inputs=_SUBSPACE_INPUT)
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


@_verb("qsystem-code", inputs=_SUBSPACE_INPUT)
def _run_qsystem(args, budgets) -> dict[str, Any]:
    U = _load_subspace(args)
    C = linsets.qsystem_code(U, budget=budgets["subspace"])
    return {"N": C.N, "k": C.k, "d": C.d,
            "artifact": serialize.hamming_to_json(U.tower, C)}


@_verb("projsys-code", _arg("--enumerator", action="store_true"),
       _arg("--codeword-count", action="store_true",
            help="codeword convention instead of the hyperplane count"),
       inputs=_SUBSPACE_INPUT)
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


@_verb("fixtures", _arg("--dir", default="fixtures"),
       help="materialize the canonical fixture corpus")
def _run_fixtures(args, budgets) -> dict[str, Any]:
    from .fixtures import materialize
    files = materialize(args.dir)
    return {"dir": args.dir, "files": files}


def run(argv: list[str]) -> tuple[dict[str, Any], bool]:
    """Execute one verb; returns (report, json_flag)."""
    args = build_parser().parse_args(argv)
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
    report["results"] = VERBS[args.verb].run(args, budgets)
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
