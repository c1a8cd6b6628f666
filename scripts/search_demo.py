#!/usr/bin/env python3
"""Long-form randomized search for a k-dim h-scattered subspace of
V(r, q^n) = F_{q^n}^r, by default the maximum scattered cell F_64^3
(r=3, n=6, q=2, h=1, k=9), followed by the inequivalence pipeline on any
witness: ordinary dual -> C_{U,G} -> right idealiser -> family exclusion.

The search stops at a witness, after --evals evaluations or after --minutes
of wall-clock time (10 by default), whichever comes first, and prints the
evaluations per second.  NotFound is a legitimate outcome and is recorded
in the JSON report.

Usage: python scripts/search_demo.py [--r R] [--n N] [--q Q] [--h H] [--k K]
           [--seed S] [--evals E] [--minutes M] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ranklab.cli import _parse_q
from ranklab.constructions import c_ug, random_scattered_search
from ranklab.errors import GateError, RankLabError
from ranklab.fields import make_tower
from ranklab.rankcodes import GabidulinExclusion, gabidulin_family_exclusion, right_idealiser
from ranklab.subspaces import is_h_scattered, ordinary_dual
from ranklab import serialize


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--q", type=int, default=2, help="a prime power")
    ap.add_argument("--h", type=int, default=1)
    ap.add_argument("--k", type=int, default=9)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--evals", type=int, default=10**9, help="evaluation budget")
    ap.add_argument("--minutes", type=float, default=10.0)
    ap.add_argument("--out", default="search_demo_report.json")
    args = ap.parse_args()
    try:
        p, e = _parse_q(args.q)
    except RankLabError as exc:
        ap.error(str(exc))
    r, n, q, h, k = args.r, args.n, args.q, args.h, args.k

    tower = make_tower(p, e, n, 1)
    print(f"searching for a {k}-dim {h}-scattered subspace of F_{q**n}^{r} "
          f"(seed={args.seed}, evals={args.evals}, budget={args.minutes} min) ...",
          flush=True)
    t0 = time.monotonic()
    result = random_scattered_search(
        tower, r, h, k, seed=args.seed, max_evals=args.evals,
        time_budget=args.minutes * 60.0)
    elapsed = time.monotonic() - t0
    report = {
        "cell": {"r": r, "n": n, "q": q, "h": h, "k": k},
        "seed": args.seed,
        "evals": args.evals,
        "minutes": args.minutes,
        "evaluations": result.evaluations,
        "found": result.found,
        "elapsed_s": round(elapsed, 1),
        "evaluations_per_s": round(result.evaluations / elapsed, 1) if elapsed else None,
    }
    print(f"search finished: found={result.found} after "
          f"{result.evaluations} evaluations ({report['elapsed_s']}s, "
          f"{report['evaluations_per_s']} evaluations/s)", flush=True)

    if result.found:
        U = result.subspace
        assert is_h_scattered(U, h)
        report["subspace"] = serialize.subspace_to_json(U)
        print(f"building C_{{U^perp, G}} of U^perp (dim {r * n - k}) ...", flush=True)
        C = c_ug(ordinary_dual(U)).code
        d = C.min_distance()
        R = right_idealiser(C)
        try:
            verdict = gabidulin_family_exclusion(C, r, n, h).value
        except GateError as exc:
            verdict = f"not checked: {exc}"
        report["code"] = {"m": C.m, "n": C.n, "q": C.q, "K": C.dim, "d": d,
                          "mrd": C.is_mrd(),
                          "right_idealiser_order": R.order,
                          "exclusion": verdict}
        print(f"code: ({C.m},{C.n},{C.q};{d}) MRD={C.is_mrd()} |R|={R.order} "
              f"exclusion={verdict}", flush=True)
        if verdict == GabidulinExclusion.CERTIFIED_NEW.value:
            print("certified: not equivalent to any punctured generalized "
                  "(twisted) Gabidulin code", flush=True)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
