#!/usr/bin/env python3
"""Tabulate hyperplane spectra and projective-system weight enumerators for a
family of maximum h-scattered subspaces, cross-checking every brute-force
count against the closed formulas.

Usage: python scripts/spectrum_report.py [--cases r,n,h[,q] ...]
"""

from __future__ import annotations

import argparse
import sys
import time

from ranklab.constructions import pseudoregulus_subspace
from ranklab.fields import make_tower
from ranklab.fqlinalg import DEFAULT_SUBSPACE_BUDGET, theta
from ranklab.linsets import (
    expected_weights,
    hyperplane_spectrum,
    linear_set,
    projective_system_code,
    ti_formula,
    weight_enumerator,
)

DEFAULT_CASES = ["2,4,1", "4,4,1", "2,3,1", "2,4,1,3"]


def run_case(spec: str) -> bool:
    parts = [int(x) for x in spec.split(",")]
    r, n, h = parts[:3]
    q = parts[3] if len(parts) > 3 else 2
    tower = make_tower(q, 1, n, 1)
    U = pseudoregulus_subspace(tower, r, n, h)
    t0 = time.monotonic()
    spectrum = hyperplane_spectrum(U, h)
    formula = {i: ti_formula(r, n, h, q, i) for i in range(h + 1)}
    ok = spectrum == formula and sum(spectrum.values()) == theta(r - 1, q**n)
    line = f"(r={r}, n={n}, h={h}, q={q})  k={U.k}  spectrum={spectrum}"
    enum_note = ""
    # the code scans visit N·θ_{r-2}(q^n) point-hyperplane incidences, with
    # N = θ_{k-1}(q) points on a scattered linear set
    if theta(U.k - 1, q) * theta(r - 2, q**n) <= DEFAULT_SUBSPACE_BUDGET:
        C = projective_system_code(linear_set(U))
        enum = weight_enumerator(C, "projective")
        ok = ok and enum == expected_weights(r, n, h, q)
        enum_note = f"  [{C.N},{C.k},{C.d}] weights={sorted(enum)}"
    status = "ok" if ok else "MISMATCH"
    print(f"{status:8s} {line}{enum_note}  ({time.monotonic() - t0:.2f}s)",
          flush=True)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", nargs="*", default=DEFAULT_CASES,
                    help="r,n,h[,q] tuples (pseudoregulus instances)")
    args = ap.parse_args()
    all_ok = all([run_case(c) for c in args.cases])
    print("all formulas verified" if all_ok else "MISMATCH DETECTED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
