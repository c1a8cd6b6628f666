"""The hyperplane-cut engine of linsets against brute-force oracles.

projective_system_code's minimum distance and weight_enumerator are read off
linsets._cut_counts, a histogram of hyperplane cuts built from the
point-hyperplane incidences of the columns' points.  The oracles are the two
scans it replaces: the dot product of every dual point of PG(k-1, Q) with
every column (for d), and the walk over all Q^k codewords (for the
enumerator).
"""

import itertools
import random
from collections import Counter

import pytest

from ranklab.constructions import pseudoregulus_subspace
from ranklab.errors import BudgetExceeded
from ranklab.fields import make_tower
from ranklab.fixtures import certified_new_witness, remark_counterexample, subgeometry_3_3
from ranklab.fqlinalg import iter_span_rows, projective_points, theta
from ranklab.linsets import (
    HammingCode,
    _cut_counts,
    linear_set,
    projective_system_code,
    qsystem_code,
    weight_enumerator,
)
from ranklab.subspaces import max_hyperplane_weight

PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


# -- brute-force oracles -------------------------------------------------------


def oracle_d(C):
    """N minus the largest number of columns on one hyperplane, dotting every
    dual point with every column."""
    F = C.field
    max_cut = 0
    for w in projective_points(F, C.k):
        cut = 0
        for col in zip(*C.gen):
            s = 0
            for x, y in zip(w, col):
                s = F.add(s, F.mul(x, y))
            cut += s == 0
        max_cut = max(max_cut, cut)
    return C.N - max_cut


def oracle_enumerator(C, convention):
    """Weights of all Q^k - 1 nonzero coefficient vectors' codewords."""
    F = C.field
    counts = Counter(sum(1 for x in cw if x)
                     for cw in itertools.islice(iter_span_rows(C.gen, F, C.N), 1, None))
    if convention == "codeword":
        return dict(sorted(counts.items()))
    assert all(c % (F.order - 1) == 0 for c in counts.values())
    return {w: c // (F.order - 1) for w, c in sorted(counts.items())}


def assert_matches_oracles(C):
    """The cut histogram, C.d when the code carries one, and both enumerator
    conventions agree with the oracles."""
    cuts = _cut_counts(C.field, C.k, zip(*C.gen), 1 << 20)
    assert sum(cuts.values()) == theta(C.k - 1, C.field.order)
    d = oracle_d(C)
    assert C.N - max(cuts) == d
    assert C.d in (None, d)
    for convention in ("projective", "codeword"):
        got = weight_enumerator(C, convention)
        assert got == oracle_enumerator(C, convention)
        assert list(got) == sorted(got)


# -- seeded HammingCodes -------------------------------------------------------


def _field(q):
    p, e = PRIME_POWER[q]
    return make_tower(p, e, 1, 1).mid


def _random_code(F, k, kind, rng):
    """A generator with nonzero columns: "plain" random columns, "repeated"
    with proportional copies of some columns, or "deficient" columns inside
    a (k-1)-dimensional subspace (so some nonzero coefficient vectors give
    the zero word)."""
    Q = F.order

    def vector():
        v = [rng.randrange(Q) for _ in range(k)]
        return v if any(v) else vector()

    if kind == "deficient":
        basis = [vector() for _ in range(k - 1)]
        cols = []
        while len(cols) < 6:
            v = [0] * k
            for b in basis:
                a = rng.randrange(Q)
                v = [F.add(x, F.mul(a, y)) for x, y in zip(v, b)]
            if any(v):
                cols.append(v)
    else:
        cols = [vector() for _ in range(rng.randrange(3, 8))]
        if kind == "repeated":
            for col in list(cols[:3]):
                for _ in range(rng.randrange(1, 3)):
                    lam = rng.randrange(1, Q)
                    cols.append([F.mul(lam, x) for x in col])
            rng.shuffle(cols)
    gen = tuple(tuple(col[i] for col in cols) for i in range(k))
    return HammingCode(F, k, len(cols), gen)


CODE_GRID = [(q, k, kind) for q in PRIME_POWER for k in (1, 2, 3)
             for kind in ("plain", "repeated", "deficient") if kind != "deficient" or k > 1]


@pytest.mark.parametrize("q,k,kind", CODE_GRID)
def test_cut_counts_match_the_scan_and_the_walk(q, k, kind):
    rng = random.Random(1000 * q + 10 * k + len(kind))
    F = _field(q)
    for _ in range(3):
        C = _random_code(F, k, kind, rng)
        assert_matches_oracles(C)
        if kind == "deficient":
            assert min(weight_enumerator(C)) == 0


def test_repeated_columns_count_with_multiplicity():
    F = _field(3)
    C = HammingCode(F, 2, 3, ((1, 2, 0), (1, 2, 1)))  # (1,1) ~ (2,2), and (0,1)
    # x0 + 2·x1 = 0 holds both copies of (1,1); x0 = 0 holds (0,1)
    assert weight_enumerator(C) == {1: 1, 2: 1, 3: 2}
    assert weight_enumerator(C, "codeword") == {1: 2, 2: 2, 3: 4}


# -- linear sets ---------------------------------------------------------------


LINEAR_SETS = [(2, 2, 4, 1), (2, 3, 3, 2), (2, 3, 4, 2), (3, 2, 4, 1), (4, 2, 3, 1),
               (5, 2, 2, 1), (8, 2, 2, 1), (9, 2, 2, 1)]


@pytest.mark.parametrize("q,r,n,h", LINEAR_SETS)
def test_projective_system_codes_of_pseudoregulus_images(q, r, n, h):
    p, e = PRIME_POWER[q]
    U = pseudoregulus_subspace(make_tower(p, e, n, 1), r, n, h)
    assert_matches_oracles(projective_system_code(linear_set(U)))


@pytest.mark.parametrize("q,r,n,h", LINEAR_SETS[:5])
def test_projective_system_code_scans_its_cuts_once(q, r, n, h, monkeypatch):
    """The code keeps the histogram its d came from: weight_enumerator reads
    it, with no second scan, and equals the enumerator of the same
    generator built afresh, which scans its own."""
    from ranklab import linsets

    calls = []
    scan = linsets._cut_counts
    monkeypatch.setattr(linsets, "_cut_counts", lambda *a: calls.append(a) or scan(*a))
    U = pseudoregulus_subspace(make_tower(*PRIME_POWER[q], n, 1), r, n, h)
    C = projective_system_code(linear_set(U))
    enums = [weight_enumerator(C, convention) for convention in ("projective", "codeword")]
    assert len(calls) == 1
    fresh = HammingCode(C.field, C.k, C.N, C.gen)
    assert fresh._cuts is None
    assert [weight_enumerator(fresh, c) for c in ("projective", "codeword")] == enums
    assert len(calls) == 3


def test_projective_system_codes_of_fixtures():
    for U in (remark_counterexample(), subgeometry_3_3()):
        assert_matches_oracles(projective_system_code(linear_set(U)))


@pytest.mark.parametrize("q,r,n,h", [(2, 2, 4, 1), (3, 2, 4, 1), (4, 2, 4, 1), (2, 2, 6, 1)])
def test_qsystem_code_distance_matches_the_scan(q, r, n, h):
    p, e = PRIME_POWER[q]
    U = pseudoregulus_subspace(make_tower(p, e, n, 1), r, n, h)
    assert_matches_oracles(qsystem_code(U))


def test_witness_distance_from_the_heaviest_hyperplane():
    U = certified_new_witness()
    C = projective_system_code(linear_set(U))
    assert C.N == 511
    assert C.d == 511 - theta(max_hyperplane_weight(U) - 1, 2)


# -- budget --------------------------------------------------------------------


def test_budget_caps_point_hyperplane_incidences(pseudoreg):
    for U in (pseudoreg, subgeometry_3_3()):
        C = projective_system_code(linear_set(U))
        needed = C.N * theta(C.k - 2, C.field.order)
        with pytest.raises(BudgetExceeded) as exc:
            weight_enumerator(C, budget=needed - 1)
        assert (exc.value.needed, exc.value.what) == (needed, "point-hyperplane incidences")
        with pytest.raises(BudgetExceeded):
            projective_system_code(linear_set(U), budget=needed - 1)
        assert weight_enumerator(C, budget=needed) == weight_enumerator(C)


def test_qsystem_code_runs_under_its_budget(pseudoreg):
    # U's F_q-basis gives 4 columns on theta_0(16) = 1 hyperplane each, and
    # the scatteredness check walks U's 15 F_q-points; in F_16^4 the 8 columns
    # need 8·theta_2(16) incidences
    assert qsystem_code(pseudoreg, budget=16).d == 3
    U = pseudoregulus_subspace(make_tower(2, 1, 4, 1), 4, 4, 1)
    with pytest.raises(BudgetExceeded) as exc:
        qsystem_code(U, budget=1000)
    assert (exc.value.needed, exc.value.what) == (8 * 273, "point-hyperplane incidences")
