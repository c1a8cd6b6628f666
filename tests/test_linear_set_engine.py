"""The linear-set engine against brute-force oracles.

ι, 1-scatteredness, hyperplane weights, the hyperplane spectrum and the h = 1
search score each run the cheaper of two scans: a walk over the F_q-points of
U (or of its ordinary dual) bucketed by projective point, or an elimination
of every point (or hyperplane) of PG(r-1, q^n).  The oracles here intersect U
with every line and hyperplane of V one at a time, through SubspaceBasis
intersections that share no code with either scan.  The walk is also held
against the walk it replaced: every one of the q^k vectors of U, bucketed by
normalize_point, where a point of weight w collects q^w - 1 of them.
"""

import random
from collections import Counter

import pytest

from ranklab import constructions, subspaces
from ranklab.constructions import pseudoregulus_subspace, random_scattered_search
from ranklab.fields import make_tower
from ranklab.errors import InternalInvariantError
from ranklab.fqlinalg import (Mat, SubspaceBasis, intersection_dim, iter_span_rows,
                              kernel, projective_points, rref, vec_mat)
from ranklab.linsets import hyperplane_spectrum, linear_set
from ranklab.subspaces import (
    FqSubspace,
    _point_weights,
    _walk_is_cheaper,
    excess_iter,
    flatten_vec,
    hyperplane_weight_counts,
    hyperplane_weight_iter,
    iota,
    is_h_scattered,
    max_hyperplane_weight,
    normalize_point,
    random_subspace,
    unflatten_vec,
)

PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}
# (q, r, n): every q of the grid with r = 2 and r = 3; n is kept small enough
# that the oracles' θ_{r-1}(q^n) intersections stay cheap.
GRID = [(2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2),
        (3, 3, 3), (4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2), (8, 2, 2),
        (8, 3, 1), (9, 2, 2), (9, 3, 1)]
# forcing the walk on an input visits q^k and q^{rn-k} vectors
FORCED_WALK_LIMIT = 7000


# -- brute-force oracles -------------------------------------------------------


def _line_rows(tower, v):
    """Flat rows spanning <v>_{F_{q^n}} over F_q: g^j·v for j < n."""
    mid = tower.mid
    g = mid.gen if tower.n > 1 else 1
    rows, w = [], list(v)
    for _ in range(tower.n):
        rows.append(flatten_vec(tower, w))
        w = [mid.mul(g, c) for c in w]
    return rows


def oracle_point_weights(U):
    """{point: dim(U ∩ <P>)} over the points of positive weight."""
    tower, rn = U.tower, U.r * U.tower.n
    out = {}
    for v in projective_points(tower.mid, U.r):
        line = SubspaceBasis.from_vectors(tower.base, rn, _line_rows(tower, v))
        w = intersection_dim(U.flat, line)
        if w:
            out[v] = w
    return out


def oracle_hyperplane_weights(U):
    """{dual point w: dim(U ∩ ker(w·))} over every hyperplane."""
    tower, r, rn = U.tower, U.r, U.r * U.tower.n
    out = {}
    for w in projective_points(tower.mid, r):
        H = kernel(Mat.from_rows(tower.mid, [list(w)], r))
        rows = [row for v in H.rows for row in _line_rows(tower, v)]
        out[w] = intersection_dim(U.flat, SubspaceBasis.from_vectors(tower.base, rn, rows))
    return out


def oracle_vector_walk(U):
    """{point: weight} from all q^k vectors of U: each nonzero vector is
    normalized to its point, and a point of weight w collects q^w - 1."""
    tower, q = U.tower, U.tower.q
    counts = Counter(normalize_point(tower.mid, unflatten_vec(tower, v))
                     for v in iter_span_rows(U.flat.rows, tower.base, include_zero=False))
    weight_of = {q**w - 1: w for w in range(1, U.k + 1)}
    return {pt: weight_of[c] for pt, c in counts.items()}


def oracle_excess_iter(U, h, *, budget):
    """excess_iter for h = 1, from the oracle point weights."""
    assert h == 1
    for w in oracle_point_weights(U).values():
        if w > 1:
            yield w - 1


# -- inputs --------------------------------------------------------------------


def _tower(q, n):
    p, e = PRIME_POWER[q]
    return make_tower(p, e, n, 1)


def _seeded_image(U, rng):
    """U·A for a seeded A in GL(r, q^n), which keeps every weight spectrum."""
    mid = U.tower.mid
    while True:
        A = Mat.from_rows(mid, [[rng.randrange(mid.order) for _ in range(U.r)]
                                for _ in range(U.r)], U.r)
        if rref(A)[1] == U.r:
            break
    return FqSubspace.from_mid_vectors(
        U.tower, U.r, [vec_mat(list(v), A) for v in U.basis_mid])


def _grid_inputs():
    """(label, U, h or None): seeded pseudoregulus images, which are maximum
    h-scattered, and seeded random subspaces of dimension 1, rn/2 and rn-1
    (the last two reach the point scan), plus the zero and the full space on
    two cells."""
    rng = random.Random(20260808)
    out = []
    for q, r, n in GRID:
        tower = _tower(q, n)
        rn = r * n
        h = r - 1
        if h < n:
            U = _seeded_image(pseudoregulus_subspace(tower, r, n, h), rng)
            out.append((f"pseudoregulus_q{q}_r{r}_n{n}", U, h))
        if (q, r, n) == (3, 3, 3):
            continue  # only the r = 3, h = 2 maximum case at odd q; θ = 757
        for k in sorted({1, rn // 2, rn - 1}):
            out.append((f"random_q{q}_r{r}_n{n}_k{k}",
                        random_subspace(tower, r, k, rng), None))
        if (q, r, n) in ((2, 2, 3), (3, 3, 2)):
            out.append((f"zero_q{q}_r{r}_n{n}", FqSubspace.zero(tower, r), None))
            out.append((f"full_q{q}_r{r}_n{n}", random_subspace(tower, r, rn, rng), None))
    return out


INPUTS = _grid_inputs()
# the vector-walk oracle visits q^k vectors
VECTOR_WALK_LIMIT = 5000


def _heavy_subspace(tower, r, k, rng):
    """A random k-dim U through v, g·v, ..., g^{w-1}·v for a random v, so the
    point <v> has weight at least w = min(n, k - 1, 3)."""
    mid = tower.mid
    g = mid.gen if tower.n > 1 else 1
    while True:
        v = [rng.randrange(mid.order) for _ in range(r)]
        if any(v):
            break
    vecs = []
    for _ in range(min(tower.n, k - 1, 3)):
        vecs.append(tuple(v))
        v = [mid.mul(g, c) for c in v]
    while True:
        rest = [tuple(rng.randrange(mid.order) for _ in range(r))
                for _ in range(k - len(vecs))]
        U = FqSubspace.from_mid_vectors(tower, r, vecs + rest)
        if U.k == k:
            return U


def _walk_inputs():
    """(label, U): the grid's inputs the vector-walk oracle affords, and per
    cell a random U with a heavy point, of the largest affordable k < rn."""
    rng = random.Random(5)
    out = [(label, U) for label, U, _ in INPUTS if U.tower.q**U.k <= VECTOR_WALK_LIMIT]
    for q, r, n in GRID:
        tower = _tower(q, n)
        k = max(k for k in range(2, r * n) if q**k <= VECTOR_WALK_LIMIT)
        out.append((f"heavy_q{q}_r{r}_n{n}_k{k}", _heavy_subspace(tower, r, k, rng)))
    return out


WALK_INPUTS = _walk_inputs()


def _sides(U):
    """The natural choice, then each side forced where it stays affordable."""
    q, rn = U.tower.q, U.r * U.tower.n
    sides = [None, False]
    if max(q**U.k, q**(rn - U.k)) <= FORCED_WALK_LIMIT:
        sides.append(True)
    return sides


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("label,U,h", INPUTS, ids=[x[0] for x in INPUTS])
def test_engine_matches_the_oracles_on_the_grid(label, U, h, monkeypatch):
    pts = oracle_point_weights(U)
    hyp = oracle_hyperplane_weights(U)
    rn, k, n = U.r * U.tower.n, U.k, U.tower.n
    spans = k > 0 and max(hyp.values()) < k
    assert linear_set(U).points == pts
    for side in _sides(U):
        with monkeypatch.context() as m:
            if side is not None:
                m.setattr(subspaces, "_walk_is_cheaper", lambda *a: side)
            assert iota(U) == max(pts.values(), default=0), side
            assert is_h_scattered(U, 1) == (spans and all(w == 1 for w in pts.values())), side
            assert max_hyperplane_weight(U) == max(hyp.values()), side
            pairs = list(hyperplane_weight_iter(U))
            assert len(pairs) == len(hyp) and dict(pairs) == hyp, side
            assert hyperplane_weight_counts(U) == dict(Counter(hyp.values())), side
            score = (0 if U.spans_ambient() else rn) + sum(excess_iter(U, 1))
            assert score == ((0 if spans else rn)
                             + sum(w - 1 for w in pts.values() if w > 1)), side
            if h is not None:
                want = Counter(wt - (k - n) for wt in hyp.values())
                assert hyperplane_spectrum(U, h) == dict(sorted(want.items())), side


def test_grid_reaches_both_sides_of_each_choice():
    point_side = {_walk_is_cheaper(U.tower, U.r, U.k) for _, U, _ in INPUTS}
    dual_side = {_walk_is_cheaper(U.tower, U.r, U.r * U.tower.n - U.k)
                 for _, U, _ in INPUTS}
    assert point_side == dual_side == {True, False}


def test_budget_names_the_chosen_scans_unit():
    from ranklab.errors import BudgetExceeded

    tower = _tower(2, 3)  # the point scan costs n·θ_1(8) = 3·9 = 27 row additions
    assert _walk_is_cheaper(tower, 2, 4)  # 16 vectors
    with pytest.raises(BudgetExceeded, match="16 subspace vectors"):
        iota(random_subspace(tower, 2, 4, random.Random(1)), budget=15)
    U = random_subspace(tower, 2, 5, random.Random(1))  # 32 vectors
    assert not _walk_is_cheaper(tower, 2, 5)
    with pytest.raises(BudgetExceeded, match="9 projective points"):
        iota(U, budget=8)
    assert _walk_is_cheaper(tower, 2, 1)  # the dual's 2 vectors
    assert max_hyperplane_weight(U, budget=2) == 5 - 3 + 1
    with pytest.raises(BudgetExceeded, match="2 subspace vectors"):
        max_hyperplane_weight(U, budget=1)


# long trajectories: runs that spend all 30 evaluations, or find a witness late
@pytest.mark.parametrize("q,r,n,k,seed", [
    (2, 2, 4, 4, 0), (2, 2, 4, 4, 1), (2, 2, 4, 4, 2), (3, 2, 4, 4, 1),
    (2, 2, 5, 5, 0)])
def test_search_follows_the_oracle_scored_trajectory(q, r, n, k, seed, monkeypatch):
    tower = _tower(q, n)
    fast = random_scattered_search(tower, r, 1, k, seed=seed, max_evals=30)
    monkeypatch.setattr(constructions, "excess_iter", oracle_excess_iter)
    slow = random_scattered_search(tower, r, 1, k, seed=seed, max_evals=30)
    assert (fast.found, fast.evaluations) == (slow.found, slow.evaluations)
    assert fast.subspace == slow.subspace


@pytest.mark.parametrize("label,U", WALK_INPUTS, ids=[x[0] for x in WALK_INPUTS])
def test_point_walk_matches_the_vector_walk(label, U):
    assert linear_set(U).points == oracle_vector_walk(U)


def test_vector_walk_grid_has_heavy_points_at_every_q():
    heavy = {U.tower.q for _, U in WALK_INPUTS
             if max(oracle_vector_walk(U).values(), default=0) >= 2}
    assert heavy == set(PRIME_POWER)


@pytest.mark.parametrize("p,n", [(2, 21), (3, 13)])
def test_point_walk_without_log_tables(p, n):
    tower = make_tower(p, 1, n, 1)
    assert tower.mid._exp is None      # above fields.LOG_TABLE_LIMIT
    U = _heavy_subspace(tower, 2, 3, random.Random(p))
    want = oracle_vector_walk(U)
    assert max(want.values()) == 2
    assert linear_set(U).points == want
    assert iota(U) == 2


def test_point_walk_checks_its_fiber_sizes(monkeypatch):
    U = _heavy_subspace(_tower(3, 2), 2, 3, random.Random(1))
    monkeypatch.setattr(subspaces, "theta", lambda s, Q: Q ** (s + 1) - 1)
    with pytest.raises(InternalInvariantError, match="fiber size"):
        _point_weights(U, 1 << 20)
