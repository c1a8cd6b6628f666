"""The linear-set engine against brute-force oracles.

ι, 1-scatteredness, (r-1)-scatteredness, hyperplane weights, the hyperplane
spectrum and the h = 1 and h = r - 1 search scores each run the cheaper of
two scans: a walk over the F_q-points of U (or of its ordinary dual) bucketed
by projective point, or an elimination of every point (or hyperplane) of
PG(r-1, q^n).  The oracles here intersect U with every line and hyperplane
of V one at a time, by the dimension of a SubspaceBasis sum, which shares no
code with either scan.  The walk is also held against the walk it replaced:
every one of the q^k vectors of U, bucketed by normalize_point, where a
point of weight w collects q^w - 1 of them, and against the walk on code
tuples added by Field.add (oracle_tuple_walk), which fixes the order in
which the points come out.  At h = r - 1 the scatteredness
test and the excess list are held against the definition scan they
replaced, which meets U with every h-dim F_{q^n}-subspace.
"""

import itertools
import random
from collections import Counter

import pytest

from ranklab import constructions, subspaces
from ranklab.constructions import pseudoregulus_subspace, random_scattered_search
from ranklab.fields import make_tower
from ranklab.errors import BudgetExceeded, InternalInvariantError, NotMaxScattered
from ranklab.fields import Field
from ranklab.fqlinalg import (Mat, SubspaceBasis, basis_codes, cheapest, enumerate_subspaces,
                              iter_span_rows, kernel, odometer, projective_points, rref,
                              theta, vec_mat)
from ranklab.linsets import hyperplane_spectrum, linear_set
from ranklab.subspaces import (
    FqSubspace,
    _point_scan,
    _point_sides,
    _point_weights,
    excess_iter,
    excess_total,
    hyperplane_weight_counts,
    hyperplane_weight_iter,
    iota,
    is_h_scattered,
    max_hyperplane_weight,
    normalize_point,
    ordinary_dual,
    point_weight_counts,
    random_subspace,
)

from oracles import flatten_vec, unflatten_vec

PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}
# (q, r, n): every q of the grid with r = 2 and r = 3; n is kept small enough
# that the oracles' θ_{r-1}(q^n) intersections stay cheap.
GRID = [(2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2),
        (3, 3, 3), (4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2), (8, 2, 2),
        (8, 3, 1), (9, 2, 2), (9, 3, 1)]
# forcing the walk on an input visits fewer than q^k and q^{rn-k} F_q-points
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


def _fqn_flat(tower, W):
    """<W>_{F_{q^n}} for mid vectors W, as a flat F_q-subspace."""
    rows = [row for v in W for row in _line_rows(tower, v)]
    return SubspaceBasis.from_vectors(tower.base, len(rows[0]), rows)


def _meet_dim(A, B):
    """dim(A ∩ B) = dim A + dim B - dim(A + B), with A + B in RREF afresh."""
    return A.dim + B.dim - A.sum(B).dim


def oracle_point_weights(U):
    """{point: dim(U ∩ <P>)} over the points of positive weight."""
    out = {}
    for v in projective_points(U.tower.mid, U.r):
        w = _meet_dim(U.flat, _fqn_flat(U.tower, [v]))
        if w:
            out[v] = w
    return out


def oracle_hyperplane_weights(U):
    """{dual point w: dim(U ∩ ker(w·))} over every hyperplane."""
    mid, r = U.tower.mid, U.r
    out = {}
    for w in projective_points(mid, r):
        H = kernel(Mat.from_rows(mid, [list(w)], r))
        out[w] = _meet_dim(U.flat, _fqn_flat(U.tower, H.rows))
    return out


def oracle_vector_walk(U):
    """{point: weight} from all q^k vectors of U: each nonzero vector is
    normalized to its point, and a point of weight w collects q^w - 1."""
    tower, q = U.tower, U.tower.q
    counts = Counter(normalize_point(tower.mid, unflatten_vec(tower, v))
                     for v in itertools.islice(
                         iter_span_rows(U.flat.rows, tower.base, U.flat.ambient), 1, None))
    weight_of = {q**w - 1: w for w in range(1, U.k + 1)}
    return {pt: weight_of[c] for pt, c in counts.items()}


def oracle_tuple_walk(U):
    """{point: weight} from the walk _point_weights replaced, kept as its
    oracle for content and order: the same odometer over the F_p-expansion
    of U's basis, on code tuples added by Field.add, each vector normalized
    by normalize_point and counted in visiting order."""
    tower, mid = U.tower, U.tower.mid
    add = lambda x, y: tuple(map(mid.add, x, y))
    rows = [tuple(mid.mul(c, x) for x in v) for v in U.basis_mid for c in basis_codes(tower.base)]
    e = tower.e
    counts = Counter()
    for i in range(U.k):
        counts.update(normalize_point(mid, v)
                      for v in odometer(add, rows[i * e], rows[(i + 1) * e:], mid.p))
    weight_of = {theta(w - 1, tower.q): w for w in range(1, U.k + 1)}
    return {pt: weight_of[c] for pt, c in counts.items()}


def oracle_excess_total(U, h, *, cap=None, budget):
    """The full excess of U at h, whatever cap: dim(U ∩ W) - h summed over
    every h-dim F_{q^n}-subspace W where it is positive, each W met with U
    by the dimension of a SubspaceBasis sum."""
    return sum(max(_meet_dim(U.flat, _fqn_flat(U.tower, W.rows)) - h, 0)
               for W in enumerate_subspaces(U.r, h, U.tower.mid))


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
    (at q = 2 and 3 some of the last reach the point scan), plus the zero and
    the full space on two cells."""
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


def _walks(tower, r, dim):
    """True iff the walk is priced below the point scan for a dim-dimensional
    subspace of F_{q^n}^r, the side taken when both fit the budget."""
    return cheapest(_point_sides(tower, r, dim), 1 << 62)


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("label,U,h", INPUTS, ids=[x[0] for x in INPUTS])
def test_engine_matches_the_oracles_on_the_grid(label, U, h, force_side):
    pts = oracle_point_weights(U)
    hyp = oracle_hyperplane_weights(U)
    rn, k, n = U.r * U.tower.n, U.k, U.tower.n
    spans = k > 0 and max(hyp.values()) < k
    assert linear_set(U).points == pts
    # the natural side first, as _sides lists it, then each forced side
    for side in _sides(U):
        if side is not None:
            force_side(side)
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
    point_side = {_walks(U.tower, U.r, U.k) for _, U, _ in INPUTS}
    dual_side = {_walks(U.tower, U.r, U.r * U.tower.n - U.k) for _, U, _ in INPUTS}
    assert point_side == dual_side == {True, False}


def test_budget_names_the_chosen_scans_unit():
    # the point scan visits θ_1(8) = 9 points at n·9 = 27 row additions
    tower = _tower(2, 3)
    U4 = random_subspace(tower, 2, 4, random.Random(1))
    assert _walks(tower, 2, 4)  # θ_3(2) = 15 F_q-points
    assert iota(U4, budget=15) == iota(U4)
    with pytest.raises(BudgetExceeded, match="15 subspace F_q-points exceeds budget 8"):
        iota(U4, budget=8)
    # only the scan fits: it runs, although the walk is cheaper
    assert iota(U4, budget=14) == iota(U4)
    V = random_subspace(tower, 2, 6, random.Random(1))
    assert not _walks(tower, 2, 6)  # θ_5(2) = 63 F_q-points
    with pytest.raises(BudgetExceeded, match="9 projective points"):
        iota(V, budget=8)
    U = random_subspace(tower, 2, 5, random.Random(1))
    assert _walks(tower, 2, 1)  # the dual's θ_0(2) = 1 F_q-point
    assert max_hyperplane_weight(U, budget=1) == 5 - 3 + 1
    with pytest.raises(BudgetExceeded, match="1 subspace F_q-points"):
        max_hyperplane_weight(U, budget=0)


def test_linear_set_scans_the_points_when_the_walk_is_out_of_budget():
    # U = V in F_2048^2: θ_21(2) = 4,194,303 F_q-points exceed the default
    # budget, the θ_1(2048) = 2049 points of the scan fit it
    tower = make_tower(2, 1, 11, 1)
    V = FqSubspace.from_flat(tower, 2, [[int(i == j) for j in range(22)] for i in range(22)])
    sides = _point_sides(tower, 2, 22)
    assert [items for _, items, _, _ in sides] == [4194303, 2049]
    assert cheapest(sides, 1 << 20) is False
    L = linear_set(V)
    assert L.size == 2049 and set(L.points.values()) == {11}
    assert iota(V) == 11


@pytest.mark.parametrize("q", sorted(PRIME_POWER))
def test_the_price_list_counts_the_items_the_engine_visits(q, monkeypatch, force_side):
    # the item count of each side in subspaces._point_sides (which rankcodes
    # lists too) is the F_q-points the walk visits, or the points the scan
    # meets
    tower, rng = _tower(q, 2), random.Random(q)
    batches, scan = subspaces._walk_batches, subspaces._point_scan
    seen = []

    def walked(U, *cut):
        for vectors, runs in batches(U, *cut):
            seen.append(len(vectors))
            yield vectors, runs

    def scanned_points(U, budget):
        for item in scan(U, budget):
            seen.append(1)
            yield item

    monkeypatch.setattr(subspaces, "_walk_batches", walked)
    monkeypatch.setattr(subspaces, "_point_scan", scanned_points)
    for r, k in ((2, 3), (3, 2), (3, 5)):
        U = random_subspace(tower, r, k, rng)
        for side in (True, False):
            force_side(side)
            seen.clear()
            counts = subspaces.point_weight_counts(U)
            items = {walk: items for _, items, _, walk in _point_sides(tower, r, k)}
            assert items[side] == sum(seen), (r, k, side)
            assert sum(counts.values()) == theta(r - 1, tower.mid.order)
            assert sum(seen) == (theta(k - 1, q) if side else theta(r - 1, q**2))


def test_walk_is_chosen_for_k5_in_f625_squared(force_side):
    # q = 5, n = 4: the walk visits θ_4(5) = 781 F_q-points of U against the
    # point scan's 4·θ_1(625) = 2504 row additions.  A budget that fits the
    # walk's 781 F_q-points, or only the scan's θ_1(625) = 626 points, answers
    tower = _tower(5, 4)
    assert _walks(tower, 2, 5)
    rng = random.Random(625)
    cases = []
    for _ in range(3):
        U = random_subspace(tower, 2, 5, rng)
        want = max(oracle_point_weights(U).values())
        assert iota(U) == iota(U, budget=1000) == iota(U, budget=700) == want
        cases.append((U, want))
    with pytest.raises(BudgetExceeded, match="781 subspace F_q-points exceeds budget 625"):
        iota(U, budget=625)
    force_side(False)
    for U, want in cases:
        assert iota(U) == want


# long trajectories at r = 2: runs that spend all 30 evaluations, or find a
# witness late, rejecting moves by the cap; at q = 3, r = 3 (h = 1) and at
# r = 4, h = 2 (the subspace scan) the longest of the first seeds, which
# find a witness before a move's excess exceeds the incumbent's score
@pytest.mark.parametrize("q,r,n,k,h,seed,fires", [
    (2, 2, 4, 4, 1, 0, True), (2, 2, 4, 4, 1, 1, True), (2, 2, 4, 4, 1, 2, True),
    (3, 2, 4, 4, 1, 1, True), (2, 2, 5, 5, 1, 0, True), (3, 3, 2, 3, 1, 31, False),
    (2, 4, 3, 4, 2, 53, False)])
def test_search_follows_the_oracle_scored_trajectory(q, r, n, k, h, seed, fires, monkeypatch):
    # the fast side caps each move's excess at the incumbent's score; the
    # slow side scores every move in full with the oracle, so the two agree
    # only if every capped verdict is the full score's
    tower = _tower(q, n)
    capped = []
    total = subspaces.excess_total

    def counted(U, h, *, cap=None, budget):
        excess = total(U, h, cap=cap, budget=budget)
        capped.append(excess is None)
        return excess

    monkeypatch.setattr(constructions, "excess_total", counted)
    fast = random_scattered_search(tower, r, h, k, seed=seed, max_evals=30)
    assert any(capped) == fires
    monkeypatch.setattr(constructions, "excess_total", oracle_excess_total)
    slow = random_scattered_search(tower, r, h, k, seed=seed, max_evals=30)
    assert (fast.found, fast.evaluations) == (slow.found, slow.evaluations)
    assert fast.subspace == slow.subspace


@pytest.mark.parametrize("label,U", WALK_INPUTS, ids=[x[0] for x in WALK_INPUTS])
def test_point_walk_matches_the_vector_walk(label, U, force_side):
    force_side(True)
    points = linear_set(U).points
    assert points == oracle_vector_walk(U)
    assert list(points.items()) == list(oracle_tuple_walk(U).items())


def _lead_zero_subspace(tower, r, k, rng):
    """A random k-dim U whose basis vectors but one have first coordinate 0,
    so most of the walk's vectors lead with zero coordinates; one of them
    spans a line <v> with 0 < weight."""
    mid = tower.mid
    g = mid.gen if tower.n > 1 else 1
    while True:
        v = (0,) + tuple(rng.randrange(mid.order) for _ in range(r - 1))
        vecs = [v, tuple(mid.mul(g, c) for c in v)][:min(2, tower.n)]
        vecs += [(0,) + tuple(rng.randrange(mid.order) for _ in range(r - 1))
                 for _ in range(k - 1 - len(vecs))]
        vecs.append(tuple(rng.randrange(mid.order) for _ in range(r)))
        U = FqSubspace.from_mid_vectors(tower, r, vecs)
        if U.k == k:
            return U


def _odd_p_walk_inputs():
    """(label, U): the packed walk at odd p, where each coordinate is read
    back from two digit tables (q = 9, n = 4 is F_6561 with 8 digits per
    coordinate), at r = 2 and 3, with leading zero coordinates, at k = 1, and
    past one batch of the walk (q = 3, n = 6, k = 9 and q = 4, n = 4, k = 7
    visit 9841 and 5461 F_q-points)."""
    rng = random.Random(6561)
    out = []
    for q, r, n, k in [(9, 2, 4, 3), (5, 2, 4, 4), (3, 2, 6, 9), (4, 2, 4, 7), (3, 3, 2, 4),
                       (5, 3, 2, 3), (9, 3, 2, 3)]:
        out.append((f"heavy_q{q}_r{r}_n{n}_k{k}", _heavy_subspace(_tower(q, n), r, k, rng)))
    for q, r, n, k in [(3, 3, 3, 4), (9, 3, 2, 3), (5, 2, 4, 3)]:
        out.append((f"lead_zero_q{q}_r{r}_n{n}_k{k}",
                    _lead_zero_subspace(_tower(q, n), r, k, rng)))
    for q, r, n in [(9, 2, 4), (3, 2, 6), (5, 3, 2)]:
        out.append((f"k1_q{q}_r{r}_n{n}", random_subspace(_tower(q, n), r, 1, rng)))
    return out


ODD_P_WALK_INPUTS = _odd_p_walk_inputs()


@pytest.mark.parametrize("label,U", ODD_P_WALK_INPUTS, ids=[x[0] for x in ODD_P_WALK_INPUTS])
def test_packed_walk_matches_both_oracles_at_odd_p(label, U):
    got = _point_weights(U)
    assert list(got.items()) == list(oracle_tuple_walk(U).items())
    assert got == oracle_vector_walk(U)
    assert got == {pt: w for pt, w in _point_scan(U, 1 << 20) if w}


def test_odd_p_walk_grid_has_heavy_points_and_zero_leads():
    weights = {label: _point_weights(U) for label, U in ODD_P_WALK_INPUTS}
    assert all(max(weights[label].values()) >= 2 for label in weights
               if label.startswith("heavy"))
    for label, w in weights.items():
        if label.startswith("lead_zero"):
            leads = Counter(next(i for i, c in enumerate(pt) if c) for pt in w)
            assert leads[0] and sum(leads.values()) > leads[0], label


@pytest.mark.parametrize("q", [9, 5])
def test_packed_walk_adds_no_field_elements(q, monkeypatch):
    # F_9^4 and F_5^4: every walk step is an add of packed F_p-vectors
    U = _heavy_subspace(_tower(q, 4), 2, 3, random.Random(q))
    want = oracle_tuple_walk(U)

    def refuse(self, a, b):
        raise AssertionError("Field.add in the walk")

    monkeypatch.setattr(Field, "add", refuse)
    assert _point_weights(U) == want


def test_vector_walk_grid_has_heavy_points_at_every_q():
    heavy = {U.tower.q for _, U in WALK_INPUTS
             if max(oracle_vector_walk(U).values(), default=0) >= 2}
    assert heavy == set(PRIME_POWER)


@pytest.mark.parametrize("p,n", [(2, 21), (3, 13)])
def test_point_walk_without_log_tables(p, n, monkeypatch, force_side):
    force_side(True)
    tower = make_tower(p, 1, n, 1)
    assert tower.mid._exp is None      # above fields.LOG_TABLE_LIMIT
    U = _heavy_subspace(tower, 2, 3, random.Random(p))
    want = oracle_vector_walk(U)
    assert max(want.values()) == 2
    assert linear_set(U).points == want
    assert list(linear_set(U).points.items()) == list(oracle_tuple_walk(U).items())
    assert iota(U) == 2
    # the count path, on U and on an r = 3 subspace with zero leads
    for V in (U, _lead_zero_subspace(tower, 3, 3, random.Random(n))):
        want = oracle_vector_walk(V)
        assert _read_off_the_counts(V, monkeypatch, force_side) == (
            max(want.values()), sorted(w - 1 for w in want.values() if w > 1),
            _counts_of(want, V))


def test_point_walk_checks_its_fiber_sizes(monkeypatch):
    U = _heavy_subspace(_tower(3, 2), 2, 3, random.Random(1))
    monkeypatch.setattr(subspaces, "theta", lambda s, Q: Q ** (s + 1) - 1)
    with pytest.raises(InternalInvariantError, match="fiber size"):
        _point_weights(U)


# -- the count path against the dict path, the scan and the vector walk ---------


def _counts_of(points, U):
    """{w: number of points of weight w} over PG(r-1, q^n) from {point: w}
    over the points of positive weight."""
    counts = Counter(points.values())
    rest = theta(U.r - 1, U.tower.mid.order) - len(points)
    if rest:
        counts[0] = rest
    return dict(counts)


def _read_off_the_counts(U, monkeypatch, force_side):
    """(ι, sorted h = 1 excess, point_weight_counts) on the walk, forced
    from then on, with the point dict and the point scan patched to raise:
    the count path."""
    def refuse(*args):
        raise AssertionError("the count path built points")

    force_side(True)
    with monkeypatch.context() as m:
        m.setattr(subspaces, "_point_weights", refuse)
        m.setattr(subspaces, "_point_scan", refuse)
        return iota(U), sorted(excess_iter(U, 1)), point_weight_counts(U)


@pytest.mark.parametrize("label,U", WALK_INPUTS, ids=[x[0] for x in WALK_INPUTS])
def test_count_path_matches_the_dict_path_the_scan_and_the_vector_walk(label, U, monkeypatch,
                                                                        force_side):
    want = oracle_vector_walk(U)
    assert _point_weights(U) == want
    assert {pt: w for pt, w in _point_scan(U, 1 << 20) if w} == want
    expected = (max(want.values(), default=0), sorted(w - 1 for w in want.values() if w > 1),
                _counts_of(want, U))
    assert _read_off_the_counts(U, monkeypatch, force_side) == expected, label
    force_side(False)
    assert (iota(U), sorted(excess_iter(U, 1)), point_weight_counts(U)) == expected, label


def _record_walked_blocks(monkeypatch):
    """The lists of vectors whose coordinates the walk reads, each once,
    recorded through fqlinalg.log_column's read."""
    tables, blocks = subspaces.log_column, []

    def recording(F, ncols):
        read, exp3 = tables(F, ncols)

        def read_column(rows, j):
            if not any(rows is b for b in blocks):
                blocks.append(rows)
            return read(rows, j)
        return read_column, exp3

    monkeypatch.setattr(subspaces, "log_column", recording)
    return blocks


def _walked_to_the_verdict(tower, r, k, h, rng, monkeypatch):
    """(vectors read by is_h_scattered, vectors read counting all point
    weights of U^⊥') on a random spanning k-dim U with a definition
    violation at h = r - 1."""
    blocks = _record_walked_blocks(monkeypatch)
    U = _spanning(tower, r, k, rng)
    assert definition_excess(U, h)
    blocks.clear()
    point_weight_counts(ordinary_dual(U))
    walked = sum(map(len, blocks))
    blocks.clear()
    assert not is_h_scattered(U, h)
    return sum(map(len, blocks)), walked


def test_scatteredness_walk_stops_at_the_first_heavy_run(monkeypatch):
    # random non-maximum k = 6 subspaces of F_64^3 at h = 2: the walk of the
    # 4095 F_q-points of U^⊥' stops after the first run whose partial fibers
    # show a point of weight 3, and the verdict is the definition scan's
    tower, rng = _tower(2, 6), random.Random(64)
    for _ in range(4):
        stopped, walked = _walked_to_the_verdict(tower, 3, 6, 2, rng, monkeypatch)
        assert 0 < stopped < walked <= theta(11, 2)


def test_scatteredness_walk_stops_at_the_first_heavy_run_at_odd_p(monkeypatch):
    # random k = 5 subspaces of F_81^3 at h = 2 (above the maximum 4): the
    # walk of the 1093 F_q-points of U^⊥' stops after the first run whose
    # partial fibers show a point of weight 2, read through the block dict
    tower, rng = _tower(3, 4), random.Random(81)
    for _ in range(4):
        stopped, walked = _walked_to_the_verdict(tower, 3, 5, 2, rng, monkeypatch)
        assert 0 < stopped < walked <= theta(6, 3)


# -- the capped excess ------------------------------------------------------------


def _cap_inputs():
    """(label, U, h): a heavy subspace of dimension rn/2 + 1 and a random
    one of dimension ceil(rn/2) on every cell of the grid at every h from 1
    to r - 1, and on F_4^4, whose 357 2-dim subspaces give the scan at
    h = 2 = r - 2."""
    rng = random.Random(31)
    out = []
    for q, r, n in GRID + [(2, 4, 2)]:
        tower = _tower(q, n)
        for kind, U in (("heavy", _heavy_subspace(tower, r, r * n // 2 + 1, rng)),
                        ("random", random_subspace(tower, r, (r * n + 1) // 2, rng))):
            out += [(f"{kind}_q{q}_r{r}_n{n}_h{h}", U, h) for h in range(1, r)]
    return out


CAP_INPUTS = _cap_inputs()


@pytest.mark.parametrize("label,U,h", CAP_INPUTS, ids=[x[0] for x in CAP_INPUTS])
def test_capped_excess_is_the_sum_or_none_above_the_cap(label, U, h, force_side):
    # every cap from -1 to the sum + 1, on the natural side and each forced
    # side: the sum itself, or None exactly when the sum exceeds the cap
    total = sum(excess_iter(U, h))
    for side in _sides(U):
        if side is not None:
            force_side(side)
        assert excess_total(U, h) == sum(excess_iter(U, h)) == total, (label, side)
        for cap in range(-1, total + 2):
            want = None if total > cap else total
            assert excess_total(U, h, cap=cap) == want, (label, side, cap)


def test_capped_excess_grid_has_excess_at_every_h():
    totals = Counter()
    for _, U, h in CAP_INPUTS:
        totals[U.tower.q, h, U.r] += sum(excess_iter(U, h))
    assert {q for (q, h, r), total in totals.items() if total and h == 1} == set(PRIME_POWER)
    assert {q for (q, h, r), total in totals.items() if total and h == r - 1} == set(PRIME_POWER)
    assert totals[2, 2, 4]


def _visible_excess(U):
    """Σ (w(P) - 1) over the points P of weight w >= 2 whose U ∩ <P> is not
    inside span(b_1, ..., b_{k-1}) of U's basis b: the excess the walk's
    fibers show after b_0 + span(b_1, ..., b_{k-1}) (oracle point weights)."""
    rest = SubspaceBasis.from_vectors(U.tower.base, U.flat.ambient, U.flat.rows[1:])
    return sum(w - 1 for P, w in oracle_point_weights(U).items()
               if w > 1 and _meet_dim(rest, _fqn_flat(U.tower, [P])) < w)


@pytest.mark.parametrize("q,n,k", [(2, 4, 6), (3, 3, 4), (4, 3, 4), (5, 3, 4), (8, 3, 4),
                                   (9, 3, 4)])
def test_capped_walk_stops_after_the_first_basis_vector(q, n, k, monkeypatch, force_side):
    # heavy subspaces of F_{q^n}^2 whose excess shows after the q^{k-1}
    # vectors b_0 + span(b_1, ..., b_{k-1}): capped below it, the walk
    # builds and reads no vector past them; capped at it, all θ_{k-1}(q)
    tower, rng = _tower(q, n), random.Random(q * n)
    batches, built = subspaces._walk_batches, []

    def counted(U, *cut):
        for vectors, runs in batches(U, *cut):
            built.append(len(vectors))
            yield vectors, runs

    monkeypatch.setattr(subspaces, "_walk_batches", counted)
    force_side(True)
    stopped = 0
    for _ in range(8):
        U = _heavy_subspace(tower, 2, k, rng)
        total, seen = sum(excess_iter(U, 1)), _visible_excess(U)
        assert seen <= total
        if seen > 1:
            built.clear()
            assert excess_total(U, 1, cap=seen - 1) is None
            assert sum(built) == q ** (k - 1)
            stopped += 1
        built.clear()
        assert excess_total(U, 1, cap=seen) == (None if total > seen else total)
        assert sum(built) == theta(k - 1, q)
    assert stopped >= 2


# -- r = 2: hyperplanes are points ------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (8, 2),
                                 (9, 2)])
def test_r2_hyperplane_weights_are_the_point_weights(q, n, monkeypatch, force_side):
    # at r = 2 and k <= n the hyperplane weight counts are U's own point
    # weight counts, built without U^⊥', against the dual path and the
    # oracle; the spectrum, the largest weight and the Delsarte
    # precondition read them
    tower, rng = _tower(q, n), random.Random(q + n)
    dual = subspaces.ordinary_dual
    for k in range(n + 1):
        for U in (random_subspace(tower, 2, k, rng),
                  _heavy_subspace(tower, 2, k, rng) if k > 1 else FqSubspace.zero(tower, 2)):
            want = dict(Counter(oracle_hyperplane_weights(U).values()))
            via_dual = {w + U.k - n: c for w, c in point_weight_counts(dual(U)).items()}
            assert via_dual == want, k
            for side in (True, False):
                force_side(side)
                with monkeypatch.context() as m:
                    m.setattr(subspaces, "ordinary_dual", None)
                    assert hyperplane_weight_counts(U) == want, (k, side)
                    assert max_hyperplane_weight(U) == max(want), (k, side)


# -- the F_{q^n}-meet against the flat intersection -----------------------------


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (5, 2), (8, 2), (9, 2)])
def test_meet_dims_match_the_flat_intersection(q, n):
    """subspaces._meet_dims against the flat intersection with
    <W>_{F_{q^n}} at r = 3: points, hyperplanes (the kernel of a dual point)
    and 2-dim W, random and through U's own vectors."""
    tower, r = _tower(q, n), 3
    mid = tower.mid
    rng = random.Random(q * 10 + n)

    def vec():
        while True:
            v = tuple(rng.randrange(mid.order) for _ in range(r))
            if any(v):
                return v

    for k in (2, r * n // 2):
        U = _heavy_subspace(tower, r, k, rng)
        u = list(U.basis_mid)
        points = u + [vec() for _ in range(8)]
        duals = [vec() for _ in range(8)]
        duals += [kernel(Mat.from_rows(mid, [list(a), list(b)], r)).rows[0]
                  for a, b in zip(u, u[1:])
                  if rref(Mat.from_rows(mid, [list(a), list(b)], r))[1] == 2]
        spaces = [[P] for P in points]
        spaces += [list(kernel(Mat.from_rows(mid, [list(w)], r)).rows) for w in duals]
        spaces += [[a, vec()] for a in u] + [[vec(), vec()] for _ in range(8)]
        spaces = [SubspaceBasis.from_vectors(mid, r, W).rows for W in spaces]
        want = [_meet_dim(U.flat, _fqn_flat(tower, W)) for W in spaces]
        assert list(subspaces._meet_dims(U, spaces)) == want
        assert max(want) >= min(n, k - 1, 3)


# -- h = r - 1 against the definition scan ---------------------------------------


def definition_excess(U, h):
    """Sorted dim(U ∩ W) - h over the h-dim F_{q^n}-subspaces W where it is
    positive: every W of enumerate_subspaces(r, h, q^n) met with U."""
    spaces = (W.rows for W in enumerate_subspaces(U.r, h, U.tower.mid))
    return sorted(d - h for d in subspaces._meet_dims(U, spaces) if d > h)


# (q, r, n) at h = r - 1: every q of the grid at r = 3 and r = 4, with n
# small enough that the definition scan's θ_{r-1}(q^n) hyperplanes stay
# cheap; pseudoregulus images need n >= r
DUAL_GRID = [(2, 3, 4), (3, 3, 3), (4, 3, 2), (5, 3, 2), (8, 3, 2), (9, 3, 2),
             (2, 4, 4), (3, 4, 2), (4, 4, 2), (5, 4, 1), (8, 4, 1), (9, 4, 1)]
# cells with more hyperplanes than this get one near miss and no other input
DUAL_EXTRAS_LIMIT = 1000


def _near_misses(U, rng):
    """Copies of U of the same dimension with one basis vector swapped: the
    last for a random F_{q^n}-combination of the first r - 1, which puts r
    F_q-independent vectors of U in one hyperplane (so the copy is not
    (r-1)-scattered, and does not span when k = r; not at n = 1, where that
    span is the F_q-span), then a random one for a random vector."""
    mid, r, k = U.tower.mid, U.r, U.k
    out = []
    for inside in (True, False) if U.tower.n > 1 else (False,):
        while True:
            vecs = list(U.basis_mid)
            if inside:
                v = [0] * r
                for b in vecs[:r - 1]:
                    a = rng.randrange(mid.order)
                    v = [mid.add(x, mid.mul(a, y)) for x, y in zip(v, b)]
                vecs[-1] = tuple(v)
            else:
                vecs[rng.randrange(k)] = tuple(rng.randrange(mid.order) for _ in range(r))
            V = FqSubspace.from_mid_vectors(U.tower, r, vecs)
            if V.k == k:
                out.append(V)
                break
    return out


def _spanning(tower, r, k, rng):
    """A random k-dim U that spans V over F_{q^n}."""
    while not (U := random_subspace(tower, r, k, rng)).spans_ambient():
        pass
    return U


def _in_hyperplane(tower, r, k, rng):
    """A random k-dim U inside the hyperplane x_0 = 0, so U does not span."""
    while True:
        vecs = [(0,) + tuple(rng.randrange(tower.mid.order) for _ in range(r - 1))
                for _ in range(k)]
        U = FqSubspace.from_mid_vectors(tower, r, vecs)
        if U.k == k:
            return U


def _dual_grid_inputs():
    """(label, U) per cell: a pseudoregulus image where n >= r, else a
    spanning k = r subspace, and near misses of it; on the cheaper cells
    also a non-spanning U, a random U of dimension r + 1, a U with
    k - n > h, U = 0 and U = V."""
    rng = random.Random(20261018)
    out = []
    for q, r, n in DUAL_GRID:
        tower, h, rn = _tower(q, n), r - 1, r * n
        tag = f"q{q}_r{r}_n{n}"
        if n >= r:
            U = _seeded_image(pseudoregulus_subspace(tower, r, n, h), rng)
            out.append((f"pseudoregulus_{tag}", U))
        else:   # an F_q-form of V: every spanning k = r subspace is (r-1)-scattered
            U = _spanning(tower, r, r, rng)
            out.append((f"form_{tag}", U))
        extras = theta(r - 1, tower.mid.order) <= DUAL_EXTRAS_LIMIT
        misses = _near_misses(U, rng)
        out += [(f"near_miss{i}_{tag}", V) for i, V in enumerate(misses[:1 + extras])]
        if not extras:
            continue
        k = min(n + 1, (r - 1) * n)
        out.append((f"in_hyperplane_{tag}_k{k}", _in_hyperplane(tower, r, k, rng)))
        if r + 1 < rn:
            out.append((f"random_{tag}_k{r + 1}", random_subspace(tower, r, r + 1, rng)))
        if n + h + 1 < rn:
            out.append((f"above_{tag}_k{n + h + 1}",
                        random_subspace(tower, r, n + h + 1, rng)))
        out.append((f"zero_{tag}", FqSubspace.zero(tower, r)))
        out.append((f"full_{tag}", random_subspace(tower, r, rn, rng)))
    return out


DUAL_INPUTS = _dual_grid_inputs()


@pytest.mark.parametrize("label,U", DUAL_INPUTS, ids=[x[0] for x in DUAL_INPUTS])
def test_hyperplane_route_matches_the_definition_scan(label, U, monkeypatch):
    h = U.r - 1
    want = definition_excess(U, h)
    monkeypatch.setattr(subspaces, "enumerate_subspaces", None)   # the route is the dual's
    assert sorted(excess_iter(U, h)) == want
    assert is_h_scattered(U, h) == (U.spans_ambient() and not want)


def test_dual_grid_reaches_every_verdict():
    verdicts = Counter((U.r, is_h_scattered(U, U.r - 1), not U.spans_ambient())
                       for _, U in DUAL_INPUTS)
    for r in (3, 4):
        assert verdicts[r, True, False] and verdicts[r, False, False] and verdicts[r, False, True]


def test_hyperplane_budget_of_the_definition_scan_still_suffices():
    """The definition scan counted θ_{r-1}(q^n) hyperplanes, as many as the
    point scan of U^⊥' counts points, so that budget still runs one engine;
    below both engines' counts the chosen one refuses in its own unit."""
    for label, U in DUAL_INPUTS:
        h, Q, rn = U.r - 1, U.tower.mid.order, U.r * U.tower.n
        cap = theta(U.r - 1, Q)
        if cap > DUAL_EXTRAS_LIMIT:
            continue
        want = sorted(excess_iter(U, h))
        assert sorted(excess_iter(U, h, budget=cap)) == want, label
        assert is_h_scattered(U, h, budget=cap) == is_h_scattered(U, h), label
        walk = theta(rn - U.k - 1, U.tower.q)
        if walk:
            unit = "subspace F_q-points" if _walks(U.tower, U.r, rn - U.k) else (
                "projective points")
            with pytest.raises(BudgetExceeded, match=unit):
                list(excess_iter(U, h, budget=min(cap, walk) - 1))


def test_middle_h_keeps_the_definition_scan(monkeypatch):
    # at 2 <= h <= r - 2 the dual side has as many subspaces, so excess_iter
    # still meets U with every h-dim W; here r = 4, h = 2 over F_4
    tower = _tower(2, 2)
    U = _spanning(tower, 4, 6, random.Random(4))
    want = definition_excess(U, 2)
    assert want
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_subspaces(*args, **kwargs)

    monkeypatch.setattr(subspaces, "ordinary_dual", None)
    monkeypatch.setattr(subspaces, "enumerate_subspaces", counted)
    assert sorted(excess_iter(U, 2)) == want
    assert not is_h_scattered(U, 2)
    assert calls == [(4, 2, tower.mid)] * 2


def test_scatteredness_exits_before_any_scan_when_k_forces_a_violation(monkeypatch):
    # every h-dim W meets U in at least k - (r - h)·n; above h no scan runs
    monkeypatch.setattr(subspaces, "excess_iter", None)
    forced = [(label, h) for label, U in DUAL_INPUTS for h in range(1, U.r)
              if U.k - (U.r - h) * U.tower.n > h]
    assert len(forced) > 10
    inputs = dict(DUAL_INPUTS)
    assert not any(is_h_scattered(inputs[label], h) for label, h in forced)


def test_spectrum_refuses_near_misses_as_not_maximum():
    # at h = r - 1 the verdict comes from the hyperplane counts: a near miss
    # is a usage error (exit 2), not a weight escaping the window
    inputs = dict(DUAL_INPUTS)
    for label in ("near_miss0_q2_r3_n4", "near_miss0_q3_r3_n3", "near_miss0_q2_r4_n4"):
        U = inputs[label]
        assert U.k == U.tower.n and not is_h_scattered(U, U.r - 1)
        with pytest.raises(NotMaxScattered, match="not h-scattered"):
            hyperplane_spectrum(U, U.r - 1)
    for label in ("pseudoregulus_q2_r3_n4", "pseudoregulus_q3_r3_n3"):
        U = inputs[label]
        assert sum(hyperplane_spectrum(U).values()) == theta(U.r - 1, U.tower.mid.order)
