"""C_{U,G} certified from L_U against the rankcodes scans.

C_{U,G} carries U (RankCode.attach), and its rank distribution is read off
the point weights of L_U (rank Γ_v = n - w(<v>)).  The oracle is the same
code rebuilt from its basis alone, whose distribution comes from the
codeword walk or the subspace count; it shares no code with the point-weight
walk.  The geometric engine is forced, with both scans patched to raise, on
every input.
"""

import random

import pytest

from ranklab import rankcodes, subspaces
from ranklab.constructions import c_ug, pseudoregulus_subspace
from ranklab.errors import InternalInvariantError
from ranklab.fields import make_tower
from ranklab.fixtures import certified_new_witness
from ranklab.fqlinalg import Mat, SubspaceBasis, basis_codes, rref, vec_mat
from ranklab.rankcodes import GabidulinExclusion, Side, gabidulin_family_exclusion, right_idealiser
from ranklab.subspaces import FqSubspace, iota, ordinary_dual, random_subspace

from oracles import mult_matrix

PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}
# (q, r, n): every q with r = 2 and r = 3.  n >= 3 admits weights 2..n-1 and
# is kept where the rankcodes scans of the oracle stay cheap; at r = 3 and
# q >= 5 that leaves n = 2, where every valid U has iota <= 1.
GRID = [(2, 2, 4), (3, 2, 4), (4, 2, 3), (5, 2, 3), (8, 2, 3), (9, 2, 3),
        (2, 3, 4), (3, 3, 3), (4, 3, 3), (5, 3, 2), (8, 3, 2), (9, 3, 2)]


def _seeded_image(U, rng):
    """U·A for a seeded A in GL(r, q^n), which keeps every point weight."""
    mid = U.tower.mid
    while True:
        A = Mat.from_rows(mid, [[rng.randrange(mid.order) for _ in range(U.r)]
                                for _ in range(U.r)], U.r)
        if rref(A)[1] == U.r:
            break
    return FqSubspace.from_mid_vectors(
        U.tower, U.r, [vec_mat(list(v), A) for v in U.basis_mid])


def _random_with_iota(tower, r, k, rng, lo, hi, heavy=0):
    """A random k-dim U with lo <= iota(U) <= hi, through v, g·v, ...,
    g^{heavy-1}·v for a random v when heavy > 0."""
    mid, g = tower.mid, tower.mid.gen
    while True:
        vecs = []
        if heavy:
            v = [rng.randrange(mid.order) for _ in range(r)]
            for _ in range(heavy):
                vecs.append(tuple(v))
                v = [mid.mul(g, c) for c in v]
        vecs += [tuple(rng.randrange(mid.order) for _ in range(r))
                 for _ in range(k - len(vecs))]
        U = FqSubspace.from_mid_vectors(tower, r, vecs)
        if U.k == k and lo <= iota(U) <= hi:
            return U


def _grid_inputs():
    """(label, U): per cell a seeded pseudoregulus image (h = r - 1 < n), a
    random non-scattered U with iota >= 2 (n >= 3), a U of dimension 1 (points
    of weight 0, so A_n > 0) and, for r < n, a U of dimension (r-1)n + 1
    (m < n).  At r >= n every U of that dimension holds a full F_{q^n}-line:
    the n - 1 functionals cutting it out vanish on λv for all λ on an
    F_q-subspace of v of dimension at least rn - n(n-1) > 0."""
    rng = random.Random(20261018)
    out = []
    for q, r, n in GRID:
        p, e = PRIME_POWER[q]
        tower = make_tower(p, e, n, 1)
        cell = f"q{q}_r{r}_n{n}"
        if r - 1 < n:
            U = _seeded_image(pseudoregulus_subspace(tower, r, n, r - 1), rng)
            out.append((f"pseudoregulus_{cell}", U))
        if n >= 3:
            out.append((f"heavy_{cell}", _random_with_iota(tower, r, n, rng, 2, n - 1, 2)))
        out.append((f"k1_{cell}", random_subspace(tower, r, 1, rng)))
        if r < n:
            out.append((f"fringe_{cell}",
                        _random_with_iota(tower, r, (r - 1) * n + 1, rng, 0, n - 1)))
    return out


INPUTS = _grid_inputs()


@pytest.mark.parametrize("label,U", INPUTS, ids=[x[0] for x in INPUTS])
def test_distribution_from_l_u_matches_the_scans(label, U, scanned, force_geometric):
    want = scanned(c_ug(U).code).rank_distribution()
    force_geometric()
    cug = c_ug(U)
    C, n = cug.code, U.tower.n
    dist = C.rank_distribution()
    assert C.subspace is U and dist == want, label
    assert cug.iota == iota(U) and C.min_distance() == n - cug.iota, label
    if label.startswith("k1_"):
        assert dist.A[n] > 0, label
    if label.startswith("fringe_"):
        assert C.m < n, label
    if label.startswith("heavy_"):
        assert cug.iota >= 2, label


@pytest.mark.parametrize("walk", [True, False], ids=["walk", "rankcodes-scan"])
def test_rank_distribution_prices_the_walk_once_and_runs_one_engine(walk, monkeypatch,
                                                                    force_walk):
    # c_ug's rank distribution lists U's point walk once, valued, next to
    # the rankcodes scans (the walk's own budget check prices it unvalued),
    # and runs the engine it picks, once
    force_walk(walk)
    priced, ran = [], []
    entry, fibers = subspaces._walk_entry, subspaces._walk_fibers
    monkeypatch.setattr(subspaces, "_walk_entry",
                        lambda U, *value: priced.append(value) or entry(U, *value))
    monkeypatch.setattr(subspaces, "_walk_fibers",
                        lambda U, *stop: ran.append(U) or fibers(U, *stop))
    U = pseudoregulus_subspace(make_tower(2, 1, 4, 1), 2, 4, 1)
    assert c_ug(U).iota == 1
    assert len([v for v in priced if v]) == 1 and ran == [U] * walk


def test_a_lost_point_in_the_fringe_is_an_internal_error(monkeypatch):
    # with m < n every point meets U, so a weight-0 remainder means the
    # walk lost a point
    label, U = next(x for x in INPUTS if x[0].startswith("fringe_q2"))
    walk = subspaces._walk_fibers

    def lose_a_point(U, *stop):
        fibers = walk(U, *stop)
        counts = next(c for c in fibers if c)
        del counts[next(iter(counts))]
        return fibers

    monkeypatch.setattr(subspaces, "_walk_fibers", lose_a_point)
    with pytest.raises(InternalInvariantError, match="weight below n - m"):
        c_ug(U)


@pytest.mark.parametrize("label,U", [x for x in INPUTS if x[0].startswith("heavy_")],
                         ids=[x[0] for x in INPUTS if x[0].startswith("heavy_")])
def test_cug_is_right_fqn_linear(label, U):
    # Γ_{λv} = Γ_v∘m_λ: every multiplication matrix lies in R(C_{U,G})
    tower = U.tower
    R = right_idealiser(c_ug(U).code)
    span = SubspaceBasis.from_vectors(tower.base, tower.n**2,
                                      [[x for row in Y for x in row] for Y in R.basis])
    for b in basis_codes(tower.mid, tower.base):
        assert span.contains([x for row in mult_matrix(tower, b).data for x in row]), label
    assert R.order >= tower.mid.order


def test_witness_pipeline_runs_no_rank_scan_and_one_idealiser(monkeypatch):
    def no_scan(C):
        raise AssertionError("a rankcodes scan ran on C_{U,G}")

    monkeypatch.setattr(rankcodes, "_subspace_counts", no_scan)
    monkeypatch.setattr(rankcodes, "_walk_counts", no_scan)
    walks = []
    walk = subspaces._walk_fibers
    monkeypatch.setattr(subspaces, "_walk_fibers",
                        lambda U, *stop: walks.append(U) or walk(U, *stop))
    calls = []
    idealiser = rankcodes._idealiser
    monkeypatch.setattr(rankcodes, "_idealiser",
                        lambda C, side: calls.append(side) or idealiser(C, side))
    D = ordinary_dual(certified_new_witness())
    cug = c_ug(D)
    C = cug.code
    assert cug.iota == 1 and C.min_distance() == 5 and C.is_mrd()
    R = right_idealiser(C)
    assert R.order == 2**6 and R.is_field
    assert gabidulin_family_exclusion(C, 3, 6, 1) is GabidulinExclusion.CERTIFIED_NEW
    assert calls == [Side.RIGHT] and walks == [D]


def test_memoised_idealiser_is_frozen(pseudoreg):
    C = c_ug(pseudoreg).code
    R = right_idealiser(C)
    assert right_idealiser(C) is R and isinstance(R.basis, tuple)
    with pytest.raises(AttributeError):
        R.order = 1
