"""Scatteredness predicates, iota, ordinary and Delsarte dualities."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ranklab.errors import (
    DimensionMismatch,
    InternalInvariantError,
    InvalidParams,
    PreconditionHyperplaneWeight,
)
from ranklab.fields import make_tower
from ranklab import subspaces
from ranklab.fqlinalg import (
    Mat,
    RowReducer,
    SubspaceBasis,
    kernel,
    mat_inverse,
    mat_mul,
    rref,
    store_digits,
    store_row,
    unpack_row,
)
from ranklab.subspaces import (
    Characterization,
    DimBound,
    FqSubspace,
    characterize_max_h_scattered,
    check_dimension_bound,
    delsarte_double_dual,
    delsarte_dual,
    iota,
    is_h_scattered,
    max_hyperplane_weight,
    ordinary_dual,
    random_subspace,
)
from ranklab.constructions import pseudoregulus_subspace
from ranklab.fixtures import remark_counterexample, subgeometry_3_3

from oracles import base_vec_to_mid, flatten_vec, gram_dual, unflatten_vec


def line_vectors(tower, v):
    """g^j·v for j < n: an F_q-basis of <v>_{F_{q^n}}."""
    g = tower.mid.gen
    w = list(v)
    for _ in range(tower.n):
        yield tuple(w)
        w = [tower.mid.mul(g, c) for c in w]


def full_line(tower, r, v):
    """<v>_{F_{q^n}} as an FqSubspace (n-dimensional over F_q)."""
    return FqSubspace.from_mid_vectors(tower, r, line_vectors(tower, v))


def fqn_flat(tower, W):
    """The F_{q^n}-subspace W (a mid basis) as a flat F_q-subspace."""
    return FqSubspace.from_mid_vectors(
        tower, W.ambient, [u for v in W.rows for u in line_vectors(tower, v)])


def meet_dim(A, B):
    """dim(A ∩ B) = dim A + dim B - dim(A + B), with A + B in RREF afresh."""
    return A.dim + B.dim - A.sum(B).dim


def test_from_mid_vectors_reads_an_iterator_once(t2_4):
    g = t2_4.mid.gen
    vs = [(1, 0), (g, 0), (0, 1)]
    U = FqSubspace.from_mid_vectors(t2_4, 2, vs)
    assert U.k == 3
    assert FqSubspace.from_mid_vectors(t2_4, 2, iter(vs)) == U
    assert FqSubspace.from_mid_vectors(t2_4, 2, (v for v in vs)) == U


# F_16 over F_2 and F_4, F_27 over F_3: (p, e, n)
TOWERS_16_27 = [(2, 1, 4), (2, 2, 2), (3, 1, 3)]


@pytest.mark.parametrize("p, e, n", TOWERS_16_27)
def test_from_mid_vectors_refuses_codes_outside_the_mid_field(p, e, n):
    """A coordinate outside 0..q^n - 1 is refused, not cut to its n low
    digits (which made [(16, 0), (1, 17)] span (1, 1) over F_16) and not
    spilled into the next coordinate of a packed row."""
    tower = make_tower(p, e, n, 1)
    order = tower.mid.order
    for vectors in ([(order, 0), (1, order + 1)], [(1, order)], [(0, -1)],
                    [(1, 0), (order * order + 1, 1)]):
        with pytest.raises(InvalidParams, match=f"outside 0..{order - 1}"):
            FqSubspace.from_mid_vectors(tower, 2, vectors)
    # the extremes of the range are kept, digit for digit
    vectors = [(order - 1, 0), (1, order - 1), (0, 1)]
    want = SubspaceBasis.from_vectors(tower.base, 2 * n, [flatten_vec(tower, v)
                                                           for v in vectors])
    assert FqSubspace.from_mid_vectors(tower, 2, vectors).flat == want


# -- iota ------------------------------------------------------------------


def test_iota_pseudoregulus_is_one(pseudoreg):
    assert iota(pseudoreg) == 1


def test_iota_of_a_full_line_is_n(t2_4):
    L = full_line(t2_4, 2, (1, t2_4.mid.gen))
    assert L.k == 4
    assert iota(L) == 4


def test_iota_zero_subspace(t2_4):
    assert iota(FqSubspace.zero(t2_4, 2)) == 0


def test_iota_brute_force_oracle(t2_4):
    # oracle: for every one of the 17 lines intersect in flat coordinates
    U = pseudoregulus_subspace(t2_4, 2, 4, 1)
    from ranklab.fqlinalg import projective_points

    best = 0
    for v in projective_points(t2_4.mid, 2):
        L = full_line(t2_4, 2, v)
        best = max(best, meet_dim(U.flat, L.flat))
    assert best == iota(U) == 1


# -- h-scatteredness ----------------------------------------------------------


def test_pseudoregulus_is_scattered(pseudoreg):
    assert is_h_scattered(pseudoreg, 1)


def test_single_line_does_not_span(t2_4):
    L = full_line(t2_4, 2, (1, 0))
    assert not is_h_scattered(L, 1)


def test_subgeometry_is_2_scattered():
    U = subgeometry_3_3()
    assert U.k == 3
    assert is_h_scattered(U, 2)


def test_h_gate(t2_4, pseudoreg):
    with pytest.raises(InvalidParams):
        is_h_scattered(pseudoreg, 0)
    with pytest.raises(InvalidParams):
        is_h_scattered(pseudoreg, 2)


def test_dimension_bound_classification(t2_4, pseudoreg):
    assert check_dimension_bound(pseudoreg, 1) is DimBound.WITHIN_BOUND
    assert check_dimension_bound(subgeometry_3_3(), 2) is DimBound.SUBGEOMETRY
    # U = V exceeds the rn/(h+1) bound of an h-scattered U: a broken
    # invariant upstream, not a class
    V = random_subspace(t2_4, 2, 8, random.Random(0))
    with pytest.raises(InternalInvariantError, match="got k=8, h=1, rn=8"):
        check_dimension_bound(V, 1)


# -- hyperplane weights ---------------------------------------------------------


def test_max_hyperplane_weight_pseudoregulus(pseudoreg):
    # r=2: hyperplanes are the lines, so this equals iota here
    assert max_hyperplane_weight(pseudoreg) == 1


def test_max_hyperplane_weight_contained_case(t2_4):
    # U inside the hyperplane x_1 = 0 has a hyperplane of weight k
    U = FqSubspace.from_mid_vectors(t2_4, 2, [(1, 0), (t2_4.mid.gen, 0)])
    assert max_hyperplane_weight(U) == U.k == 2


def test_hyperplane_weight_window_theorem(pseudoreg):
    # weights of a maximum h-scattered subspace lie in [k-n, k-n+h]
    from ranklab.subspaces import hyperplane_weight_iter

    k, n, h = pseudoreg.k, 4, 1
    for _, wt in hyperplane_weight_iter(pseudoreg):
        assert k - n <= wt <= k - n + h


# -- ordinary duality ----------------------------------------------------------


def test_ordinary_dual_exhaustive_smallest_case():
    # every subspace of F_2^4 (q=2, n=2, r=2): involution and dimensions
    t = make_tower(2, 1, 2, 1)
    from ranklab.fqlinalg import enumerate_subspaces

    for d in range(5):
        for S in enumerate_subspaces(4, d, t.base):
            U = FqSubspace.from_flat(t, 2, [list(v) for v in S.rows])
            D = ordinary_dual(U)
            assert D.k == 4 - U.k
            assert ordinary_dual(D) == U


@given(st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_ordinary_dual_randomized(k, seed):
    t = make_tower(2, 1, 4, 1)
    U = random_subspace(t, 2, k, random.Random(seed))
    D = ordinary_dual(U)
    assert D.k == 8 - k
    assert ordinary_dual(D) == U


def test_fqn_subspace_dual_is_fqn_kernel(t2_4):
    # W^perp = W^{perp'} for F_{q^n}-subspaces W: the flat dual of the
    # flattened hyperplane equals the flattened mid-kernel line
    W = SubspaceBasis.from_vectors(t2_4.mid, 2, [[1, t2_4.mid.gen]])
    Wflat = fqn_flat(t2_4, W)
    lhs = ordinary_dual(Wflat)
    Wperp = kernel(Mat.from_rows(t2_4.mid, [[1, t2_4.mid.gen]], 2))
    rhs = fqn_flat(t2_4, Wperp)
    assert lhs == rhs


def dual_weight_identity_check(U, W):
    """dim(U^{⊥'} ∩ W^{⊥'}) - dim(U ∩ W) = rn - dim U - s·n, for the s-dim
    F_{q^n}-subspace W of the same ambient, each meet by subspaces._meet_dims."""
    tower, r, n = U.tower, U.r, U.tower.n
    assert W.ambient == r
    Wperp = kernel(Mat.from_rows(tower.mid, W.rows, r)).rows
    meet = subspaces._meet_dims
    lhs = next(meet(ordinary_dual(U), [Wperp])) - next(meet(U, [W.rows]))
    return lhs == r * n - U.k - W.dim * n


def test_dual_weight_identity_degenerate_and_random(t2_4):
    rng = random.Random(11)
    full = FqSubspace.from_flat(
        t2_4, 2, [[1 if i == j else 0 for j in range(8)] for i in range(8)])
    W = SubspaceBasis.from_vectors(t2_4.mid, 2, [[1, 0]])
    assert dual_weight_identity_check(full, W)
    V_as_W = SubspaceBasis.from_vectors(t2_4.mid, 2, [[1, 0], [0, 1]])
    for _ in range(15):
        U = random_subspace(t2_4, 2, rng.randrange(9), rng)
        w = [rng.randrange(16), rng.randrange(16)]
        if not any(w):
            w = [1, 0]
        assert dual_weight_identity_check(
            U, SubspaceBasis.from_vectors(t2_4.mid, 2, [w]))
        assert dual_weight_identity_check(U, V_as_W)


PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("q", sorted(PRIME_POWER))
def test_trace_gram_is_the_trace_form(q, n):
    tower = make_tower(*PRIME_POWER[q], n, 1)
    mid = tower.mid
    g = mid.gen if n > 1 else 1
    want = [[tower.trace_to_base("mid", mid.pow(g, j + l)) for l in range(n)]
            for j in range(n)]
    assert subspaces._trace_gram(tower).data == want


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (9, 2)])
def test_trace_gram_is_built_once_per_tower(q, n, monkeypatch):
    tower = make_tower(*PRIME_POWER[q], n, 1)
    calls = []
    trace = type(tower).trace_to_base
    monkeypatch.setattr(type(tower), "trace_to_base",
                        lambda self, *a: calls.append(a) or trace(self, *a))
    subspaces._trace_gram.cache_clear()
    subspaces._gram_blocks.cache_clear()
    rng = random.Random(q)
    for k in (1, n, 2 * n - 1):
        U = random_subspace(tower, 2, k, rng)
        assert ordinary_dual(ordinary_dual(U)) == U
    assert 0 < len(calls) <= 2 * n - 1


@pytest.mark.parametrize("q, r, n", [(2, 2, 4), (3, 2, 3), (4, 3, 2), (5, 2, 2), (9, 2, 2)])
def test_ordinary_dual_is_canonical_and_orthogonal(q, r, n):
    tower = make_tower(*PRIME_POWER[q], n, 1)
    mid, rng = tower.mid, random.Random(r * n + q)
    for k in range(r * n + 1):
        U = random_subspace(tower, r, k, rng)
        D = ordinary_dual(U)
        assert D.k == r * n - k
        again = SubspaceBasis.from_vectors(tower.base, r * n, D.flat.rows)
        assert (D.flat.rows, D.flat.pivots) == (again.rows, again.pivots)
        assert D == FqSubspace.from_mid_vectors(tower, r, D.basis_mid)
        for u in U.basis_mid:
            for v in D.basis_mid:
                dot = 0
                for x, y in zip(u, v):
                    dot = mid.add(dot, mid.mul(x, y))
                assert tower.trace_to_base("mid", dot) == 0


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("q", sorted(PRIME_POWER))
def test_stored_row_codec_and_dual_match_the_replaced_formulas(q, r):
    """Over n = 1, 2, 3 and every k in 0..rn: from_mid_vectors equals the
    RREF of the base-q digit rows (oracles.flatten_vec), basis_mid their
    read-back (oracles.unflatten_vec), spans_ambient the rank of all mid
    rows, and ordinary_dual the null space of the Gram products
    (oracles.gram_dual), in stored rows and pivots."""
    rng = random.Random(10 * q + r)
    for n in (1, 2, 3):
        tower = make_tower(*PRIME_POWER[q], n, 1)
        base, rn, order = tower.base, r * n, tower.mid.order
        for k in range(rn + 1):
            U = random_subspace(tower, r, k, rng)
            mids = [tuple(rng.randrange(order) for _ in range(r)) for _ in range(k)]
            for vectors in (U.basis_mid, mids):
                want = SubspaceBasis.from_vectors(base, rn, [flatten_vec(tower, v)
                                                             for v in vectors])
                got = FqSubspace.from_mid_vectors(tower, r, vectors).flat
                assert (got.stored, got.pivots) == (want.stored, want.pivots), (n, k)
            mid_rows = tuple(unflatten_vec(tower, row) for row in U.flat.rows)
            assert U.basis_mid == mid_rows
            assert U.spans_ambient() is (RowReducer(tower.mid, r).add_all(mid_rows) == r)
            D, want = ordinary_dual(U).flat, gram_dual(U)
            assert (D.stored, D.pivots) == (want.stored, want.pivots), (n, k)


@pytest.mark.parametrize("p, e, n, r, k", [(2, 1, 4, 2, 5), (3, 1, 3, 2, 4), (2, 2, 3, 3, 5)])
def test_mid_basis_is_read_back_on_demand(p, e, n, r, k, monkeypatch):
    """Only the flat basis is stored: building U, its ordinary dual and a
    walk of its points read no row back (fqlinalg.digit_rows); the first
    read of basis_mid reads each of the k stored rows once, in order, and
    the second none.  calls holds each stored row read, as its codes."""
    tower = make_tower(p, e, n, 1)
    rows = random_subspace(tower, r, k, random.Random(k)).flat.rows
    want = tuple(tuple(base_vec_to_mid(tower, row[i * n:(i + 1) * n]) for i in range(r))
                 for row in rows)
    calls = []
    digit_rows = subspaces.digit_rows

    def counted(F, deg, ncols):
        read = digit_rows(F, deg, ncols)

        def each(stored):
            for row in stored:
                calls.append(tuple(unpack_row(F, row, deg * ncols)))
                yield from read((row,))
        return each
    monkeypatch.setattr(subspaces, "digit_rows", counted)
    U = FqSubspace.from_flat(tower, r, rows)
    ordinary_dual(U)
    subspaces.point_weight_counts(U)
    assert calls == []
    assert U.basis_mid == want and calls == list(rows)
    assert U.basis_mid == want and len(calls) == k


@pytest.mark.parametrize("p, e", [(2, 1), (3, 2)])
def test_duals_of_the_zero_subspace(p, e):
    # the kernel of the 0-row matrix is the whole space: no special case
    tower = make_tower(p, e, 2, 1)
    Z = FqSubspace.zero(tower, 2)
    full = ordinary_dual(Z)
    assert full.k == 4 and ordinary_dual(full) == Z
    zero_W = SubspaceBasis.zero(tower.mid, 2)
    g = tower.mid.gen
    U = FqSubspace.from_mid_vectors(tower, 2, [(1, g), (g, 1)])
    for S in (Z, full, U):
        assert dual_weight_identity_check(S, zero_W)


# -- Delsarte duality ------------------------------------------------------------


def test_delsarte_dual_of_pseudoregulus(pseudoreg):
    data = delsarte_dual(pseudoreg)
    assert data.dual.k == 4 and data.dual.r == 2
    # scatteredness transfer: (n-h-2)-scattered with n=4, h=1 means 1-scattered
    assert is_h_scattered(data.dual, 1)


def test_delsarte_double_dual_recovers_input(pseudoreg):
    data = delsarte_dual(pseudoreg)
    assert delsarte_double_dual(data) == pseudoreg


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2)])
def test_delsarte_double_dual_recovers_input_off_q2(p, e):
    U = pseudoregulus_subspace(make_tower(p, e, 3, 1), 2, 3, 1)
    data = delsarte_dual(U)
    assert (data.dual.r, data.dual.k) == (1, 3)
    assert delsarte_double_dual(data) == U


def scanned_n_block(tower, M):
    """The first N with F_q entries, counting its k·(k-r) entries as base-q
    digits with entry 0 least significant, making [M|N] invertible."""
    k, w = M.rows, M.rows - M.cols
    for high_first in itertools.product(range(tower.base.order), repeat=k * w):
        digits = high_first[::-1]
        N = Mat.from_rows(tower.mid, [digits[i * w:(i + 1) * w] for i in range(k)], w)
        if RowReducer(tower.mid, k).add_all(M.data[i] + N.data[i] for i in range(k)) == k:
            return N
    raise AssertionError("no F_q-entry completion")


def gram_oracle_dual_matrix(T, r):
    """The dual's k x (k-r) matrix by the Gram construction: Gram matrix
    T^{-1}·T^{-T} of beta, Γ^⊥ as the kernel of Γ's rows times it, and the
    rows of T mapped by a basis of the kernel of Γ^⊥'s rows."""
    F, k = T.field, T.rows
    Tinv = mat_inverse(T)
    gram = mat_mul(Tinv, Tinv.transpose())
    assert gram.data == gram.transpose().data and rref(gram)[1] == k
    gamma = Mat.from_rows(F, Mat.identity(F, k).data[r:], k)
    gamma_perp = kernel(mat_mul(gamma, gram))
    assert gamma_perp.dim == r
    proj = Mat.from_rows(F, kernel(Mat.from_rows(F, gamma_perp.rows, k)).rows, k)
    return mat_mul(T, proj.transpose())


def same_column_space(*mats):
    """True iff the k x w matrices each have rank w and together still rank
    w: each is the first times an invertible w x w matrix."""
    F, k, w = mats[0].field, mats[0].rows, mats[0].cols
    cols = [list(map(tuple, A.transpose().data)) for A in mats]
    return (all(RowReducer(F, k).add_all(c) == w for c in cols)
            and RowReducer(F, k).add_all(itertools.chain(*cols)) == w)


def delsarte_inputs(tower, rng):
    """The pseudoregulus of F_{q^3}^2 (k - r = 1), and a random k = 4
    subspace of it meeting every hyperplane in dimension < 3 (k - r = 2)."""
    yield pseudoregulus_subspace(tower, 2, 3, 1)
    while max_hyperplane_weight(U := random_subspace(tower, 2, 4, rng)) >= 3:
        pass
    yield U


DELSARTE_TOWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("p, e", DELSARTE_TOWERS)
def test_delsarte_dual_matches_gram_oracle(p, e):
    """K, the kernel of Mᵀ, against the Gram construction on T = [M|N] for
    the scanned N and against the rows of T⁻¹ below row r (transposed): the
    same column space, so the same dual up to GL(k - r, q^n)."""
    tower = make_tower(p, e, 3, 1)
    for U in delsarte_inputs(tower, random.Random(p * 10 + e)):
        r, k, mid = U.r, U.k, tower.mid
        M = U.mid_matrix()
        N = scanned_n_block(tower, M)
        T = Mat.from_rows(mid, [M.data[i] + N.data[i] for i in range(k)])
        lower = Mat.from_rows(mid, mat_inverse(T).data[r:], k).transpose()
        data = delsarte_dual(U)
        assert (data.K.rows, data.K.cols) == (k, k - r)
        assert not any(map(any, mat_mul(data.K.transpose(), M).data))
        assert same_column_space(data.K, gram_oracle_dual_matrix(T, r), lower)
        assert data.dual == FqSubspace.from_mid_vectors(tower, k - r, data.K.data)
        assert delsarte_double_dual(data) == U


@pytest.mark.parametrize("p, e", DELSARTE_TOWERS)
def test_delsarte_double_dual_of_a_foreign_kernel_is_not_u(p, e):
    """The double dual reads U's basis through the kernel of Kᵀ, so the K of
    another subspace of the same (r, k), with another left kernel, gives a
    subspace other than U."""
    tower = make_tower(p, e, 3, 1)
    rng = random.Random(p * 10 + e + 1)
    U, V = (list(delsarte_inputs(tower, rng))[1] for _ in range(2))
    data, other = delsarte_dual(U), delsarte_dual(V)
    assert not same_column_space(data.K, other.K)
    foreign = subspaces.DelsarteDualData(U=U, K=other.K, dual=other.dual)
    assert delsarte_double_dual(foreign) != U
    assert delsarte_double_dual(data) == U


def test_delsarte_precondition_gate(t2_4):
    # k = 3 > r = 2 but the hyperplane x_2 = 0 meets U in dimension k-1
    g = t2_4.mid.gen
    U = FqSubspace.from_mid_vectors(t2_4, 2, [(1, 0), (g, 0), (0, 1)])
    assert U.k == 3
    assert max_hyperplane_weight(U) == U.k - 1
    with pytest.raises(PreconditionHyperplaneWeight):
        delsarte_dual(U)


def test_delsarte_needs_k_greater_than_r(t2_4):
    U = FqSubspace.from_mid_vectors(t2_4, 2, [(1, 0), (0, 1)])
    with pytest.raises((InvalidParams, PreconditionHyperplaneWeight)):
        delsarte_dual(U)


# -- characterizations ------------------------------------------------------------


def test_characterization_pseudoregulus(pseudoreg):
    ch = characterize_max_h_scattered(pseudoreg, 1)
    assert ch == Characterization(True, True, True)
    assert len(set(ch)) == 1


def test_characterization_non_scattered_example(t2_4):
    # F_2-span containing an F_4-line of weight 2 inside F_16^2
    mid = t2_4.mid
    omega = mid.pow(mid.gen, 5)  # a cube root of unity, generating F_4
    U = FqSubspace.from_mid_vectors(
        t2_4, 2, [(1, 0), (omega, 0), (0, 1), (0, omega)])
    assert U.k == 4
    ch = characterize_max_h_scattered(U, 1)
    assert (ch.via_definition, ch.via_hyperplanes, ch.via_dual_points) == (False,) * 3


@pytest.mark.parametrize("k", [-1, -5, 9])
def test_random_subspace_refuses_k_outside_0_to_rn(t2_4, k):
    # a negative k once looped for ever, waiting for U.k == k
    with pytest.raises(DimensionMismatch, match="0 <= k <= rn = 8"):
        random_subspace(t2_4, 2, k, random.Random(0))


def test_characterization_dimension_gate(t2_4):
    U = remark_counterexample()
    with pytest.raises(DimensionMismatch):
        characterize_max_h_scattered(U, 1)


def test_remark_counterexample_behaviour():
    # 1-scattered of dimension k < rn/2, yet its own hyperplane bound fails
    U = remark_counterexample()
    n, h = U.tower.n, 1
    assert U.k < U.r * n // 2
    assert is_h_scattered(U, h)
    assert max_hyperplane_weight(U) > U.k - n + h


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_characterization_three_way_agreement_random(seed):
    # n = 4 >= h+3 = 4: the three predicates agree on arbitrary 4-dim inputs
    t = make_tower(2, 1, 4, 1)
    U = random_subspace(t, 2, 4, random.Random(seed))
    ch = characterize_max_h_scattered(U, 1)
    assert len(set(ch)) == 1


@pytest.mark.parametrize("q, r, n, h", [(2, 2, 4, 1), (3, 2, 4, 1), (2, 3, 4, 2), (4, 2, 2, 1),
                                        (9, 2, 2, 1)])
def test_hyperplane_and_dual_point_flags_are_one_predicate(q, r, n, h):
    # max_H dim(U ∩ H) = ι(U^⊥') + k - n: the two flags read one scan
    tower = make_tower(*PRIME_POWER[q], n, 1)
    rng = random.Random(q * 100 + r * 10 + n)
    k = r * n // (h + 1)
    for U in [pseudoregulus_subspace(tower, r, n, h)] + [
            random_subspace(tower, r, k, rng) for _ in range(6)]:
        ch = characterize_max_h_scattered(U, h)
        assert ch.via_hyperplanes == (max_hyperplane_weight(U) <= k - n + h)
        assert ch.via_dual_points == (iota(ordinary_dual(U)) <= h)
        assert ch.via_hyperplanes == ch.via_dual_points


def test_characterization_builds_one_dual_for_both_flags(pseudoreg, monkeypatch):
    # h = 1: via_definition reads U's own points, the two flags one U^⊥'
    duals = []
    dual = subspaces.ordinary_dual
    monkeypatch.setattr(subspaces, "ordinary_dual", lambda U: duals.append(U) or dual(U))
    assert len(set(characterize_max_h_scattered(pseudoreg, 1))) == 1
    assert duals == [pseudoreg]


# -- direct sums ------------------------------------------------------------------


def direct_sum(U1, U2):
    """Block-diagonal sum of U1 and U2 inside F_{q^n}^{r1+r2}."""
    vecs = [tuple(v) + (0,) * U2.r for v in U1.basis_mid]
    vecs += [(0,) * U1.r + tuple(v) for v in U2.basis_mid]
    return FqSubspace.from_mid_vectors(U1.tower, U1.r + U2.r, vecs)


def test_direct_sum_dimensions(t2_4, pseudoreg):
    rng = random.Random(2)
    A = random_subspace(t2_4, 2, 4, rng)
    B = random_subspace(t2_4, 1, 3, rng)
    S = direct_sum(A, B)
    assert (S.r, S.k) == (3, 7)


def test_direct_sum_with_zero_pads(t2_4, pseudoreg):
    Z = FqSubspace.zero(t2_4, 1)
    S = direct_sum(pseudoreg, Z)
    assert (S.r, S.k) == (3, 4)
    assert all(v[2] == 0 for v in S.basis_mid)


def test_direct_sum_of_pseudoreguli_is_scattered(t2_4, pseudoreg):
    S = direct_sum(pseudoreg, pseudoreg)
    assert (S.r, S.k) == (4, 8)
    assert is_h_scattered(S, 1)


def test_iota_below_n_iff_no_full_line():
    # exhaustive over all 2-dim subspaces of F_4^2 (q=2, n=2, r=2)
    t = make_tower(2, 1, 2, 1)
    from ranklab.fqlinalg import enumerate_subspaces, projective_points

    lines = [full_line(t, 2, v) for v in projective_points(t.mid, 2)]
    for S in enumerate_subspaces(4, 2, t.base):
        U = FqSubspace.from_flat(t, 2, [list(v) for v in S.rows])
        contains_line = any(all(map(U.flat.contains, L.flat.rows)) for L in lines)
        assert (iota(U) < 2) == (not contains_line)


def test_spanning_subspace_hyperplane_weight_below_k(pseudoreg):
    # no hyperplane contains a spanning U, so weights stay <= k-1
    assert pseudoreg.spans_ambient()
    assert max_hyperplane_weight(pseudoreg) <= pseudoreg.k - 1


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2), (2, 3, 2),
                                   (3, 2, 2)])
def test_spans_ambient_matches_the_rank_of_all_mid_rows(p, e, n):
    # spans_ambient stops adding rows at rank r; the oracle ranks them all,
    # on spanning U, on U inside the hyperplane x_0 = 0, and on k < r
    t, rng = make_tower(p, e, n, 1), random.Random(p * 100 + e * 10 + n)
    order = t.mid.order
    seen = set()
    for r in (2, 3):
        for k in range(1, r * n + 1):
            for inside in (False, True):
                vecs = [[0 if inside and i == 0 else rng.randrange(order) for i in range(r)]
                        for _ in range(k)]
                U = FqSubspace.from_mid_vectors(t, r, vecs)
                want = rref(U.mid_matrix())[1] == r
                assert U.spans_ambient() is want, (r, k, inside)
                seen.add((want, U.k < r))
    assert seen == {(True, False), (False, False), (False, True)}
    # the zero subspace spans V only at r = 0, where it has no row to read
    assert FqSubspace.zero(t, 0).spans_ambient() and not FqSubspace.zero(t, 2).spans_ambient()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_flat_stored_rows_are_their_own_digit_rows_at_e_1(p):
    """At e = 1 the walk takes U.flat.stored for its rows: store_digits of
    a flat row over F_p at deg 1 is the stored row (store_row), at every
    width up to 22."""
    F, rng = make_tower(p, 1, 1, 1).base, random.Random(p)
    for width in range(1, 23):
        for k in (1, width // 2 + 1, width):
            B = SubspaceBasis.from_vectors(F, width, [[rng.randrange(p) for _ in range(width)]
                                                      for _ in range(k)])
            for row, stored in zip(B.rows, B.stored):
                assert store_digits(F, row, 1) == stored == store_row(F, row), (width, row)


def test_is_h_scattered_against_zassenhaus_oracle(t2_4):
    # oracle: rebuild the predicate from the Zassenhaus count dim(A ∩ B) =
    # dim A + dim B - dim(A + B) (a different elimination path than the
    # cloned reducer of is_h_scattered)
    from ranklab.fqlinalg import enumerate_subspaces, rref, Mat

    def oracle(U, h):
        spans = rref(U.mid_matrix())[1] == U.r if U.k else U.r == 0
        if not spans:
            return False
        for H in enumerate_subspaces(U.r, h, t2_4.mid):
            if meet_dim(U.flat, fqn_flat(t2_4, H).flat) > h:
                return False
        return True

    rng = random.Random(31)
    for _ in range(30):
        U = random_subspace(t2_4, 2, rng.randrange(0, 6), rng)
        if U.k == 0:
            continue
        assert is_h_scattered(U, 1) == oracle(U, 1)


def test_delsarte_transfer_into_three_dim_ambient():
    # n=5, h=1: the dual of a maximum scattered subspace of F_32^2 must be
    # (n-h-2) = 2-scattered in the quotient V(k-r, q^n) = V(3, 32)
    t = make_tower(2, 1, 5, 1)
    from ranklab.constructions import random_scattered_search

    res = random_scattered_search(t, 2, 1, 5, seed=0, max_evals=3000)
    assert res.found
    data = delsarte_dual(res.subspace)
    assert (data.dual.r, data.dual.k) == (3, 5)
    assert is_h_scattered(data.dual, 2)
    assert delsarte_double_dual(data) == res.subspace


def test_delsarte_transfer_on_search_witnesses(t2_4):
    # the transfer + double dual across many distinct maximum scattered
    # subspaces found by seeded search
    from ranklab.constructions import random_scattered_search

    checked = 0
    for seed in range(12):
        res = random_scattered_search(t2_4, 2, 1, 4, seed=seed, max_evals=150)
        if not res.found:
            continue
        data = delsarte_dual(res.subspace)
        assert is_h_scattered(data.dual, 1)
        assert delsarte_double_dual(data) == res.subspace
        checked += 1
    assert checked >= 3
