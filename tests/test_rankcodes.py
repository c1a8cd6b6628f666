"""Rank-metric codes: distances, distributions, duals, idealisers,
puncturing and inequivalence certificates."""

import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ranklab.errors import (
    EmptyCode,
    HypothesisViolated,
    NotMRD,
    ParamMismatch,
    RankDeficientA,
    ShapeMismatch,
)
from ranklab.fields import Field, make_tower
from ranklab.fqlinalg import (
    Mat,
    RowReducer,
    SubspaceBasis,
    flatten_rows,
    iter_span_rows,
    mat_mul,
    qbinom,
)
from ranklab.rankcodes import (
    CertStatus,
    GabidulinExclusion,
    RankCode,
    Side,
    delsarte_dual_code,
    gabidulin_family_exclusion,
    inequivalence_certificate,
    left_idealiser,
    macwilliams_check,
    mrd_weight_distribution,
    puncture,
    right_idealiser,
)
from ranklab.constructions import c_ug, gabidulin, pseudoregulus_subspace

F2 = Field(2)


def full_space(m, n, F=F2):
    gens = []
    for a in range(m):
        for b in range(n):
            M = [[0] * n for _ in range(m)]
            M[a][b] = 1
            gens.append(M)
    return RankCode.from_generators(F, m, n, gens)


def e_matrix(m, n, a, b):
    M = [[0] * n for _ in range(m)]
    M[a][b] = 1
    return M


@pytest.fixture(scope="module")
def gab():
    return gabidulin(make_tower(2, 1, 4, 1), 4, 2, 1)


# -- distances and distributions ---------------------------------------------


def test_min_distance_full_space():
    assert full_space(2, 2).min_distance() == 1


def test_min_distance_of_invertible_span(t2_4):
    C = RankCode.from_generators(F2, 3, 3, [Mat.identity(F2, 3).data])
    assert C.min_distance() == 3


def test_min_distance_empty_code_gate():
    C = RankCode.from_generators(F2, 2, 2, [])
    with pytest.raises(EmptyCode):
        C.min_distance()


def test_gabidulin_min_distance_and_mrd(gab, scanned):
    # gab reads its distribution off its q-system; the rebuilt code scans
    for C in (gab, scanned(gab)):
        assert C.min_distance() == 3 == 4 - 2 + 1
        assert C.is_mrd()


def test_random_low_dim_subcode_is_not_mrd():
    C = RankCode.from_generators(F2, 3, 3,
                                 [e_matrix(3, 3, 0, 0), e_matrix(3, 3, 1, 1)])
    assert C.min_distance() == 1 and C.dim == 2
    assert not C.is_mrd()


def test_rank_distribution_zero_code():
    C = RankCode.from_generators(F2, 2, 3, [])
    assert C.rank_distribution().A == (1, 0, 0)


def test_rank_distribution_full_2x2():
    # oracle: 16 matrices, 6 invertible ((4-1)(4-2)), 9 of rank one
    assert full_space(2, 2).rank_distribution().A == (1, 9, 6)


def test_rank_distribution_gabidulin_matches_closed_form(gab, scanned):
    assert gab.rank_distribution().A == (1, 0, 0, 225, 30)
    assert scanned(gab).rank_distribution().A == (1, 0, 0, 225, 30)
    assert mrd_weight_distribution(4, 4, 2, 3).A == (1, 0, 0, 225, 30)


def test_mrd_weight_distribution_edge_cases():
    assert mrd_weight_distribution(4, 4, 2, 4).A == (1, 0, 0, 0, 15)
    assert mrd_weight_distribution(3, 3, 2, 4).A == (1, 0, 0, 0)
    assert sum(mrd_weight_distribution(6, 3, 2, 2).A) == 2**12
    assert mrd_weight_distribution(6, 3, 2, 2).A[2] == 441


def test_rank_distribution_nonsquare_code_oracle():
    # 2x3 over F_2: rank-1 count = (2^2-1)(2^3-1)/(2-1) = 21
    assert full_space(2, 3).rank_distribution().A == (1, 21, 42)


# -- adjoint and Delsarte duals --------------------------------------------------


def test_adjoint_is_involution(gab, adjoint):
    assert adjoint(adjoint(gab)) == gab


def test_adjoint_preserves_distance(gab, adjoint):
    A = adjoint(gab)  # a fresh code: its distance is scanned anew
    assert A.min_distance() == gab.min_distance()
    assert A.is_mrd()


def test_dual_of_zero_is_full():
    # the kernel of the 0-row matrix is the whole space: no special case
    for F in (F2, make_tower(3, 2, 1, 1).base):
        Z = RankCode.from_generators(F, 2, 2, [])
        assert delsarte_dual_code(Z) == full_space(2, 2, F)
        assert delsarte_dual_code(full_space(2, 2, F)) == Z


def test_dual_of_mrd_distance(gab):
    D = delsarte_dual_code(gab)
    assert D.dim == 16 - 8
    assert D.min_distance() == 4 - 3 + 2 == 3
    assert D.is_mrd()
    assert delsarte_dual_code(D) == gab


def test_macwilliams_full_vs_zero():
    assert macwilliams_check(full_space(2, 2))
    assert macwilliams_check(RankCode.from_generators(F2, 2, 2, []))


def test_macwilliams_gabidulin(gab, scanned):
    assert macwilliams_check(gab) and macwilliams_check(scanned(gab))


def test_macwilliams_nonsquare_shape():
    assert macwilliams_check(full_space(3, 2))


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(0, 9))
def test_macwilliams_random_subcodes(seed, k):
    # the identities are unconditional: any subcode of F_2^{3x3} passes
    rng = random.Random(seed)
    gens = [[[rng.randrange(2) for _ in range(3)] for _ in range(3)]
            for _ in range(k)]
    C = RankCode.from_generators(F2, 3, 3, gens)
    assert macwilliams_check(C)


def dual_relations_check(C: RankCode) -> bool:
    """Verify the MRD dual relations for nu = 0..m'-d (exact integers)."""
    if not C.is_mrd():
        raise NotMRD("dual relations hold for MRD codes only")
    A = C.rank_distribution().A
    q = C.q
    mp, np_ = min(C.m, C.n), max(C.m, C.n)
    d = C.min_distance()
    for nu in range(mp - d + 1):
        lhs = qbinom(mp, nu, q) + sum(
            A[i] * qbinom(mp - i, nu, q) for i in range(d, mp - nu + 1))
        rhs = q ** (C.dim - np_ * nu) * qbinom(mp, nu, q)
        if lhs != rhs:
            return False
    return True


def test_dual_relations_gabidulin(gab, scanned):
    assert dual_relations_check(gab) and dual_relations_check(scanned(gab))


def test_dual_relations_cug_code(pseudoreg, scanned):
    C = c_ug(pseudoreg).code
    assert dual_relations_check(C) and dual_relations_check(scanned(C))


def test_dual_relations_requires_mrd():
    C = RankCode.from_generators(F2, 3, 3, [e_matrix(3, 3, 0, 0)])
    with pytest.raises(NotMRD):
        dual_relations_check(C)


# -- idealisers ---------------------------------------------------------------------


def test_idealisers_of_full_space_are_full_algebras():
    C = full_space(2, 2)
    L, R = left_idealiser(C), right_idealiser(C)
    assert L.order == 16 and R.order == 16
    assert not L.is_field and not R.is_field  # singular elements exist


def test_gabidulin_idealisers_are_fields_of_order_qN(gab):
    L, R = left_idealiser(gab), right_idealiser(gab)
    assert (L.order, R.order) == (16, 16)
    assert L.is_field and R.is_field


def _exhaustive_is_field(F, ide):
    """The exhaustive field check, kept as the oracle of is_field: every
    nonzero element of the idealiser's span is invertible."""
    flat = [flatten_rows(M) for M in ide.basis]
    s = ide.degree
    return bool(flat) and all(
        RowReducer(F, s).add_all(w[i * s:(i + 1) * s] for i in range(s)) == s
        for w in itertools.islice(iter_span_rows(flat, F, s * s), 1, None))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_is_field_matches_exhaustive_check(q):
    # random codes of every dimension (small ones have large non-field
    # idealisers), the multiplication fields F_{q^2}, F_{q^3} and the split
    # algebra F_q ⊕ F_q; shapes keep every idealiser order at most 3^9
    p, e = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    F = make_tower(p, e, 1, 1).base
    rng = random.Random(q)
    sizes = (2, 3) if q < 4 else (2,)
    codes = [gabidulin(make_tower(p, e, N, 1), N, 1, 1) for N in sizes]
    codes.append(RankCode.from_generators(F, 2, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]))
    for _ in range(25):
        m, n = rng.choice(sizes), rng.choice(sizes)
        K = rng.randint(1, m * n)
        codes.append(RankCode.from_generators(F, m, n, [
            [[rng.randrange(q) for _ in range(n)] for _ in range(m)] for _ in range(K)]))
    seen = set()
    for C in codes:
        for ide in (left_idealiser(C), right_idealiser(C)):
            assert ide.is_field == _exhaustive_is_field(F, ide), (C.flat.rows, ide.side)
            seen.add((ide.is_field, ide.dim > 1))
    assert seen == {(True, True), (True, False), (False, True)}


def _block_algebra(degrees):
    """The algebra F_{2^d1} ⊕ F_{2^d2} ⊕ ... as a code: block-diagonal
    polynomials in the companion matrices of the least irreducibles."""
    from ranklab.fields import least_irreducible

    size = sum(degrees)
    gens, off = [], 0
    for d in degrees:
        f = least_irreducible(F2, d)
        comp = Mat.zero(F2, d, d)
        for i in range(d):
            if i + 1 < d:
                comp.data[i + 1][i] = 1
            comp.data[i][d - 1] = f[i]          # -c_i = c_i over F_2
        power = Mat.identity(F2, d)
        for _ in range(d):
            M = [[0] * size for _ in range(size)]
            for i, row in enumerate(power.data):
                M[off + i][off:off + d] = row
            gens.append(M)
            power = mat_mul(power, comp)
        off += d
    return RankCode.from_generators(F2, size, size, gens)


def test_is_field_is_exact_above_the_old_sampling_limit():
    # order 2^17: F_{2^9} ⊕ F_{2^8} has only 2^9 + 2^8 - 1 singular nonzero
    # elements, which 64 random samples of the algebra miss
    split = left_idealiser(_block_algebra([9, 8]))
    assert split.order == 2**17 and split.is_field is False
    field = left_idealiser(_block_algebra([17]))
    assert field.order == 2**17 and field.is_field is True


def test_idealiser_transpose_identities(gab, adjoint):
    # L(C^T) = R(C)^T and R(C^T) = L(C)^T, as sets of matrices
    A = adjoint(gab)
    for one, other in ((left_idealiser(A), right_idealiser(gab)),
                       (right_idealiser(A), left_idealiser(gab))):
        lhs = SubspaceBasis.from_vectors(
            F2, 16, [[x for row in M for x in row] for M in one.basis])
        rhs_transposed = SubspaceBasis.from_vectors(
            F2, 16, [[M[j][i] for i in range(4) for j in range(4)]
                     for M in other.basis])
        assert lhs == rhs_transposed


def test_right_idealiser_field_bound_for_wide_codes():
    # d > 1 and m >= n force R(C) to be a field with |R| <= q^n
    U = pseudoregulus_subspace(make_tower(2, 1, 4, 1), 2, 4, 1)
    C = c_ug(U).code
    R = right_idealiser(C)
    assert R.is_field and R.order <= 2**C.n


# (p, e) of each base field and the idealiser size s: every s x s matrix over
# F_q is enumerated, q^{s^2} of them (512 at q = 2, 6561 at q = 9)
IDEALISER_GRID = {(2, 1): 3, (3, 1): 2, (2, 2): 2, (5, 1): 2, (2, 3): 2, (3, 2): 2}


def _idealiser_grid_codes(p, e, s):
    """(label, code, sides): Gabidulin and, above q = 2, twisted Gabidulin
    codes on F_{q^s}; seeded random codes, square, (s + 1) x s and
    s x (s + 1); the zero code and the full space.  A code with m != n is
    checked on its s-sized side only."""
    from ranklab.constructions import twisted_gabidulin
    from ranklab.errors import EtaConditionViolated

    tower = make_tower(p, e, s, 1)
    F, both = tower.base, (Side.LEFT, Side.RIGHT)
    yield "gabidulin", gabidulin(tower, s, 1, 1), both
    if p == 2 and e == 1:
        yield "gabidulin s=2", gabidulin(tower, s, 1, 2), both
    else:
        for eta in range(2, tower.mid.order):
            try:
                tg = twisted_gabidulin(tower, s, 1, 1, eta, 0)
            except EtaConditionViolated:
                continue
            yield f"twisted eta={eta}", tg.code, both
            break
    rng = random.Random(F.order)
    for m, n, K in ((s, s, 1), (s, s, s), (s, s, s * s - 1), (s + 1, s, 2), (s, s + 1, 2),
                    (s + 1, s, s + 1), (s, s + 1, s + 1)):
        C = RankCode.from_generators(F, m, n, [
            [[rng.randrange(F.order) for _ in range(n)] for _ in range(m)] for _ in range(K)])
        yield (f"random {m}x{n} K={K}", C,
               both if m == n else (Side.RIGHT,) if n == s else (Side.LEFT,))
    yield "zero", RankCode.from_generators(F, s, s, []), both
    yield "full", full_space(s, s, F), both


def _idealiser_by_enumeration(C, side, s):
    """Every s x s matrix Y (flattened) with Y·M ∈ C (left) or M·Y ∈ C
    (right) for each basis matrix M, tested against C's codeword set."""
    F = C.field
    add, mul = F.add, F.mul
    words = {tuple(v) for v in iter_span_rows(C.flat.rows, F, C.m * C.n)}
    mats = C.basis_matrices()

    def product(X, Z, rows, inner, cols):
        return tuple(reduce(add, (mul(X[i][t], Z[t][j]) for t in range(inner)), 0)
                     for i in range(rows) for j in range(cols))

    out = set()
    for y in itertools.product(range(F.order), repeat=s * s):
        Y = [y[i * s:(i + 1) * s] for i in range(s)]
        if all((product(Y, M, s, s, C.n) if side is Side.LEFT
                else product(M, Y, C.m, s, s)) in words for M in mats):
            out.add(y)
    return out


@pytest.mark.parametrize("p, e", list(IDEALISER_GRID))
def test_idealiser_basis_spans_the_enumerated_idealiser(p, e):
    s = IDEALISER_GRID[p, e]
    for label, C, sides in _idealiser_grid_codes(p, e, s):
        F = C.field
        for side in sides:
            ide = (left_idealiser if side is Side.LEFT else right_idealiser)(C)
            flat = [[x for row in Y for x in row] for Y in ide.basis]
            span = {tuple(v) for v in iter_span_rows(flat, F, s * s)}
            assert span == _idealiser_by_enumeration(C, side, s), (label, side)
            assert ide.order == len(span) == F.order**ide.dim
            assert ide.is_field == _exhaustive_is_field(F, ide), (label, side)
            assert SubspaceBasis.from_vectors(F, s * s, flat).rows == tuple(map(tuple, flat))


def _idealiser_by_unit_products(C, side):
    """The elimination the linear construction of _idealiser replaced, kept
    as its oracle: one list-built reduce(M_t·E_ab), or reduce(E_ab·M_t), per
    unit matrix E_ab and basis codeword M_t, in the rows
    reduce(M_1·E_ab) | … | reduce(M_K·E_ab) | e_ab, whose vanishing tails
    span the idealiser.  Returns (basis, order, is_field, generator)."""
    from ranklab.fields import is_irreducible
    from ranklab.fqlinalg import row_blocks, store_row, unpack_row, vanishing_tails
    from ranklab.rankcodes import _algebra_generator

    F, m, n = C.field, C.m, C.n
    s = m if side is Side.LEFT else n
    mats, remainder = C.basis_matrices(), C.flat.reducer().reduce
    join = row_blocks(F, m * n)[1]
    head, ss = len(mats) * m * n, s * s
    rows = []
    for a in range(s):
        for b in range(s):
            row = store_row(F, [int(i == a * s + b) for i in range(ss)])
            for M in reversed(mats):
                prod = [0] * (m * n)
                if side is Side.LEFT:
                    prod[a * n:(a + 1) * n] = M[b]  # E_ab·M: row a is M's row b
                else:
                    prod[b::n] = [r[a] for r in M]  # M·E_ab: column b is M's column a
                row = join(remainder(prod), row)
            rows.append(row)
    ker = SubspaceBasis.from_vectors(F, ss, [
        unpack_row(F, t, ss) for t in vanishing_tails(F, head, head + ss, rows)])
    basis = tuple(tuple(tuple(v[i * s:(i + 1) * s]) for i in range(s)) for v in ker.rows)
    gen = _algebra_generator(F, basis)
    return basis, F.order**len(basis), gen is not None and is_irreducible(F, gen[1]), gen


def _unit_product_oracle_codes():
    """(label, code, sides) beyond the reach of enumeration: the witness
    C_{W^⊥',G}, Gabidulin 6 x 6, the Gabidulin restriction, twisted
    Gabidulin at q = 3, s = 4 Gabidulin and seeded random codes over
    q = 4, 5, 8, 9, and the zero and full codes."""
    from ranklab import fixtures
    from ranklab.subspaces import ordinary_dual

    both = (Side.LEFT, Side.RIGHT)
    yield "witness", c_ug(ordinary_dual(fixtures.certified_new_witness())).code, both
    yield "gabidulin 6x6", gabidulin(make_tower(2, 1, 6, 1), 6, 3, 1), both
    yield "restriction", fixtures.restriction_6_3_1().code, (Side.LEFT,)
    yield "twisted q=3", fixtures.twisted_gabidulin_q3().code, both
    for p, e in ((2, 2), (5, 1), (2, 3), (3, 2)):
        tower = make_tower(p, e, 4, 1)
        F = tower.base
        yield f"gabidulin q={F.order}", gabidulin(tower, 4, 2, 1), both
        rng = random.Random(F.order)
        yield f"random q={F.order}", RankCode.from_generators(F, 4, 4, [
            [[rng.randrange(F.order) for _ in range(4)] for _ in range(4)] for _ in range(5)]), both
        yield f"zero q={F.order}", RankCode.from_generators(F, 4, 4, []), both
        yield f"full q={F.order}", full_space(4, 4, F), both


def test_idealiser_matches_the_unit_product_construction():
    seen = set()
    for label, C, sides in _unit_product_oracle_codes():
        for side in sides:
            ide = (left_idealiser if side is Side.LEFT else right_idealiser)(C)
            got = (ide.basis, ide.order, ide.is_field, ide.generator)
            assert got == _idealiser_by_unit_products(C, side), (label, side)
            seen.add((label, side, ide.dim, ide.is_field))
    assert ("witness", Side.RIGHT, 6, True) in seen
    assert ("restriction", Side.LEFT, 12, False) in seen
    assert ("full q=9", Side.LEFT, 16, False) in seen and ("zero q=9", Side.RIGHT, 16, False) in seen


def test_broken_rank_histograms_are_internal_errors(monkeypatch, tmp_path, capsys, scanned):
    # a histogram off by one breaks RankDistribution.validate: a ranklab bug
    # (exit 4), not a rejected input (exit 2)
    from ranklab import fixtures, rankcodes, serialize
    from ranklab.cli import main
    from ranklab.errors import InternalInvariantError

    def off_by_one(scan):
        return lambda C: [x + (i == 1) for i, x in enumerate(scan(C))]

    monkeypatch.setattr(rankcodes, "_walk_counts", off_by_one(rankcodes._walk_counts))
    monkeypatch.setattr(rankcodes, "_subspace_counts", off_by_one(rankcodes._subspace_counts))
    # the subspace count (67 subspaces < 2^8 words) and the walk (2 words < 16 subspaces)
    for C in (scanned(fixtures.gabidulin_4_2_1()),
              RankCode.from_generators(F2, 3, 3, [Mat.identity(F2, 3).data])):
        with pytest.raises(InternalInvariantError, match="does not sum to q\\^K"):
            C.rank_distribution()
    path = tmp_path / "gab.json"
    serialize.dump_file(str(path), serialize.rankcode_to_json(fixtures.gabidulin_4_2_1()))
    assert main(["rank-dist", "--code", str(path)]) == 4
    assert "does not sum to q^K" in capsys.readouterr().err


def test_failed_idealiser_closure_is_an_internal_error():
    # an idealiser checked against a code it does not idealise: the powers
    # of its generator still span it, so the first product outside the code
    # raises, through the generator and through every basis element alike
    from ranklab import fixtures
    from ranklab.errors import InternalInvariantError
    from ranklab.rankcodes import _verify_idealiser_closure

    C = fixtures.gabidulin_4_2_1()
    other = RankCode.from_generators(F2, 4, 4, [Mat.identity(F2, 4).data,
                                                [[0, 1, 0, 0]] + [[0] * 4] * 3])
    for side in (Side.LEFT, Side.RIGHT):
        ide = (left_idealiser if side is Side.LEFT else right_idealiser)(C)
        assert ide.generator is not None
        for checked in (ide, ide._replace(generator=None)):
            _verify_idealiser_closure(C, checked)
            with pytest.raises(InternalInvariantError, match="closure verification failed$"):
                _verify_idealiser_closure(other, checked)


def test_corrupted_idealiser_basis_fails_the_generator_check(monkeypatch, tmp_path, capsys):
    # the check multiplies by the generator Y only, so a basis element other
    # than Y is caught by I, Y, ..., Y^{d-1} spanning another algebra (exit 4)
    from ranklab import fixtures, rankcodes, serialize
    from ranklab.cli import main
    from ranklab.errors import InternalInvariantError

    verify = rankcodes._verify_idealiser_closure
    seen = []

    def corrupt(C, ide):
        gen = ide.generator
        assert gen is not None and ide.dim == 4
        i = next(i for i, Y in enumerate(ide.basis) if Y != gen[0])
        unit = tuple(tuple(int(a == b == 0) for b in range(ide.degree))
                     for a in range(ide.degree))   # rank 1: in no field of matrices
        seen.append(i)
        verify(C, ide._replace(basis=ide.basis[:i] + (unit,) + ide.basis[i + 1:]))

    monkeypatch.setattr(rankcodes, "_verify_idealiser_closure", corrupt)
    with pytest.raises(InternalInvariantError, match="powers of the generator"):
        right_idealiser(fixtures.gabidulin_4_2_1())
    path = tmp_path / "gab.json"
    serialize.dump_file(str(path), serialize.rankcode_to_json(fixtures.gabidulin_4_2_1()))
    assert main(["idealiser", "--code", str(path), "--right"]) == 4
    assert "closure" in capsys.readouterr().err and len(seen) == 2


# -- puncturing ----------------------------------------------------------------------


def test_puncture_by_identity_is_same_code(gab):
    assert puncture(gab, Mat.identity(F2, 4)) == gab


def test_puncture_gabidulin_full_rank_3x4(gab, adjoint):
    A = Mat.from_rows(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    P = puncture(gab, A)
    assert (P.m, P.n) == (3, 4)
    assert P.min_distance() == 3 + 3 - 4 == 2
    assert P.is_mrd()
    assert adjoint(P).is_mrd()


def test_puncture_gates(gab):
    with pytest.raises(RankDeficientA):
        puncture(gab, Mat.from_rows(F2, [[1, 0, 0, 0], [1, 0, 0, 0]]))
    with pytest.raises(ShapeMismatch):
        puncture(full_space(2, 3), Mat.identity(F2, 2))


# -- certificates --------------------------------------------------------------------


def test_certificate_same_object_inconclusive(gab):
    cert = inequivalence_certificate(gab, gab)
    assert cert.status is CertStatus.INCONCLUSIVE


def test_certificate_rank_distribution_reason():
    C1 = RankCode.from_generators(F2, 2, 2, [e_matrix(2, 2, 0, 0)])
    C2 = RankCode.from_generators(F2, 2, 2, [Mat.identity(F2, 2).data])
    cert = inequivalence_certificate(C1, C2)
    assert cert.status is CertStatus.CERTIFIED_INEQUIVALENT
    assert cert.reason == "rank-distribution"


def test_certificate_idealiser_order_reason():
    # row space vs column space: identical rank distributions (1,3,0) but
    # left idealiser orders 8 vs 16
    C_rows = RankCode.from_generators(F2, 2, 2,
                                      [e_matrix(2, 2, 0, 0), e_matrix(2, 2, 0, 1)])
    C_cols = RankCode.from_generators(F2, 2, 2,
                                      [e_matrix(2, 2, 0, 0), e_matrix(2, 2, 1, 0)])
    assert (C_rows.rank_distribution().A == C_cols.rank_distribution().A == (1, 3, 0))
    assert left_idealiser(C_rows).order != left_idealiser(C_cols).order
    cert = inequivalence_certificate(C_rows, C_cols)
    assert cert.status is CertStatus.CERTIFIED_INEQUIVALENT
    assert cert.reason.startswith("left-idealiser")


def test_certificate_param_gate(gab):
    with pytest.raises(ParamMismatch):
        inequivalence_certificate(gab, full_space(2, 2))


# -- section-6 exclusion logic ----------------------------------------------------------


def test_exclusion_divisibility_gate_not_applicable():
    # (r,n,h) = (2,5,1): (h+1) | r, n >= h+3, (n,h) != (4,1)
    t = make_tower(2, 1, 5, 1)
    C = c_ug(pseudoregulus_subspace(t, 2, 5, 1)).code
    assert gabidulin_family_exclusion(C, 2, 5, 1) is GabidulinExclusion.NOT_APPLICABLE


def test_exclusion_hypothesis_gates(pseudoreg):
    C = c_ug(pseudoreg).code
    with pytest.raises(HypothesisViolated):
        gabidulin_family_exclusion(C, 2, 4, 1)  # (n,h) = (4,1)
    from ranklab.constructions import gabidulin_restriction

    res = gabidulin_restriction(make_tower(2, 1, 3, 2), 6, 3, 1)
    with pytest.raises(HypothesisViolated):
        gabidulin_family_exclusion(res.code, 4, 3, 1)  # n = 3 < h+3


def test_exclusion_param_gate(gab):
    with pytest.raises(ParamMismatch):
        gabidulin_family_exclusion(gab, 3, 4, 1)  # shape (6,4) expected


def test_exclusion_certified_new_on_mocked_invariants(monkeypatch):
    # the (9,6,q;5) shape of (r,n,h) = (3,6,1) with injected invariants
    from types import SimpleNamespace

    from ranklab import rankcodes

    gens = [[[1 if (i, j) == (a, a) else 0 for j in range(6)] for i in range(9)]
            for a in range(6)]
    C = RankCode.from_generators(F2, 9, 6, gens)
    monkeypatch.setattr(C, "min_distance", lambda *, budget: 5)
    for order, verdict in ((2**6, GabidulinExclusion.CERTIFIED_NEW),
                           (2**2, GabidulinExclusion.NOT_APPLICABLE)):
        monkeypatch.setattr(rankcodes, "right_idealiser",
                            lambda C, order=order: SimpleNamespace(order=order))
        assert gabidulin_family_exclusion(C, 3, 6, 1) is verdict


# -- distribution invariants across the fixture corpus --------------------------


def test_every_fixture_mrd_code_matches_closed_form(scanned):
    from ranklab import fixtures

    for name, C in fixtures.fixture_codes().items():
        assert scanned(C).rank_distribution() == C.rank_distribution(), name
        if not C.is_mrd():
            continue
        d = C.min_distance()
        assert C.rank_distribution().A == mrd_weight_distribution(
            C.m, C.n, C.q, d).A, name


def test_complete_weight_lemma_on_fixtures():
    # MRD codes containing 0 have A_{d+l} > 0 for every l in 0..m'-d
    from ranklab import fixtures

    for name, C in fixtures.fixture_codes().items():
        if not C.is_mrd():
            continue
        d = C.min_distance()
        A = C.rank_distribution().A
        for ell in range(min(C.m, C.n) - d + 1):
            assert A[d + ell] > 0, (name, ell)


# (p, e) of each base field, and an m<n, m=n, m>n shape small enough for the
# full space to be enumerated one codeword at a time
ORACLE_GRID = {
    (2, 1): ((2, 3), (3, 3), (3, 2)),
    (3, 1): ((2, 3), (2, 2), (3, 2)),
    (2, 2): ((2, 3), (2, 2), (3, 2)),
    (5, 1): ((1, 2), (2, 2), (2, 1)),
    (7, 1): ((1, 2), (2, 2), (2, 1)),
    (2, 3): ((1, 2), (2, 2), (2, 1)),
    (3, 2): ((1, 2), (2, 2), (2, 1)),
}


def _oracle_rank_counts(C):
    # itertools.product over coefficient tuples, each codeword rebuilt and
    # ranked from scratch (no odometer, no subspace count)
    import itertools

    F, m, n = C.field, C.m, C.n
    mats = C.basis_matrices()
    counts = [0] * (min(m, n) + 1)
    for coeffs in itertools.product(range(F.order), repeat=C.dim):
        M = [[0] * n for _ in range(m)]
        for c, B in zip(coeffs, mats):
            if c:
                for i in range(m):
                    for j in range(n):
                        M[i][j] = F.add(M[i][j], F.mul(c, B[i][j]))
        work = [row[:] for row in M]
        rank = 0
        for col in range(n):
            piv = next((i for i in range(rank, m) if work[i][col]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            inv = F.inv(work[rank][col])
            work[rank] = [F.mul(inv, x) for x in work[rank]]
            for i in range(m):
                if i != rank and work[i][col]:
                    f = work[i][col]
                    work[i] = [F.add(x, F.neg(F.mul(f, y)))
                               for x, y in zip(work[i], work[rank])]
            rank += 1
        counts[rank] += 1
    return tuple(counts)


def test_rank_distribution_against_product_enumeration_oracle():
    from ranklab.fqlinalg import qbinom
    from ranklab.rankcodes import _subspace_counts, _walk_counts

    rng = random.Random(5)
    sides = set()
    for (p, e), shapes in ORACLE_GRID.items():
        F = make_tower(p, e, 1, 1).base
        q = F.order
        for m, n in shapes:
            for K in (0, m * n // 2, m * n):
                while True:
                    gens = [[[rng.randrange(q) for _ in range(n)] for _ in range(m)]
                            for _ in range(K)]
                    C = RankCode.from_generators(F, m, n, gens)
                    if C.dim == K:
                        break
                want = _oracle_rank_counts(C)
                label = (q, m, n, K)
                spaces = sum(qbinom(min(m, n), s, q) for s in range(min(m, n) + 1))
                sides.add(spaces < q**K)
                assert tuple(_walk_counts(C)) == want, label
                assert tuple(_subspace_counts(C)) == want, label
                assert C.rank_distribution().A == want, label
                if K:
                    assert C.min_distance() == next(i for i in range(1, len(want))
                                                    if want[i]), label
                assert macwilliams_check(C), label
    assert sides == {True, False}  # both scans are chosen somewhere in the grid


@pytest.mark.parametrize("q,N,k", [(2, 5, 2), (3, 4, 2), (4, 3, 2)])
def test_leaf_ranks_stop_at_full_rank(q, N, k, monkeypatch):
    # a leaf of the subspace tree ranks s > H images of H coordinates: once
    # their rank is H every further row vanishes, and none is eliminated.
    # Over F_2 a leaf is one fqlinalg.head_elimination call, H column steps
    # on all s blocks at once, so s > H blocks cost H steps, not s.
    from ranklab import fqlinalg, rankcodes

    p, e = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    C = gabidulin(make_tower(p, e, N, 1), N, k, 1)
    want = tuple(rankcodes._walk_counts(C))
    H, past, fed = max(C.m, C.n), [], []
    if q == 2:
        built, wide = [], []

        def counted_elimination(heads, block, nblocks):
            built.append(heads)
            eliminate = fqlinalg.head_elimination(heads, block, nblocks)

            def counted(x):
                blocks = sum(1 for t in range(nblocks) if x >> (t * block) & ((1 << block) - 1))
                wide.append(blocks > heads)
                return eliminate(x)
            return counted

        monkeypatch.setattr(rankcodes, "head_elimination", counted_elimination)
        assert tuple(rankcodes._subspace_counts(C)) == want
        assert built == [H] and any(wide)
        return
    add_all = fqlinalg.RowReducer.add_all

    def counted(self, rows):
        grew = 0
        for row in rows:
            if self.ncols == H:
                fed.append(1)
                past.append(len(self.pivrows) == H)
            grew += add_all(self, [row])
        return grew

    monkeypatch.setattr(fqlinalg.RowReducer, "add_all", counted)
    assert tuple(rankcodes._subspace_counts(C)) == want
    assert fed and not any(past)


def test_dual_relations_nonsquare_restriction_code():
    from ranklab.fixtures import restriction_6_3_1

    assert dual_relations_check(restriction_6_3_1().code)


def test_macwilliams_on_non_prime_base_field(scanned):
    # q = 4: exercises the prime-basis expansion in the generic scan, which
    # the C_{U,G} code skips unless rebuilt from its basis
    from ranklab.constructions import c_ug, pseudoregulus_subspace

    t = make_tower(2, 2, 2, 1)
    C = scanned(c_ug(pseudoregulus_subspace(t, 2, 2, 1)).code)
    assert C.q == 4
    assert macwilliams_check(C)


def test_restriction_right_idealiser_order_divides_code_length():
    # punctured-family invariant: the bounded idealiser of a punctured
    # Gabidulin code has order q^l with l dividing rn/(h+1); for the
    # restriction fixture l = 3 divides 6, which is why such codes are never
    # certified new at these parameters
    from ranklab.fixtures import restriction_6_3_1

    C = restriction_6_3_1().code
    R = right_idealiser(C)
    ell = 0
    order = R.order
    while order > 1:
        assert order % 2 == 0
        order //= 2
        ell += 1
    assert ell == 3 and 6 % ell == 0


# -- the subspace tree against the per-subspace count ------------------------------


def _oracle_subcode_dims(C):
    # (Y, dim C_Y) for every subspace Y of F_q^{n'}, n' = min(m, n): the
    # subspace count before its tree walk, which ranks the K stacked images
    # G_t·Y^T of the basis matrices afresh for each Y
    import math

    from ranklab.fqlinalg import RowReducer, enumerate_subspaces, vec_mat

    F, K = C.field, C.dim
    mats = C.basis_matrices()
    if C.m < C.n:
        mats = [tuple(zip(*M)) for M in mats]
    height, width = max(C.m, C.n), min(C.m, C.n)
    gens = [Mat.from_rows(F, M, width).transpose() for M in mats]   # G_t^T
    images = {}
    for d in range(width + 1):
        for Y in enumerate_subspaces(width, d, F, budget=math.inf):
            for y in Y.rows:
                if y not in images:
                    images[y] = [tuple(vec_mat(y, Gt)) for Gt in gens]
            vecs = [sum(ts, ()) for ts in zip(*(images[y] for y in Y.rows))]
            yield Y, K - RowReducer(F, height * d).add_all(vecs)


def _oracle_subspace_counts(C):
    # the histogram by q-Möbius inversion, and the (Y, dim C_Y) it came from
    from ranklab.fqlinalg import qbinom

    q, width = C.q, min(C.m, C.n)
    dims = list(_oracle_subcode_dims(C))
    B = [0] * (width + 1)
    for Y, s in dims:
        B[width - Y.dim] += q**s
    A = []
    for j in range(width + 1):
        A.append(B[j] - sum(A[i] * qbinom(width - i, j - i, q) for i in range(j)))
    return tuple(A), dims


# (p, e) of each base field with an m<n, m=n, m>n shape; n' = min(m, n)
# reaches 6 at q = 2, 5 at q = 3, 4 at q = 4 and 5, and 3 at q = 8 and 9
TREE_GRID = {
    (2, 1): ((5, 6), (6, 6), (6, 5)),
    (3, 1): ((4, 5), (5, 5), (5, 4)),
    (2, 2): ((3, 4), (4, 4), (4, 3)),
    (5, 1): ((3, 4), (4, 4), (4, 3)),
    (2, 3): ((2, 3), (3, 3), (3, 2)),
    (3, 2): ((2, 3), (3, 3), (3, 2)),
}


def _tree_grid_codes():
    from ranklab import fixtures
    from ranklab.constructions import find_nonsquare, twisted_gabidulin
    from ranklab.subspaces import FqSubspace, ordinary_dual

    rng = random.Random(11)
    for (p, e), shapes in TREE_GRID.items():
        F = make_tower(p, e, 1, 1).base
        for m, n in shapes:
            for K in (0, 1, m * n // 2, m * n):
                while True:
                    gens = [[[rng.randrange(F.order) for _ in range(n)] for _ in range(m)]
                            for _ in range(K)]
                    C = RankCode.from_generators(F, m, n, gens)
                    if C.dim == K:
                        break
                yield (F.order, m, n, K), C
    yield "gabidulin (2,6,3)", gabidulin(make_tower(2, 1, 6, 1), 6, 3, 1)
    tw = make_tower(3, 1, 5, 1)
    yield "twisted gabidulin (3,5,2)", twisted_gabidulin(
        tw, 5, 2, 1, find_nonsquare(tw, "mid"), 0).code
    w = fixtures.certified_new_witness()
    W = FqSubspace.from_mid_vectors(w.tower, 3, w.basis_mid)
    yield "witness C_{U^perp,G}", c_ug(ordinary_dual(W)).code


def test_subspace_tree_matches_the_per_subspace_count():
    from ranklab.rankcodes import _subspace_counts

    closed_form = tracked_deep = 0
    for label, C in _tree_grid_codes():
        want, dims = _oracle_subspace_counts(C)
        assert tuple(_subspace_counts(C)) == want, label
        # a node whose pivots all lie above column 0 has descendants: with an
        # empty subcode they are added in closed form, otherwise its subcode
        # is tracked
        inner = [(Y, s) for Y, s in dims if Y.dim and Y.pivots[0] >= 1]
        closed_form += any(s == 0 for Y, s in inner)
        tracked_deep += any(s > 0 and Y.dim >= 2 for Y, s in inner)
    assert closed_form and tracked_deep


@pytest.mark.parametrize("m,n", [(2, 5), (5, 2), (3, 4), (4, 3), (3, 3), (2, 6)])
def test_f2_subspace_tree_matches_the_codeword_walk(m, n):
    # the F_2 tree keeps a node's subcode as blocks of one int and ranks by
    # column steps (fqlinalg.head_elimination): both shapes of transpose,
    # the zero code, the full space, and s > H words at the root
    from ranklab.rankcodes import _subspace_counts, _walk_counts

    rng = random.Random(m * 10 + n)
    H = max(m, n)
    for K in sorted({0, 1, H + 1, m * n // 2, m * n}):
        while True:
            C = RankCode.from_generators(F2, m, n, [
                [[rng.randrange(2) for _ in range(n)] for _ in range(m)] for _ in range(K)])
            if C.dim == K:
                break
        assert tuple(_subspace_counts(C)) == tuple(_walk_counts(C)), (m, n, K)


def test_subspace_count_budget_is_the_subspace_count(scanned):
    from ranklab.errors import BudgetExceeded

    # K = 8 over F_2, 4x4: 67 subspaces of F_2^4 against 256 codewords
    C = scanned(gabidulin(make_tower(2, 1, 4, 1), 4, 2, 1))
    with pytest.raises(BudgetExceeded, match="67 subspaces of F_2\\^4 exceeds budget 66"):
        C.rank_distribution(budget=66)
    assert C.rank_distribution(budget=67).A == (1, 0, 0, 225, 30)


# -- the q-system engine: (twisted) Gabidulin codes from hyperplane weights -------

PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}
# the walk over U^⊥' visits θ_{(k-1)N-1}(q) F_q-points: a cell is kept when
# that is at most 2^12, which leaves N <= 6 at q = 2, N <= 5 at q = 3 and
# 4, N <= 4 at q = 5, N <= 3 at q = 8 and 9, and k > N/2 only at small N
QSYSTEM_ITEMS = 1 << 12
QSYSTEM_TOWERS = {2: (2, 3, 4, 5, 6), 3: (2, 3, 4, 5), 4: (2, 3, 4, 5), 5: (2, 3, 4),
                  8: (2, 3), 9: (2, 3)}


def _valid_eta(tower, N, k):
    """The largest nonzero eta code meeting the norm condition, or None (every
    eta fails at q = 2)."""
    from ranklab.constructions import twisted_gabidulin
    from ranklab.errors import EtaConditionViolated

    for eta in range(tower.mid.order - 1, 0, -1):
        try:
            twisted_gabidulin(tower, N, k, 1, eta, 0)
        except EtaConditionViolated:
            continue
        return eta
    return None


def _qsystem_cells():
    """(q, N, k, s, eta): every k < N within QSYSTEM_ITEMS, s = 1 and the
    least s > 1 prime to N (if s < N), eta = 0 and a valid twist."""
    import math

    from ranklab.fqlinalg import theta

    out = []
    for q, Ns in QSYSTEM_TOWERS.items():
        for N in Ns:
            tower = make_tower(*PRIME_POWER[q], N, 1)
            coprime = [s for s in range(2, N) if math.gcd(s, N) == 1][:1]
            for k in range(1, N):
                if theta((k - 1) * N - 1, q) > QSYSTEM_ITEMS:
                    continue
                etas = [0] + [e for e in [_valid_eta(tower, N, k)] if e is not None]
                out += [(q, N, k, s, eta) for s in [1] + coprime for eta in etas]
    return out


QSYSTEM_CELLS = _qsystem_cells()


def _engine_spies(monkeypatch):
    """Record which rank engine runs: "qsystem" (the point weights of the
    code's subspace: the q-system's dual, or U for C_{U,G}), "walk" or
    "tree"."""
    from ranklab import rankcodes

    ran = []
    for name, label in (("_point_counts", "qsystem"), ("_walk_counts", "walk"),
                        ("_subspace_counts", "tree")):
        real = getattr(rankcodes, name)
        monkeypatch.setattr(rankcodes, name,
                            lambda *a, real=real, label=label: ran.append(label) or real(*a))
    return ran


@pytest.mark.parametrize("q,N,k,s,eta", QSYSTEM_CELLS,
                         ids=[f"q{q}_N{N}_k{k}_s{s}_eta{eta}" for q, N, k, s, eta in QSYSTEM_CELLS])
def test_qsystem_engine_matches_the_scans(q, N, k, s, eta, scanned, force_geometric):
    from ranklab.constructions import twisted_gabidulin
    from ranklab.fqlinalg import theta
    from ranklab.subspaces import ordinary_dual

    tower = make_tower(*PRIME_POWER[q], N, 1)
    C = twisted_gabidulin(tower, N, k, s, eta, 0).code
    want = scanned(C).rank_distribution()
    assert want == mrd_weight_distribution(N, N, q, N - k + 1)
    # the code carries U^⊥' for its N-dimensional q-system U ⊂ F_{q^N}^k
    S = C.subspace
    assert (S.k, S.r) == ((k - 1) * N, k) and ordinary_dual(S).k == N
    # the geometric engine forced, on each side of U^⊥'s point weights (the
    # point scan where it is small)
    for walk in (True, False)[:1 + (theta(k - 1, q**N) <= QSYSTEM_ITEMS)]:
        force_geometric(walk)
        assert twisted_gabidulin(tower, N, k, s, eta, 0).code.rank_distribution() == want


def test_qsystem_grid_covers_every_q_twists_and_both_sides():
    from ranklab.fqlinalg import theta

    assert {q for q, *_ in QSYSTEM_CELLS} == set(PRIME_POWER)
    # twisted at odd and at even q, and s > 1
    assert {q for q, N, k, s, eta in QSYSTEM_CELLS if eta} == {3, 4, 5, 8, 9}
    assert any(s > 1 and eta for q, N, k, s, eta in QSYSTEM_CELLS)
    # k > N/2, k = 1 (U^⊥' = 0) and the point scan of U^⊥'
    assert any(2 * k > N >= 4 for q, N, k, s, eta in QSYSTEM_CELLS)
    assert any(k == 1 for q, N, k, s, eta in QSYSTEM_CELLS)
    assert any(k >= 2 and theta(k - 1, q**N) <= QSYSTEM_ITEMS
               for q, N, k, s, eta in QSYSTEM_CELLS)
    assert len(QSYSTEM_CELLS) >= 100


@pytest.mark.parametrize("kind,params,engine", [
    ("gabidulin", (2, 4, 2), "qsystem"), ("gabidulin", (2, 6, 3), "qsystem"),
    ("gabidulin", (3, 5, 2), "qsystem"), ("gabidulin", (2, 4, 1), "qsystem"),
    ("gabidulin", (2, 5, 4), "tree"), ("gabidulin", (3, 4, 3), "tree"),
    ("gabidulin", (4, 4, 3), "tree"), ("cug", (2, 6, 2, 9), "tree")])
def test_pricing_picks_the_engine_from_the_input(kind, params, engine, monkeypatch, scanned,
                                                 force_side):
    # the lowest price in row additions (fqlinalg.cheapest): the point
    # weights win at k <= N/2 here, the tree at k > N/2.  A C_{U,G} with
    # (q, n, r, k) = (2, 6, 2, 9) takes the tree (K = 12 per subspace of
    # F_2^3, 192) over the point scan (2n per point of PG(1, 64), 780) and
    # the walk (3/2 per F_q-point of U, 766)
    from ranklab.fqlinalg import qbinom
    from ranklab.subspaces import random_subspace

    if kind == "gabidulin":
        q, N, k = params
        tower = make_tower(*PRIME_POWER[q], N, 1)
        want = mrd_weight_distribution(N, N, q, N - k + 1)

        def build():
            return gabidulin(tower, N, k, 1)
    else:
        q, n, r, k = params
        U = random_subspace(make_tower(*PRIME_POWER[q], n, 1), r, k, random.Random(1))

        def build():
            return c_ug(U).code
        want = scanned(build()).rank_distribution()
    ran = _engine_spies(monkeypatch)
    C = build()
    assert C.rank_distribution() == want
    assert ran == [engine]
    # each side forced through the price list: the point weights, or the
    # shorter of the two scans
    mp = min(C.m, C.n)
    spaces = sum(qbinom(mp, d, q) for d in range(mp + 1))
    scan = "walk" if C.size <= spaces else "tree"
    for walk, forced in ((True, "qsystem"), (None, scan)):
        ran.clear()
        force_side(walk)
        assert build().rank_distribution() == want
        assert ran == [forced]


def test_codes_without_a_qsystem_take_the_scans(monkeypatch, adjoint):
    from ranklab import rankcodes, serialize
    from ranklab.constructions import twisted_gabidulin
    from ranklab.fqlinalg import Mat

    def no_points(*args):
        raise AssertionError("the geometric engine ran on a code without a subspace")

    t34, t2_22 = make_tower(3, 1, 4, 1), make_tower(2, 1, 2, 2)
    G = gabidulin(make_tower(2, 1, 4, 1), 4, 2, 1)
    assert G.subspace is not None
    cases = {
        # c != 0: not left F_{q^N}-linear, so no q-system
        "c=1": (twisted_gabidulin(t34, 4, 2, 1, _valid_eta(t34, 4, 2), 1).code, (4, 4, 3, 3)),
        # the top level N = nt of a tower with t = 2
        "top": (gabidulin(t2_22, 4, 2, 1), (4, 4, 2, 3)),
        "json": (serialize.rankcode_from_json(serialize.rankcode_to_json(G)), (4, 4, 2, 3)),
        "dual": (delsarte_dual_code(G), (4, 4, 2, 3)),
        "adjoint": (adjoint(G), (4, 4, 2, 3)),
        "puncture": (puncture(G, Mat.from_rows(F2, [[1, 0, 0, 0], [0, 1, 0, 0],
                                                    [0, 0, 1, 1]])), (3, 4, 2, 2)),
    }
    monkeypatch.setattr(rankcodes, "_point_counts", no_points)
    for label, (C, params) in cases.items():
        assert C.subspace is None, label
        assert C.rank_distribution() == mrd_weight_distribution(*params), label


def test_qsystem_budget_exits_at_its_item_count(monkeypatch, force_side):
    from ranklab import rankcodes, subspaces
    from ranklab.errors import BudgetExceeded

    t16 = make_tower(2, 1, 4, 1)
    want = mrd_weight_distribution(4, 4, 2, 3)
    ran = _engine_spies(monkeypatch)
    # (2,4,2): U^⊥' has θ_3(2) = 15 F_q-points, below 67 subspaces and 256 words
    with pytest.raises(BudgetExceeded) as exc:
        gabidulin(t16, 4, 2, 1).rank_distribution(budget=14)
    assert (exc.value.needed, exc.value.allowed, exc.value.what) == (
        15, 14, "subspace F_q-points")
    assert gabidulin(t16, 4, 2, 1).rank_distribution(budget=15) == want
    # the point scan of U^⊥' counts θ_1(16) = 17 points; at 15 and 16 only
    # the walk fits, so the walk runs
    force_side(False)
    with pytest.raises(BudgetExceeded, match="17 projective points exceeds budget 14"):
        gabidulin(t16, 4, 2, 1).rank_distribution(budget=14)
    scans = []
    point_scan = subspaces._point_scan
    monkeypatch.setattr(subspaces, "_point_scan",
                        lambda U, budget: scans.append(budget) or point_scan(U, budget))
    for budget in (16, 17):
        assert gabidulin(t16, 4, 2, 1).rank_distribution(budget=budget) == want
    assert scans == [17] and ran == ["qsystem"] * 3
    monkeypatch.undo()
    # (2,6,3): 4095 F_q-points do not fit 4094, the tree's 2825 subspaces do
    ran = _engine_spies(monkeypatch)
    C = gabidulin(make_tower(2, 1, 6, 1), 6, 3, 1)
    assert C.rank_distribution(budget=4094) == mrd_weight_distribution(6, 6, 2, 4)
    assert ran == ["tree"]
    with pytest.raises(BudgetExceeded, match="4095 subspace F_q-points exceeds budget 2824"):
        gabidulin(make_tower(2, 1, 6, 1), 6, 3, 1).rank_distribution(budget=2824)
    assert rankcodes.DEFAULT_CODEWORD_BUDGET >= 4095


def test_broken_qsystem_histogram_is_an_internal_error(monkeypatch, capsys):
    from ranklab import rankcodes
    from ranklab.cli import main
    from ranklab.errors import InternalInvariantError

    real = rankcodes._point_counts
    monkeypatch.setattr(rankcodes, "_point_counts",
                        lambda *a: [x + (i == 1) for i, x in enumerate(real(*a))])
    with pytest.raises(InternalInvariantError, match="does not sum to q\\^K"):
        gabidulin(make_tower(2, 1, 4, 1), 4, 2, 1).rank_distribution()
    assert main(["gabidulin", "--N", "4", "--k", "2", "--mrd-check"]) == 4
    assert "does not sum to q^K" in capsys.readouterr().err


def test_a_qsystem_of_the_wrong_dimension_is_an_internal_error():
    # RankCode.attach checks S against (n, m, K, base field): K = rn and
    # m = rn - dim S, so the dual of a q-system of dimension N - 1, an S in
    # F_16^2 for a code with K = 12 and an S over F_3 are all refused
    from ranklab.errors import InternalInvariantError
    from ranklab.subspaces import FqSubspace, ordinary_dual

    tower = make_tower(2, 1, 4, 1)
    S = gabidulin(tower, 4, 2, 1).subspace
    U = ordinary_dual(S)
    assert U.k == 4
    short = ordinary_dual(FqSubspace.from_flat(tower, 2, U.flat.rows[1:]))
    with pytest.raises(InternalInvariantError, match="dimension 4 in F_\\(q\\^4\\)\\^2; "
                                                     "got dimension 5 in"):
        gabidulin(tower, 4, 2, 1).attach(short)
    with pytest.raises(InternalInvariantError, match="dimension 8 in F_\\(q\\^4\\)\\^3"):
        gabidulin(tower, 4, 3, 1).attach(S)    # S lies in F_16^2, not F_16^3
    with pytest.raises(InternalInvariantError, match="over F_2 .* in F_\\(3\\^4\\)\\^2"):
        gabidulin(tower, 4, 2, 1).attach(gabidulin(make_tower(3, 1, 4, 1), 4, 2, 1).subspace)
