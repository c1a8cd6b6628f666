"""Exact linear algebra: RREF, kernels, intersections, counting, enumeration."""

import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from ranklab.errors import AmbientMismatch, BudgetExceeded, InvalidParams
from ranklab.fields import Field, make_tower, poly_eval, poly_mod, poly_mul
from ranklab import fqlinalg
from ranklab.fqlinalg import (
    Mat,
    RowReducer,
    SubspaceBasis,
    cheapest,
    digit_rows,
    enumerate_subspaces,
    iter_span_rows,
    kernel,
    log_column,
    mat_inverse,
    mat_mul,
    min_poly,
    prime_expansion,
    projective_points,
    qbinom,
    row_blocks,
    rref,
    slot_width,
    span_chunks,
    store_digits,
    store_row,
    theta,
    unpack_row,
    vanishing_tails,
    vec_mat,
)

F2 = Field(2)


def meet(A: SubspaceBasis, B: SubspaceBasis) -> SubspaceBasis:
    """A ∩ B by Zassenhaus through vanishing_tails: the tails a of the
    combinations of rows a | a (a in A) and b | 0 (b in B) whose head a + b
    vanished."""
    F, m = A.field, A.ambient
    join, zero = row_blocks(F, m)[1], store_row(F, [0] * m)
    rows = [join(a, a) for a in (store_row(F, r) for r in A.rows)]
    rows += [join(store_row(F, b), zero) for b in B.rows]
    return SubspaceBasis.from_vectors(
        F, m, [unpack_row(F, t, m) for t in vanishing_tails(F, m, 2 * m, rows)])


def test_rref_identity_and_zero():
    I3 = Mat.identity(F2, 3)
    R, rank = rref(I3)
    assert R.data == I3.data and rank == 3
    Z = Mat.zero(F2, 2, 3)
    R, rank = rref(Z)
    assert R.data == Z.data and rank == 0


def test_rref_duplicate_rows():
    R, rank = rref(Mat.from_rows(F2, [[1, 1], [1, 1]]))
    assert R.data == [[1, 1], [0, 0]] and rank == 1


def test_rref_normalizes_pivots_over_f3():
    F3 = Field(3)
    R, rank = rref(Mat.from_rows(F3, [[2, 1], [1, 1]]))  # det = 1
    assert rank == 2 and R.data == [[1, 0], [0, 1]]
    R, rank = rref(Mat.from_rows(F3, [[2, 1], [1, 2]]))  # det = 3 = 0
    assert rank == 1 and R.data == [[1, 2], [0, 0]]


def test_kernel_identity_and_zero():
    assert kernel(Mat.identity(F2, 3)).dim == 0
    assert kernel(Mat.zero(F2, 2, 3)).dim == 3


def test_kernel_matches_exhaustive_solution_set():
    M = Mat.from_rows(F2, [[1, 0, 1]])
    K = kernel(M)
    # oracle: solve over all 8 vectors
    sols = {v for v in itertools.product((0, 1), repeat=3)
            if (v[0] + v[2]) % 2 == 0}
    assert K.dim == 2 and (1, 0, 1) in sols
    assert {tuple(v) for v in iter_span_rows(K.rows, F2, 3)} == sols


def test_kernel_rref_exhaustive_small_f2():
    # every matrix over F_2 up to 3x4: kernel equals the brute-force solution set
    for rows, cols in ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4)):
        for bits in range(2 ** (rows * cols)):
            data = [[(bits >> (r * cols + c)) & 1 for c in range(cols)]
                    for r in range(rows)]
            M = Mat.from_rows(F2, data, cols)
            K = kernel(M)
            sols = {v for v in itertools.product((0, 1), repeat=cols)
                    if all(sum(a * b for a, b in zip(row, v)) % 2 == 0
                           for row in data)}
            span = {tuple(v) for v in iter_span_rows(K.rows, F2, cols)}
            assert span == sols


PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


@pytest.mark.parametrize("q", sorted(PRIME_POWERS))
def test_kernel_is_the_rref_of_the_brute_force_null_space(q):
    # kernel reads its basis off the RREF of M with its columns reversed:
    # it must span every solution of M v = 0 and already be canonical, on
    # 0-row, zero, full-rank and random matrices
    F = make_tower(*PRIME_POWERS[q], 1, 1).base
    add, mul = F.add, F.mul
    rng = random.Random(q)
    widest = 4 if q <= 5 else 3
    cases = [[] for _ in range(widest)] + [[[0] * c] * 2 for c in range(1, widest + 1)]
    cases += [Mat.identity(F, c).data[::-1] for c in range(1, widest + 1)]
    cases += [[[rng.randrange(q) for _ in range(c)] for _ in range(r)]
              for _ in range(6) for c in range(1, widest + 1) for r in range(1, c + 2)]
    full_rank = zero_rank = 0
    for i, rows in enumerate(cases):
        ncols = len(rows[0]) if rows else i + 1
        K = kernel(Mat.from_rows(F, rows, ncols))
        sols = {v for v in itertools.product(range(q), repeat=ncols)
                if not any(reduce(add, map(mul, row, v), 0) for row in rows)}
        assert {tuple(v) for v in iter_span_rows(K.rows, F, ncols)} == sols, rows
        canonical = SubspaceBasis.from_vectors(F, ncols, K.rows)
        assert (K.stored, K.pivots) == (canonical.stored, canonical.pivots), rows
        full_rank += K.dim == 0
        zero_rank += K.dim == ncols
    assert full_rank and zero_rank


def test_head_elimination_matches_vanishing_tails():
    # blocks head | tail of one int over F_2: the rank of the heads, and
    # the blocks left nonzero span the tails of the combinations with zero
    # head, as vanishing_tails finds them row by row
    rng = random.Random(5)
    for heads, width, nblocks in ((3, 4, 5), (4, 2, 3), (5, 3, 8), (2, 6, 1), (4, 4, 0)):
        block = heads + width
        eliminate = fqlinalg.head_elimination(heads, block, nblocks)
        for _ in range(30):
            rows = [rng.getrandbits(block) for _ in range(nblocks)]
            if rng.randrange(3) == 0 and nblocks > 1:
                rows[-1] = rows[0] ^ rows[1]
            rank, y = eliminate(sum(r << (t * block) for t, r in enumerate(rows)))
            left = [y >> (t * block) & ((1 << block) - 1) for t in range(nblocks)]
            assert not any(b & ((1 << heads) - 1) for b in left)
            heads_rank = RowReducer(F2, heads).add_all(r & ((1 << heads) - 1) for r in rows)
            assert rank == heads_rank
            want = vanishing_tails(F2, heads, block, rows)
            got = [b >> heads for b in left if b]
            assert SubspaceBasis.from_vectors(F2, width, [unpack_row(F2, t, width) for t in got]) \
                == SubspaceBasis.from_vectors(F2, width, [unpack_row(F2, t, width) for t in want])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_indicators_spread_a_row_by_integer_products(p):
    # Σ_c ind_c·(c·x) puts codes[t]·x in block t, with no carry between blocks
    F = Field(p)
    rng = random.Random(p)
    for width, nblocks in ((1, 4), (3, 5), (4, 1)):
        x = [rng.randrange(p) for _ in range(width)]
        for _ in range(10):
            codes = [rng.randrange(p) for _ in range(nblocks)]
            got = sum(ind * store_row(F, [F.mul(c, a) for a in x])
                      for c, ind in fqlinalg.block_indicators(F, width, codes))
            assert unpack_row(F, got, width * nblocks) == [
                F.mul(c, a) for c in codes for a in x]


def test_intersect_self_and_complementary():
    A = SubspaceBasis.from_vectors(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    B = SubspaceBasis.from_vectors(F2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert meet(A, A) == A
    assert meet(A, B).dim == 0


def test_intersect_matches_exhaustive_membership():
    rng = random.Random(5)
    for _ in range(25):
        A = SubspaceBasis.from_vectors(
            F2, 5, [[rng.randrange(2) for _ in range(5)] for _ in range(3)])
        B = SubspaceBasis.from_vectors(
            F2, 5, [[rng.randrange(2) for _ in range(5)] for _ in range(3)])
        got = meet(A, B)
        span = lambda S: set(iter_span_rows(S.rows, F2, 5))
        assert span(got) == span(A) & span(B)


def test_qbinom_values():
    assert qbinom(2, 1, 2) == 3
    assert qbinom(3, 5, 7) == 0
    assert qbinom(4, 2, 2) == 35
    assert qbinom(5, 0, 3) == 1
    assert qbinom(-1, 0, 2) == 0


def test_qbinom_counts_subspaces_exhaustively():
    # cross-check 35 against a from-scratch enumeration of 2-dim subspaces
    seen = set()
    vectors = list(itertools.product((0, 1), repeat=4))
    for v1 in vectors:
        for v2 in vectors:
            S = SubspaceBasis.from_vectors(F2, 4, [list(v1), list(v2)])
            if S.dim == 2:
                seen.add(S)
    assert len(seen) == qbinom(4, 2, 2) == 35


@pytest.mark.parametrize("q,make_field", [
    (2, lambda: Field(2)),
    (3, lambda: Field(3)),
    (4, lambda: make_tower(2, 1, 2, 1).mid),
])
def test_enumerate_subspaces_hits_qbinom(q, make_field):
    F = make_field()
    for m in range(1, 6):
        for d in range(0, m + 1):
            subs = list(enumerate_subspaces(m, d, F))
            assert len(subs) == qbinom(m, d, q)
            assert len(set(subs)) == len(subs)


def test_enumerate_subspaces_budget_gate():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(10, 5, Field(2), budget=10))


def test_cheapest_takes_the_lowest_price_that_fits():
    # (price, items, unit, value): a cheaper entry that does not fit loses
    engines = [(1, 10, "a", "A"), (5, 3, "b", "B"), (7, 2, "c", "C")]
    assert cheapest(engines, 10) == "A"
    assert cheapest(engines, 9) == cheapest(engines, 3) == "B"
    assert cheapest(engines, 2) == "C"


def test_cheapest_breaks_ties_in_list_order():
    assert cheapest([(3, 1, "a", "A"), (3, 2, "b", "B")], 5) == "A"
    assert cheapest([(3, 2, "b", "B"), (3, 1, "a", "A")], 5) == "B"
    # a tie among the entries that fit, after a cheaper one that does not
    assert cheapest([(0, 9, "x", "X"), (2, 2, "b", "B"), (2, 1, "a", "A")], 5) == "B"


def test_cheapest_refuses_the_lowest_price_in_its_own_unit():
    # none fits: the lowest price is refused, not the fewest items, and a
    # tie on price goes to list order
    engines = [(9, 3, "codewords", "A"), (2, 7, "projective points", "B"),
               (2, 4, "subspaces", "C")]
    with pytest.raises(BudgetExceeded) as exc:
        cheapest(engines, 2)
    assert (exc.value.needed, exc.value.allowed, exc.value.what) == (7, 2, "projective points")
    with pytest.raises(BudgetExceeded, match="4 subspaces exceeds budget 2"):
        cheapest(engines[2:] + engines[:2], 2)


def test_lines_of_pg_1_4():
    F4 = make_tower(2, 1, 2, 1).mid
    assert len(list(enumerate_subspaces(2, 1, F4))) == 5
    assert theta(1, 4) == 5


def test_projective_points_count_and_canonicality():
    F4 = make_tower(2, 1, 2, 1).mid
    pts = list(projective_points(F4, 3))
    assert len(pts) == theta(2, 4) == 21
    assert len(set(pts)) == 21
    for p in pts:
        lead = next(x for x in p if x)
        assert lead == 1


def test_dim_formula_randomized_1000_trials():
    rng = random.Random(17)
    for _ in range(1000):
        m = rng.randrange(2, 11)
        A = SubspaceBasis.from_vectors(
            F2, m, [[rng.randrange(2) for _ in range(m)]
                    for _ in range(rng.randrange(0, m + 1))])
        B = SubspaceBasis.from_vectors(
            F2, m, [[rng.randrange(2) for _ in range(m)]
                    for _ in range(rng.randrange(0, m + 1))])
        assert A.sum(B).dim + meet(A, B).dim == A.dim + B.dim


@given(st.integers(2, 9), st.data())
def test_dim_formula_over_f3(m, data):
    F3 = Field(3)
    rows = st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m),
                    min_size=0, max_size=m)
    A = SubspaceBasis.from_vectors(F3, m, data.draw(rows))
    B = SubspaceBasis.from_vectors(F3, m, data.draw(rows))
    assert A.sum(B).dim + meet(A, B).dim == A.dim + B.dim


def test_mat_inverse_round_trip():
    F16 = make_tower(2, 1, 4, 1).mid
    rng = random.Random(3)
    for _ in range(10):
        M = Mat.from_rows(F16, [[rng.randrange(16) for _ in range(3)]
                                for _ in range(3)])
        if rref(M)[1] < 3:
            continue
        assert mat_mul(M, mat_inverse(M)).data == Mat.identity(F16, 3).data


def test_iter_span_rows_f16_coefficients():
    # F_{16}-span of one row has 16 elements, not just integer multiples
    F16 = make_tower(2, 1, 4, 1).mid
    vals = set(iter_span_rows([(1, 3)], F16, 2))
    assert len(vals) == 16
    assert (7, F16.mul(7, 3)) in vals


# -- packed prime-field rows against a tuple-row oracle -------------------------


def _rref_mod_p(rows, p, ncols):
    """Oracle: Gauss-Jordan on lists of ints mod p (no Field, no packing)."""
    work = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        s = pow(work[rank][c], p - 2, p)
        work[rank] = [x * s % p for x in work[rank]]
        for i in range(len(work)):
            f = work[i][c]
            if i != rank and f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return work[:rank]


def _oracle_row_sets(p, rng):
    """Random matrices, some with zero rows, repeated rows and multiples of
    rows, and some of full rank."""
    for trial in range(40):
        ncols = rng.randrange(1, 9)
        nrows = rng.randrange(1, ncols + 3)
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        kind = trial % 4
        if kind == 1:
            rows[rng.randrange(nrows)] = [0] * ncols
            rows.append([0] * ncols)
        elif kind == 2:
            rows.append(list(rows[0]))
            rows.append([(p - 1) * x % p for x in rows[-1]])
        elif kind == 3:
            k = rng.randrange(1, ncols + 1)
            lead = sorted(rng.sample(range(ncols), k))
            rows = [[0] * ncols for _ in range(k)]
            for i, c in enumerate(lead):
                rows[i][c] = rng.randrange(1, p)
                for j in range(c + 1, ncols):
                    rows[i][j] = rng.randrange(p)
            rng.shuffle(rows)
        yield ncols, rows


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_packed_rows_match_tuple_oracle(p):
    F = Field(p)
    rng = random.Random(p)
    assert slot_width(F) == (1 if p == 2 else (2 * p - 2).bit_length() + 1)
    for ncols, rows in _oracle_row_sets(p, rng):
        want = _rref_mod_p(rows, p, ncols)
        for r in rows:
            assert unpack_row(F, store_row(F, r), ncols) == r
        assert RowReducer(F, ncols).add_all(rows) == len(want)
        rr = RowReducer(F, ncols)
        assert sum(rr.add(store_row(F, r)) for r in rows) == len(want) == rr.rank
        assert rr.clone().add([0] * ncols) is False
        R, rank = rref(Mat.from_rows(F, rows, ncols))
        assert rank == len(want) and R.data[:rank] == want
        assert all(not any(r) for r in R.data[rank:])
        B = SubspaceBasis.from_vectors(F, ncols, rows)
        assert [list(r) for r in B.rows] == want
        assert all(B.contains(r) for r in rows + list(B.rows))
        v = [rng.randrange(p) for _ in range(ncols)]
        assert B.contains(v) == (len(_rref_mod_p(rows + [v], p, ncols)) == len(want))
        other = SubspaceBasis.from_vectors(F, ncols, [v])
        assert meet(B, other).dim == other.dim - (
            len(_rref_mod_p(rows + [v], p, ncols)) - len(want))
        red = list(v)
        for row in want:
            f = red[next(j for j, x in enumerate(row) if x)]
            red = [(x - f * y) % p for x, y in zip(red, row)]
        assert B.reduce(v) == red


# -- extension-field elimination against a Gauss-Jordan oracle ------------------


def _rref_rows(F, rows, ncols):
    """Oracle: in-place Gauss-Jordan with Field arithmetic; returns (reduced
    nonzero rows, pivot columns)."""
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = inv(rows[r][c])
        rows[r] = [mul(s, x) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [add(x, neg(mul(f, y))) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


EXTENSION_FIELDS = {4: (2, 2), 8: (2, 3), 9: (3, 2)}


def _extension_field(q):
    return make_tower(*EXTENSION_FIELDS[q], 1, 1).base


def _extension_matrices(F, rng):
    """(nrows, ncols, rows): random, zero, duplicate-row (with a scaled copy)
    and full-rank square matrices over F."""
    q = F.order
    for trial in range(32):
        ncols = rng.randrange(1, 7)
        nrows = rng.randrange(1, ncols + 3)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        kind = trial % 4
        if kind == 1:
            rows = [[0] * ncols for _ in range(nrows)]
        elif kind == 2:
            c = rng.randrange(1, q)
            rows += [list(rows[0]), [F.mul(c, x) for x in rows[-1]]]
        elif kind == 3:
            nrows = ncols
            while True:
                rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
                if len(_rref_rows(F, rows, ncols)[0]) == ncols:
                    break
        yield len(rows), ncols, rows


def _oracle_kernel(F, rows, ncols):
    red, piv = _rref_rows(F, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in piv):
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(red, piv):
            v[p] = F.neg(row[f])
        basis.append(v)
    return _rref_rows(F, basis, ncols)[0]


@pytest.mark.parametrize("q", [4, 8, 9])
def test_extension_field_elimination_matches_gauss_jordan(q):
    F = _extension_field(q)
    assert F.base is not None
    rng = random.Random(q)
    for nrows, ncols, rows in _extension_matrices(F, rng):
        want, piv = _rref_rows(F, rows, ncols)
        M = Mat.from_rows(F, rows, ncols)
        R, rank = rref(M)
        assert rank == len(want) and R.data == want + [[0] * ncols] * (nrows - rank)
        B = SubspaceBasis.from_vectors(F, ncols, rows)
        assert [list(r) for r in B.rows] == want and list(B.pivots) == piv
        K = kernel(M)
        assert [list(r) for r in K.rows] == _oracle_kernel(F, rows, ncols)
        assert all(not any(vec_mat(v, M.transpose())) for v in K.rows)
        v = [rng.randrange(q) for _ in range(ncols)]
        grows = len(_rref_rows(F, rows + [v], ncols)[0]) > rank
        assert B.contains(v) is not grows
        assert all(B.contains(r) for r in rows)
        rep = B.reduce(v)
        assert all(rep[p] == 0 for p in piv)
        diff = [F.add(x, F.neg(y)) for x, y in zip(v, rep)]
        assert len(_rref_rows(F, want + [diff], ncols)[0]) == rank
        if nrows == ncols:
            if rank == ncols:
                aug, _ = _rref_rows(F, [r + [int(i == j) for j in range(ncols)]
                                        for i, r in enumerate(rows)], 2 * ncols)
                assert mat_inverse(M).data == [r[ncols:] for r in aug]
            else:
                with pytest.raises(InvalidParams):
                    mat_inverse(M)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_extension_field_intersect_matches_gauss_jordan(q):
    F = _extension_field(q)
    rng = random.Random(100 + q)
    mats = list(_extension_matrices(F, rng))
    for (_, na, a), (_, nb, b) in zip(mats, mats[1:]):
        m = min(na, nb)
        a, b = [r[:m] for r in a], [r[:m] for r in b]
        A = SubspaceBasis.from_vectors(F, m, a)
        Bs = SubspaceBasis.from_vectors(F, m, b)
        stacked = [r + r for r in a] + [r + [0] * m for r in b]
        red, _ = _rref_rows(F, stacked, 2 * m)
        want = _rref_rows(F, [r[m:] for r in red if not any(r[:m])], m)[0]
        assert [list(r) for r in meet(A, Bs).rows] == want


def test_reduce_gives_one_representative_per_coset_over_f9():
    F9 = make_tower(3, 2, 1, 1).base
    rng = random.Random(9)
    B = SubspaceBasis.from_vectors(F9, 4, [[rng.randrange(9) for _ in range(4)]
                                           for _ in range(2)])
    v = [rng.randrange(9) for _ in range(4)]
    rep = B.reduce(v)
    assert all(rep[p] == 0 for p in B.pivots)
    for c in range(9):
        shifted = [F9.add(x, F9.mul(c, y)) for x, y in zip(v, B.rows[0])]
        assert B.reduce(shifted) == rep


@pytest.mark.parametrize("q", [4, 9])
def test_reduce_returns_the_stored_form_over_extension_fields(q):
    F = _extension_field(q)
    rng = random.Random(40 + q)
    B = SubspaceBasis.from_vectors(F, 5, [[rng.randrange(q) for _ in range(5)]
                                          for _ in range(2)])
    rr = B.reducer()
    for _ in range(20):
        v = [rng.randrange(q) for _ in range(5)]
        # v less v[p]·row for each RREF row and its pivot p
        want = list(v)
        for row, p in zip(B.rows, B.pivots):
            want = [F.add(x, F.neg(F.mul(v[p], y))) for x, y in zip(want, row)]
        assert rr.reduce(v) == store_row(F, want)
        assert B.reduce(v) == want and isinstance(B.reduce(v), list)


FIELD_OF = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


@pytest.mark.parametrize("q", sorted(FIELD_OF))
def test_mat_mul_matches_the_entrywise_sum_of_products(q):
    """mat_mul (row combinations of stored rows) against Σ_a A[i][a]·B[a][j]
    entry by entry, empty shapes included, and against vec_mat row by row."""
    F = make_tower(*FIELD_OF[q], 1, 1).base
    rng = random.Random(60 + q)
    for rows, inner, cols in [(0, 2, 3), (2, 0, 3), (3, 2, 0), (1, 1, 1), (3, 4, 5), (6, 6, 6)]:
        A = Mat.from_rows(F, [[rng.randrange(q) for _ in range(inner)] for _ in range(rows)], inner)
        B = Mat.from_rows(F, [[rng.randrange(q) for _ in range(cols)] for _ in range(inner)], cols)
        want = [[0] * cols for _ in range(rows)]
        for i, j, a in itertools.product(range(rows), range(cols), range(inner)):
            want[i][j] = F.add(want[i][j], F.mul(A.data[i][a], B.data[a][j]))
        AB = mat_mul(A, B)
        assert (AB.rows, AB.cols, AB.data) == (rows, cols, want), (q, rows, inner, cols)
        assert AB.data == [vec_mat(r, B) for r in A.data]
    with pytest.raises(InvalidParams):
        mat_mul(Mat.identity(F, 2), Mat.identity(F, 3))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_contains_refuses_a_vector_of_another_length(q):
    """A code sequence longer or shorter than the ambient is refused, over
    prime and extension fields alike; over a prime field a packed row with a
    nonzero slot beyond the ambient is not a member."""
    F = make_tower(*FIELD_OF[q], 1, 1).base
    rng = random.Random(70 + q)
    B = SubspaceBasis.from_vectors(F, 4, [[rng.randrange(q) for _ in range(4)]
                                          for _ in range(2)])
    for row in B.rows:
        assert B.contains(list(row)) and B.contains(store_row(F, row))
        for bad in (list(row) + [0], list(row) + [1], list(row)[:3]):
            with pytest.raises(AmbientMismatch):
                B.contains(bad)
        if F.base is None:
            assert not B.contains(store_row(F, list(row) + [1]))


def _span_by_product(F, rows, ncols):
    """Every F-combination of code rows, by product enumeration."""
    out = set()
    for cs in itertools.product(range(F.order), repeat=len(rows)):
        v = [0] * ncols
        for c, row in zip(cs, rows):
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
        out.add(tuple(v))
    return out


@pytest.mark.parametrize("q", [2, 3, 9])
def test_vanishing_tails_against_span_enumeration(q):
    F = Field(q) if q < 4 else _extension_field(q)
    rng = random.Random(70 + q)
    most = {2: 7, 3: 5, 9: 3}[q]
    for trial in range(30):
        width, tail_w = rng.randrange(4), rng.randrange(1, 4)
        ncols = width + tail_w
        rows = [[rng.randrange(q) for _ in range(ncols)]
                for _ in range(rng.randrange(most + 1))]
        if trial % 3 == 1 and rows:
            # a combination whose head cancels against an earlier row
            rows.append(rows[0][:width] + [rng.randrange(q) for _ in range(tail_w)])
        want = {v[width:] for v in _span_by_product(F, rows, ncols) if not any(v[:width])}
        tails = vanishing_tails(F, width, ncols, [store_row(F, r) for r in rows])
        got = [unpack_row(F, t, tail_w) for t in tails]
        assert _span_by_product(F, got, tail_w) == want
        assert len(want) == q ** len(got)     # the tails are independent


@pytest.mark.parametrize("p", [3, 5])
def test_iter_span_packed_odd_p_matches_product(p):
    F = Field(p)
    rows = [[1, 2, 0, p - 1], [0, 1, 1, 2], [p - 1, 0, 2, 1]]
    want = {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(4))
            for cs in itertools.product(range(p), repeat=len(rows))}
    got = list(iter_span_rows(rows, F, 4))
    assert len(got) == p ** len(rows) and set(got) == want


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 2), (7, 1)])
def test_pack_digits_packs_the_flattened_coordinates(p, n):
    tower = make_tower(p, 1, n, 1)
    rng = random.Random(p * 100 + n)
    for _ in range(50):
        v = [rng.randrange(tower.mid.order) for _ in range(3)]
        flat = [x for c in v for x in tower.mid_to_base_vec(c)]
        assert store_digits(tower.base, v, n) == store_row(tower.base, flat)


# -- the point walk's read-back: a stored coordinate straight to its log ----------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_log_column_reads_every_code_to_its_log(q, n):
    """read against digit_rows and the log table, every code of the mid
    field in every coordinate of rows of three (the last one unmasked, and
    a lead in the last coordinate), and exp3[l - l_lead] against Field.mul
    and Field.inv, negative differences and the zero sentinel included.
    n = 4 reaches F_4096 and F_6561; at odd p the block dict starts empty
    and holds the blocks it has seen."""
    p, e = PRIME_POWER[q]
    tower = make_tower(p, e, n, 1)
    F, prime, deg = tower.mid, tower.prime, tower.mid.dim_over_prime
    m, order = F.order - 1, F.order
    table, _ = fqlinalg._log_table.__wrapped__(F)
    if p != 2 and deg > 1:
        assert table == {}
    read, exp3 = log_column(F, 3)
    logs = [2 * m - 1] + F._log[1:]
    vectors = [(c, (c + 1) % order, order - 1 - c) for c in range(order)]
    vectors += [(0, 0, c) for c in range(order)]
    rows = [store_digits(prime, v, deg) for v in vectors]
    assert list(digit_rows(prime, deg, 3)(rows)) == vectors
    for j in range(3):
        assert list(read(rows, j)) == [logs[v[j]] for v in vectors]
    assert len(exp3) == 3 * m
    units = F._exp[:m]
    leads = {1, units[m - 1], units[m // 2], units[(m + 1) // 3]}
    for a in leads:
        la, inv = logs[a], F.inv(a)
        assert [exp3[logs[c] - la] for c in range(order)] == [
            F.mul(c, inv) for c in range(order)]
    if p != 2 and deg > 1:
        fresh = fqlinalg._BlockLogs()
        fresh.code, fresh.log = fqlinalg._block_code(prime, deg), logs
        blocks = [store_digits(prime, [c], deg) for c in (5, 0, 5, 1)]
        assert [fresh[b] for b in blocks] == [logs[5], logs[0], logs[5], logs[1]]
        assert len(fresh) == 3


# -- the span walk against itertools.product -------------------------------------

# q -> (p, e)
PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


@pytest.mark.parametrize("q", sorted(PRIME_POWER))
def test_span_walk_matches_product(q):
    """Both forms of the one walk visit every F-combination exactly once:
    iter_span_rows (tuples) and span_chunks over the F_p-expansion (stored
    rows, read back through unpack_row)."""
    F = make_tower(*PRIME_POWER[q], 1, 1).base
    rng = random.Random(q)
    k, ncols = (3, 4) if q <= 5 else (2, 3)
    for _ in range(3):
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(k)]
        want = []
        for cs in itertools.product(range(q), repeat=k):
            v = [0] * ncols
            for c, row in zip(cs, rows):
                v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
            want.append(tuple(v))
        want.sort()
        assert sorted(iter_span_rows(rows, F, ncols)) == want
        stored = prime_expansion(F, [store_row(F, r) for r in rows])
        for size in (1, q, 1 << 12):
            chunks = list(span_chunks(F, store_row(F, [0] * ncols), stored, ncols, size))
            assert all(len(c) <= size for c in chunks)
            got = [tuple(unpack_row(F, v, ncols)) for c in chunks for v in c]
            assert sorted(got) == want


def minimal_polynomial(tower, level, code) -> tuple[int, ...]:
    """Monic minimal polynomial over F_q of the element code of the given
    level, as base-field codes: the product of (X - conjugate) over its
    distinct q-power conjugates, each coefficient checked to lie in F_q."""
    F = tower.field(level)
    conj, y = [], code
    while True:
        conj.append(y)
        y = tower.frob(level, y, 1)
        if y == code:
            break
    poly = (1,)
    for c in conj:
        poly = poly_mul(F, poly, (F.neg(c), 1))
    assert all(c < tower.q for c in poly)
    return tuple(poly)


def test_minimal_polynomial_degree_one_cases(t2_4):
    assert minimal_polynomial(t2_4, "mid", 1) == (1, 1)  # X + (-1) over F_2
    assert minimal_polynomial(t2_4, "mid", 0) == (0, 1)  # X


def test_minimal_polynomial_of_generator_divides_x16_minus_x(t2_4):
    mid = t2_4.mid
    mp = minimal_polynomial(t2_4, "mid", mid.gen)
    assert len(mp) == 5 and mp[-1] == 1
    # oracle: the product of (X - g^(2^i)) has exactly these base coefficients
    prod = (1,)
    for i in range(4):
        prod = poly_mul(mid, prod, (mid.neg(mid.pow(mid.gen, 2**i)), 1))
    assert prod == mp
    # divides X^16 - X: every element with this minimal polynomial is a root
    assert poly_eval(mid, mp, mid.gen) == 0
    x16_minus_x = [0] * 17
    x16_minus_x[16] = 1
    x16_minus_x[1] = t2_4.base.neg(1)
    assert poly_mod(t2_4.base, tuple(x16_minus_x), mp) == ()


def test_minimal_polynomial_degree_divides_extension(t2_32):
    for code in (0, 1, 5, 9, 33, 63):
        mp = minimal_polynomial(t2_32, "top", code)
        assert (len(mp) - 1) in (1, 2, 3, 6)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_min_poly_of_mult_matrix_is_the_minimal_polynomial(q):
    from ranklab.constructions import mult_matrix

    p, e = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    for n in range(1, 5):
        tower = make_tower(p, e, n, 1)
        for alpha in range(tower.mid.order):
            assert min_poly(mult_matrix(tower, alpha)) == \
                minimal_polynomial(tower, "mid", alpha), (q, n, alpha)


def test_min_poly_of_nilpotent_and_scalar_matrices():
    F3 = Field(3)
    assert min_poly(Mat.from_rows(F3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])) == (0, 0, 0, 1)
    assert min_poly(Mat.from_rows(F3, [[2, 0], [0, 2]])) == (1, 1)   # x - 2
    assert min_poly(Mat.from_rows(F3, [[1, 0], [0, 2]])) == (2, 0, 1)  # (x-1)(x-2)


def _least_annihilator(F, rows):
    """The least-degree monic f with f(M) = 0, by enumerating the
    coefficients of each degree in turn: the brute-force oracle of min_poly.
    Powers of M come from the entrywise sum of products."""
    s = len(rows)
    power = [[int(i == j) for j in range(s)] for i in range(s)]
    powers = []
    for _ in range(s + 1):
        powers.append([x for row in power for x in row])
        power = [[reduce(F.add, map(F.mul, row, col), 0) for col in zip(*rows)]
                 for row in power]
    for d in range(s + 1):
        for coeffs in itertools.product(range(F.order), repeat=d):
            value = list(powers[d])
            for c, P in zip(coeffs, powers):
                value = [F.add(x, F.mul(c, y)) for x, y in zip(value, P)]
            if not any(value):
                return coeffs + (1,)
    raise AssertionError("Cayley-Hamilton: some f of degree <= s annihilates M")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_min_poly_matches_the_least_annihilator(q):
    """min_poly (the kernel vector of the flattened powers) against the
    enumerated least annihilator: random matrices of sizes 1-3 and the
    special shapes zero, scalar, nilpotent, derogatory and 1 x 1."""
    F = make_tower(*PRIME_POWER[q], 1, 1).base
    rng = random.Random(80 + q)
    a, b = rng.randrange(1, q), rng.randrange(q)
    special = [
        [[0]], [[a]], [[0, 0], [0, 0]], [[0] * 3 for _ in range(3)],
        [[a, 0], [0, a]], [[b, 0, 0], [0, b, 0], [0, 0, b]],        # scalar
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, a], [0, 0]],         # nilpotent
        [[a, 0, 0], [0, a, 0], [0, 0, b]], [[a, 1, 0], [0, a, 0], [0, 0, a]],  # derogatory
    ]
    randoms = [[[rng.randrange(q) for _ in range(s)] for _ in range(s)]
               for s in (1, 2, 3) for _ in range(8)]
    for rows in special + randoms:
        f = min_poly(Mat.from_rows(F, rows))
        assert f == _least_annihilator(F, rows), (q, rows)


@pytest.mark.parametrize("q,k,ncols", [(2, 5, 3), (3, 3, 3), (5, 2, 3),
                                       (4, 7, 2), (9, 4, 2)])
def test_iter_span_rows_yields_odometer_order(q, k, ncols):
    """Item i of iter_span_rows is Σ c_j·rows[j] with the codes of c read
    off i in base q, row 0's digit fastest: itertools.product over the
    reversed coefficient tuple.  Over F_4 and F_9 the span has more than
    4,096 items, so span_chunks hands out more than one list of tuple
    rows."""
    F = make_tower(*PRIME_POWER[q], 1, 1).base
    rng = random.Random(90 + q)
    rows = [tuple(rng.randrange(q) for _ in range(ncols)) for _ in range(k)]
    want = []
    for cs in itertools.product(range(q), repeat=k):
        v = [0] * ncols
        for c, row in zip(reversed(cs), rows):
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
        want.append(tuple(v))
    assert list(iter_span_rows(rows, F, ncols)) == want
    if F.base is not None:
        chunks = span_chunks(F, store_row(F, [0] * ncols), prime_expansion(F, rows),
                             ncols, 1 << 12)
        assert len(want) > 1 << 12 and len(list(chunks)) > 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_replace_row_matches_from_vectors_on_the_replaced_rows(q):
    """B.replace_row(i, v) against from_vectors on B's rows with row i
    replaced by v, for every i: random v, the zero vector, a v in the span
    of the other rows (the dimension drops to k - 1), and a v whose first
    nonzero column c is each column that is not another row's pivot, so
    the new pivot falls before, at and after the removed one.  Built both
    ways, the bases are == and hash alike; v may be codes or a stored row."""
    F = make_tower(*FIELD_OF[q], 1, 1).base
    rng = random.Random(80 + q)
    n = 6
    seen = set()
    for k in (1, 1, 2, 2, 3, 3, 4, 5):
        # columns outside the support are zero in every row: pivots with gaps
        support = sorted(rng.sample(range(n), rng.randrange(k, n + 1)))
        while True:
            rows = [[0] * n for _ in range(k)]
            for row, j in itertools.product(rows, support):
                row[j] = rng.randrange(q)
            B = SubspaceBasis.from_vectors(F, n, rows)
            if B.dim == k:
                break
        for i in range(k):
            others = B.rows[:i] + B.rows[i + 1:]
            combo = [0] * n
            for row in others:
                c = rng.randrange(q)
                combo = [F.add(x, F.mul(c, y)) for x, y in zip(combo, row)]
            vs = [("random", [rng.randrange(q) for _ in range(n)]), ("zero", [0] * n),
                  ("drop", combo)]
            for c in sorted(set(range(n)) - set(B.pivots[:i] + B.pivots[i + 1:])):
                kind = "before" if c < B.pivots[i] else "at" if c == B.pivots[i] else "after"
                vs.append((kind, [0] * c + [rng.randrange(1, q)]
                           + [rng.randrange(q) for _ in range(n - c - 1)]))
            for kind, v in vs:
                want = SubspaceBasis.from_vectors(F, n, others[:i] + (v,) + others[i:])
                for vec in (v, store_row(F, v)):
                    got = B.replace_row(i, vec)
                    assert got == want and hash(got) == hash(want), (q, k, i, kind)
                    assert (got.rows, got.pivots, got.dim) == (want.rows, want.pivots,
                                                                 want.dim)
                if kind in ("zero", "drop"):
                    assert want.dim == k - 1
                seen.add((kind, k == 1))
    assert {kind for kind, _ in seen} == {"random", "zero", "drop", "before", "at", "after"}
    assert (("zero", True) in seen and ("at", True) in seen)
    with pytest.raises(AmbientMismatch):
        B.replace_row(0, [0] * (n + 1))
    for i in (-1, B.dim):
        with pytest.raises(IndexError):
            B.replace_row(i, [0] * n)
