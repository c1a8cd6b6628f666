"""Gabidulin / twisted Gabidulin codes, C_{U,G}, Sheekey codes, the converse
extraction, the Gabidulin restriction, pseudoreguli and the randomized search."""

import math
import random

import pytest

from ranklab.errors import (
    BudgetExceeded,
    DivisibilityViolation,
    EtaConditionViolated,
    GateError,
    GcdViolation,
    IdealiserNotMaximal,
    InternalInvariantError,
    InvalidParams,
    IotaFull,
    KTooLarge,
    NotMRD,
)
from ranklab.fields import _monic, make_tower, poly_eval
from ranklab.fqlinalg import (
    Mat,
    SubspaceBasis,
    basis_codes,
    kernel,
    mat_inverse,
    mat_mul,
    qbinom,
    rref,
    vec_mat,
)
from ranklab.rankcodes import (
    RankCode,
    mrd_weight_distribution,
    right_idealiser,
)
from ranklab.subspaces import (
    FqSubspace,
    iota,
    is_h_scattered,
    ordinary_dual,
)
from ranklab.constructions import (
    LinearizedPoly,
    _canonical_projection,
    _cug_codewords,
    _mrd_criterion,
    c_ug,
    cug_mrd_weight_distribution,
    find_nonsquare,
    gabidulin,
    gabidulin_restriction,
    mrd_to_subspace,
    pseudoregulus_subspace,
    random_scattered_search,
    twisted_gabidulin,
)

from oracles import flatten_vec, mult_matrix, unflatten_vec


# -- Gabidulin ----------------------------------------------------------------


def test_gabidulin_4_2_1_parameters(t2_4, scanned):
    C = gabidulin(t2_4, 4, 2, 1)
    assert (C.m, C.n, C.q, C.dim) == (4, 4, 2, 8)
    assert C.min_distance() == scanned(C).min_distance() == 3
    assert C.is_mrd() and scanned(C).is_mrd()


def test_gabidulin_k1_is_multiplication_field(t2_4, scanned):
    C = gabidulin(t2_4, 4, 1, 1)
    assert C.dim == 4
    # nonzero multiplications are invertible
    assert C.min_distance() == scanned(C).min_distance() == 4


def test_gabidulin_gates(t2_4):
    with pytest.raises(GcdViolation):
        gabidulin(t2_4, 4, 2, 2)
    with pytest.raises(KTooLarge):
        gabidulin(t2_4, 4, 4, 1)


def test_gabidulin_rank_distribution_equals_closed_form(t2_4, scanned):
    for k in (1, 2, 3):
        C = gabidulin(t2_4, 4, k, 1)
        assert C.rank_distribution().A == mrd_weight_distribution(4, 4, 2, 4 - k + 1).A
        assert scanned(C).rank_distribution() == C.rank_distribution()


def test_linearized_poly_matrix_rank_matches_kernel(t2_4):
    # x^2 + x vanishes exactly on F_2, so the matrix rank is n-1
    f = LinearizedPoly(t2_4, "mid", (1, 1))  # x + x^2
    M = f.to_matrix()
    assert rref(M)[1] == 3
    roots = [x for x in t2_4.mid.elements() if f.evaluate(x) == 0]
    assert len(roots) == 2


# -- twisted Gabidulin ----------------------------------------------------------


def test_twisted_gabidulin_q3_is_mrd(scanned):
    t = make_tower(3, 1, 4, 1)
    eta = find_nonsquare(t, "mid")
    tg = twisted_gabidulin(t, 4, 2, 1, eta, 0)
    assert not tg.untwisted
    assert tg.code.dim == 8
    assert tg.code.min_distance() == scanned(tg.code).min_distance() == 3
    assert tg.code.is_mrd() and scanned(tg.code).is_mrd()


@pytest.mark.parametrize("s", [-1, 5, -3])
def test_gabidulin_s_outside_one_to_n_is_invalid(s, t2_4, t3_4):
    # gcd(s, 4) = 1, but s is read mod N: s = -1 and 5 would build the codes
    # of s = 3 and 1 under another s, so they are refused like eta and c
    eta = find_nonsquare(t3_4, "mid")
    for build in (lambda: gabidulin(t2_4, 4, 2, s),
                  lambda: twisted_gabidulin(t3_4, 4, 2, s, eta, 0)):
        with pytest.raises(InvalidParams, match=f"need 1 <= s < N, got s={s}"):
            build()
    for bad in (0, 2):
        with pytest.raises(GcdViolation):
            twisted_gabidulin(t3_4, 4, 2, bad, eta, 0)


def test_twisted_gabidulin_eta_condition_rejects_all_of_f16(t2_4):
    # q=2, N=4, k=2: eta^15 = 1 = (-1)^8 for every nonzero eta
    for eta in range(1, 16):
        with pytest.raises(EtaConditionViolated):
            twisted_gabidulin(t2_4, 4, 2, 1, eta, 0)


def test_twisted_gabidulin_eta_out_of_range_is_invalid(t3_4):
    # eta is an element code of F_{q^N}: 0 <= eta < q^N = 81, like 0 <= c < N
    for eta in (-1, 81, 99999):
        with pytest.raises(InvalidParams, match=f"need 0 <= eta < q\\^N = 81, got eta={eta}"):
            twisted_gabidulin(t3_4, 4, 2, 1, eta, 0)
    assert twisted_gabidulin(t3_4, 4, 2, 1, 80, 0).code.dim == 8


def test_twisted_gabidulin_eta_zero_untwisted(t2_4):
    tg = twisted_gabidulin(t2_4, 4, 2, 1, 0, 0)
    assert tg.untwisted
    assert tg.code == gabidulin(t2_4, 4, 2, 1)


def test_twisted_differs_from_plain_gabidulin_q3():
    t = make_tower(3, 1, 4, 1)
    eta = find_nonsquare(t, "mid")
    assert twisted_gabidulin(t, 4, 2, 1, eta, 0).code != gabidulin(t, 4, 2, 1)


# -- C_{U,G} ----------------------------------------------------------------------


def test_cug_pseudoregulus(pseudoreg, scanned):
    cug = c_ug(pseudoreg)
    assert cug.iota == 1
    assert (cug.code.m, cug.code.n, cug.code.q) == (4, 4, 2)
    assert cug.code.dim == 8
    assert cug.code.min_distance() == scanned(cug.code).min_distance() == 4 - 1
    assert cug.code.is_mrd() and scanned(cug.code).is_mrd()
    R = right_idealiser(cug.code)
    assert R.order == 16 and R.is_field


def test_cug_kernel_is_u(pseudoreg):
    cug = c_ug(pseudoreg)
    assert kernel(cug.G) == pseudoreg.flat


def test_cug_iota_full_gate(t2_4):
    g = t2_4.mid.gen
    line_rows = []
    w = [1, 0]
    for _ in range(4):
        line_rows.append(tuple(w))
        w = [t2_4.mid.mul(g, c) for c in w]
    U = FqSubspace.from_mid_vectors(t2_4, 2, line_rows)
    with pytest.raises(IotaFull):
        c_ug(U)


def test_cug_zero_subspace(t2_4, scanned):
    cug = c_ug(FqSubspace.zero(t2_4, 2))
    assert (cug.code.m, cug.code.n) == (8, 4)
    assert cug.code.rank_distribution() == scanned(cug.code).rank_distribution()
    assert cug.code.min_distance() == 4
    assert cug.code.is_mrd()


def c_ug_mrd_predicate(U):
    """The MRD criterion for C_{U,G} (constructions._mrd_criterion) at
    iota = c_ug(U).iota; c_ug raises IotaFull when iota = n."""
    return _mrd_criterion(U, c_ug(U).iota)


def test_cug_mrd_predicate_tracks_brute_force(t2_4, pseudoreg, scanned):
    assert c_ug_mrd_predicate(pseudoreg)
    # a 3-dim subspace of the pseudoregulus: iota = 1 but k != iota*rn/(iota+1)
    U3 = FqSubspace.from_mid_vectors(t2_4, 2, list(pseudoreg.basis_mid)[:3])
    assert U3.k == 3 and iota(U3) == 1
    assert not c_ug_mrd_predicate(U3)
    assert not scanned(c_ug(U3).code).is_mrd()


def test_cug_k_above_bound_has_no_full_rank_word(t2_4, scanned):
    # k > (r-1)n: every codeword has a nontrivial kernel
    rng = random.Random(4)
    from ranklab.subspaces import random_subspace

    while True:
        U = random_subspace(t2_4, 2, 5, rng)
        if iota(U) < 4:
            break
    assert not c_ug_mrd_predicate(U)
    C = c_ug(U).code
    dist = scanned(C).rank_distribution()
    assert dist == C.rank_distribution()
    assert dist.A[-1] == 0 or len(dist.A) - 1 < 4  # no rank-n codeword


class KernelMismatch(GateError):
    pass


def c_ug_g_independence(U: FqSubspace, G1: Mat, G2: Mat) -> Mat:
    """Invertible L with L∘C_{U,G1} = C_{U,G2}, built on a complement basis."""
    if kernel(G1) != U.flat or kernel(G2) != U.flat:
        raise KernelMismatch("both maps must have kernel flat(U)")
    tower, r, base = U.tower, U.r, U.tower.base
    pivset = set(U.flat.pivots)
    comp = [j for j in range(r * tower.n) if j not in pivset]
    # G1 and G2 restricted to the complement columns
    W1, W2 = (Mat.from_rows(base, [[row[j] for j in comp] for row in G.data], len(comp))
              for G in (G1, G2))
    L = mat_mul(W2, mat_inverse(W1))
    for M1, M2 in zip(_cug_codewords(tower, r, G1), _cug_codewords(tower, r, G2)):
        lhs = mat_mul(L, Mat.from_rows(base, M1, tower.n))
        if lhs.data != M2:
            raise InternalInvariantError("L∘C_{U,G1} != C_{U,G2}")
    return L


def test_cug_g_independence(pseudoreg, t2_4):
    G1 = _canonical_projection(pseudoreg)
    L = c_ug_g_independence(pseudoreg, G1, G1)
    assert L.data == Mat.identity(t2_4.base, 4).data
    rng = random.Random(7)
    while True:
        P = Mat.from_rows(t2_4.base,
                          [[rng.randrange(2) for _ in range(4)] for _ in range(4)])
        if rref(P)[1] == 4:
            break
    L = c_ug_g_independence(pseudoreg, G1, mat_mul(P, G1))
    assert L.data == P.data


def test_cug_g_independence_annihilator_construction(pseudoreg, t2_4):
    # an independently built G: the dot-product annihilator of flat(U)
    G1 = _canonical_projection(pseudoreg)
    ann = kernel(Mat.from_rows(t2_4.base,
                               [list(v) for v in pseudoreg.flat.rows], 8))
    G2 = Mat.from_rows(t2_4.base, [list(v) for v in ann.rows], 8)
    assert kernel(G2) == pseudoreg.flat
    c_ug_g_independence(pseudoreg, G1, G2)  # raises on any mismatch


PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


def _gamma_products(tower, r, G):
    """Γ_v = G∘τ_v for v = g^j·e_i, one product G·flat(g^l·v) per column:
    the oracle of the windows of constructions._cug_codewords."""
    mid, n = tower.mid, tower.n
    g = mid.gen if n > 1 else 1
    out = []
    for i in range(r):
        for j in range(n):
            v = [0] * r
            v[i] = mid.pow(g, j)
            cols = []
            for _ in range(n):
                cols.append(vec_mat(flatten_vec(tower, v), G.transpose()))
                v = [mid.mul(g, c) for c in v]
            out.append(Mat.from_rows(G.field, cols, G.rows).transpose().data)
    return out


def test_gamma_windows_match_the_per_vector_products():
    # every q <= 9 but 7, r <= 3 and n <= 4 (n = 1 included): the canonical G
    # of a seeded U, and P·G for a seeded invertible P
    from ranklab.subspaces import random_subspace

    rng = random.Random(24)
    for q, r, n in [(q, r, n) for q in PRIME_POWER for r in (1, 2, 3) for n in (1, 2, 3, 4)]:
        tower = make_tower(*PRIME_POWER[q], n, 1)
        G = _canonical_projection(random_subspace(tower, r, rng.randrange(r * n), rng))
        while True:
            P = Mat.from_rows(tower.base, [[rng.randrange(q) for _ in range(G.rows)]
                                           for _ in range(G.rows)], G.rows)
            if rref(P)[1] == G.rows:
                break
        for M in (G, mat_mul(P, G)):
            assert _cug_codewords(tower, r, M) == _gamma_products(tower, r, M), (q, r, n)


def test_basis_codes_match_both_former_formulas():
    # the F_p-basis of any field (prime_expansion's scalars) and the F_q-basis
    # of each tower level (flat coordinates), formerly two formulas
    def prime_formula(F):
        if F.base is None:
            return [1]
        return [c * F.base.order**j for j in range(F.deg) for c in prime_formula(F.base)]

    def level_formula(tower, level):
        q = tower.base.order
        if level == "base":
            return [1]
        if level == "mid":
            return [q**j for j in range(tower.n)]
        qn = q**tower.n
        return [q**j * qn**i for i in range(tower.t) for j in range(tower.n)]

    for q in PRIME_POWER:
        for n in (1, 2, 3, 4):
            for t in (1, 2):
                if q ** (n * t) > 1 << 16:
                    continue
                tower = make_tower(*PRIME_POWER[q], n, t)
                for level in ("base", "mid", "top"):
                    F = tower.field(level)
                    assert basis_codes(F) == prime_formula(F), (q, n, t, level)
                    assert basis_codes(F, tower.base) == level_formula(tower, level), \
                        (q, n, t, level)


# -- Sheekey codes ------------------------------------------------------------------


def sheekey_code(polys):
    """S_{f_1..f_r}: the code spanned by all F_{q^n}-scalings γ·f_i of the
    q-polynomials f_i over one field; its left idealiser contains the
    multiplication field.  It is degenerate when its dimension is below r·N."""
    tower, level = polys[0].tower, polys[0].level
    F = tower.field(level)
    gens = [LinearizedPoly(tower, level, tuple(F.mul(gamma, a) for a in f.coeffs)).to_matrix()
            for f in polys for gamma in basis_codes(tower.field(level), tower.base)]
    N = polys[0].deg_over_base
    return RankCode.from_generators(tower.base, N, N, gens)


def test_sheekey_x_xq_matches_scatteredness(t2_4):
    f1 = LinearizedPoly(t2_4, "mid", (1,))
    f2 = LinearizedPoly(t2_4, "mid", (0, 1))
    S = sheekey_code([f1, f2])
    assert S.dim == 2 * 4     # not degenerate
    U = FqSubspace.from_mid_vectors(
        t2_4, 2, [(b, t2_4.frob("mid", b, 1)) for b in (1, 2, 4, 8)])
    assert is_h_scattered(U, 1)
    assert S.min_distance() == 3
    assert S.is_mrd()


def test_sheekey_degenerate_pair(t2_4):
    f1 = LinearizedPoly(t2_4, "mid", (1,))
    S = sheekey_code([f1, f1])
    assert S.dim == 4 < 2 * 4     # degenerate


def test_sheekey_adjoint_feeds_converse(t2_4, adjoint):
    f1 = LinearizedPoly(t2_4, "mid", (1,))
    f2 = LinearizedPoly(t2_4, "mid", (0, 1))
    A = adjoint(sheekey_code([f1, f2]))
    R = right_idealiser(A)
    assert R.order == 16
    ext = mrd_to_subspace(A, t2_4)
    assert ext.subspace.k == 4 and iota(ext.subspace) == 1


# -- converse extraction ---------------------------------------------------------------


def test_mrd_to_subspace_round_trip(pseudoreg, t2_4):
    C = c_ug(pseudoreg).code
    ext = mrd_to_subspace(C, t2_4)
    assert (ext.subspace.k, iota(ext.subspace)) == (4, 1)
    assert ext.reconstructed == ext.conjugated_code
    # basis-wise membership both ways
    assert all(ext.conjugated_code.contains([list(r) for r in M])
               for M in ext.reconstructed.basis_matrices())
    assert all(ext.reconstructed.contains([list(r) for r in M])
               for M in ext.conjugated_code.basis_matrices())


def test_mrd_to_subspace_gabidulin_input(t2_4):
    ext = mrd_to_subspace(gabidulin(t2_4, 4, 2, 1), t2_4)
    assert ext.subspace.k == 4
    assert iota(ext.subspace) == 1


def test_mrd_to_subspace_gates(t2_4):
    t22 = make_tower(2, 1, 2, 1)
    full = RankCode.from_generators(
        t22.base, 2, 2,
        [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]])
    with pytest.raises(IdealiserNotMaximal):
        mrd_to_subspace(full, t22)  # |R| = 16 != q^n = 4
    low = RankCode.from_generators(t22.base, 2, 2, [[[1, 0], [0, 0]]])
    with pytest.raises(NotMRD):
        mrd_to_subspace(low, t22)


def test_mrd_to_subspace_budgets_the_root_scan():
    # the 8-subspace rank scan fits budget 8; the 25 elements of F_25 do not
    tower = make_tower(5, 1, 2, 1)
    C = gabidulin(tower, 2, 1, 1)
    with pytest.raises(BudgetExceeded) as exc:
        mrd_to_subspace(C, tower, budget=8)
    assert (exc.value.needed, exc.value.allowed, exc.value.what) == (25, 8, "F_{q^n} elements")
    ext = mrd_to_subspace(C, tower, budget=25)
    assert ext.reconstructed.flat == ext.conjugated_code.flat


def test_mrd_to_subspace_minpoly_without_root_is_internal(tmp_path, monkeypatch, capsys):
    from ranklab import cli, constructions, serialize
    from ranklab.errors import InternalInvariantError
    from ranklab.fields import is_irreducible, least_irreducible

    t22 = make_tower(2, 1, 2, 1)
    no_root = least_irreducible(t22.mid, 2)   # irreducible of degree 2 over F_4
    assert is_irreducible(t22.mid, no_root)
    idealiser = constructions.right_idealiser   # the converse reads its generator
    monkeypatch.setattr(constructions, "right_idealiser", lambda C: idealiser(C)._replace(
        generator=(idealiser(C).generator[0], no_root, idealiser(C).generator[2])))
    C = gabidulin(t22, 2, 1, 1)
    with pytest.raises(InternalInvariantError, match="no root"):
        mrd_to_subspace(C, t22)
    code_file = tmp_path / "g.code.json"
    serialize.dump_file(str(code_file), serialize.rankcode_to_json(C))
    assert cli.main(["extract-subspace", "--code", str(code_file)]) == 4
    assert "internal error" in capsys.readouterr().err


class _StuckReducer:
    """A RowReducer whose add never raises the rank: the greedy right basis
    falls short."""

    def __init__(self, F, ncols):
        self.rank = 0

    def add(self, row):
        return False


def _wrong_root(F, f, x):
    """0 only at the first element of F_16 outside F_4 that is not a root of
    f: poly_eval with a fault that hands the converse a wrong root γ, whose
    powers still form a basis, so conj is invertible but does not carry Y
    to m_γ."""
    wrong = next(y for y in F.elements() if F.pow(y, 4) != y and poly_eval(F, f, y))
    return int(x != wrong)


@pytest.mark.parametrize("fault,match", [
    ("poly_eval", "differs from C'"),            # a wrong root γ in the conjugation
    ("RowReducer", "right F_{q\\^n}-basis"),     # the greedy basis falls short
])
def test_right_basis_failures_are_internal(fault, match, tmp_path, monkeypatch, capsys):
    # an accepted C has C·Y ⊆ C, so its greedy right F_q[Y]-basis spans it,
    # and a conjugation by a root of Y's minimal polynomial gives back C':
    # either failing is a ranklab bug (exit 4), not a rejected input (exit 2)
    from ranklab import cli, constructions, serialize

    t24 = make_tower(2, 1, 4, 1)
    monkeypatch.setattr(constructions, fault, {"poly_eval": _wrong_root,
                                               "RowReducer": _StuckReducer}[fault])
    C = gabidulin(t24, 4, 2, 1)
    with pytest.raises(InternalInvariantError, match=match):
        mrd_to_subspace(C, t24)
    code_file = tmp_path / "g.code.json"
    serialize.dump_file(str(code_file), serialize.rankcode_to_json(C))
    assert cli.main(["extract-subspace", "--code", str(code_file)]) == 4
    err = capsys.readouterr().err
    assert "internal error" in err and match.replace("\\", "") in err


def _solved_vanishing_subspace(code, tower, fn_basis, mult_mats):
    """U solved one kernel vector at a time, kept as the oracle of ker G: the
    codewords f with f(1) = 0, written f = Σ_i f_i·Σ_j ξ_ij·m_j and solved
    for the mid-coordinate vector ξ."""
    base, n = tower.base, tower.n
    col_matrix = Mat.from_rows(base, [[row[0] for row in M] for M in code.basis_matrices()],
                               code.m).transpose()
    coeff_mat = Mat.from_rows(base, [list(v) for v in code.flat.rows], code.m * n)
    phi_cols = [[x for row in mat_mul(f, mult).data for x in row]
                for f in fn_basis for mult in mult_mats]
    Phi = Mat.from_rows(base, phi_cols, code.m * n).transpose()
    u_vectors = []
    for v in kernel(col_matrix).rows:
        # Phi has independent columns, so Phi·ξ = b has one solution: the
        # kernel of [Phi | b] is the line of (−ξ, 1)
        b = vec_mat(list(v), coeff_mat)
        (w,) = kernel(Mat.from_rows(base, [r + [x] for r, x in zip(Phi.data, b)],
                                    Phi.cols + 1)).rows
        assert w[-1]
        xi = [base.neg(x) for x in _monic(base, w)[:-1]]
        u_vectors.append(unflatten_vec(tower, xi))
    return FqSubspace.from_mid_vectors(tower, len(fn_basis), u_vectors)


def _mid_mult_mats(tower):
    return [mult_matrix(tower, b) for b in basis_codes(tower.mid, tower.base)]


@pytest.mark.parametrize("p, e, n, kind", [(2, 1, 4, "cug"), (2, 1, 4, "gabidulin"),
                                           (3, 1, 4, "cug"), (3, 1, 3, "gabidulin"),
                                           (2, 2, 3, "cug"), (2, 2, 3, "gabidulin")])
def test_converse_kernel_matches_solved_subspace(p, e, n, kind, monkeypatch):
    # ker G against U solved on the converse's own right F_{q^n}-basis f_i
    # of C', which the solve also proves a basis: its Phi has independent
    # columns
    from ranklab import constructions

    tower = make_tower(p, e, n, 1)
    if kind == "cug":
        C = c_ug(pseudoregulus_subspace(tower, 2, n, 1)).code
    else:
        C = gabidulin(tower, n, 2, 1)
    fn_basis, evaluation_map = [], constructions._evaluation_map
    monkeypatch.setattr(constructions, "_evaluation_map",
                        lambda fs: fn_basis.extend(fs) or evaluation_map(fs))
    ext = mrd_to_subspace(C, tower)
    assert _solved_vanishing_subspace(ext.conjugated_code, tower, fn_basis,
                                      _mid_mult_mats(tower)) == ext.subspace


def test_cug_mrd_weight_distribution_matches_alternating_sum():
    # the alternating sum the MRD closed form replaced, over every
    # (q, r, n, iota) with q <= 9, r <= 6, n <= 8 and iota < min(r, n)
    def alternating(r, n, it, q):
        A = [1] + [0] * n
        for s in range(it + 1):
            A[n - s] = qbinom(n, s, q) * sum(
                (-1) ** j * qbinom(n - s, j, q) * q ** (j * (j - 1) // 2)
                * (q ** (r * n * (it - s - j + 1) // (it + 1)) - 1)
                for j in range(it - s + 1))
        return tuple(A)

    grid = [(q, r, n, it) for q in (2, 3, 4, 5, 7, 8, 9) for r in range(1, 7)
            for n in range(1, 9) for it in range(min(r, n)) if r * n % (it + 1) == 0]
    assert len(grid) == 777
    for q, r, n, it in grid:
        assert cug_mrd_weight_distribution(r, n, it, q) == alternating(r, n, it, q)


def test_cug_mrd_weight_distribution_rejects_iota_at_least_r():
    from ranklab.linsets import ti_formula

    # the alternating sum gave (1, 0, 0, 45, -30) and t_0 = -2 here
    with pytest.raises(InvalidParams):
        cug_mrd_weight_distribution(1, 4, 1, 2)
    with pytest.raises(InvalidParams):
        ti_formula(1, 4, 1, 2, 0)
    with pytest.raises(InvalidParams):
        cug_mrd_weight_distribution(2, 4, -1, 2)


# -- Gabidulin restriction ----------------------------------------------------------------


def test_gabidulin_restriction_6_3_1(t2_32):
    res = gabidulin_restriction(t2_32, 6, 3, 1)
    C = res.code
    assert (C.m, C.n, C.q, C.dim) == (6, 3, 2, 12)
    assert C.min_distance() == 2
    assert C.is_mrd()
    assert res.U.k == 6
    assert res.dual_matches
    assert is_h_scattered(res.Udual, 1)
    assert right_idealiser(C).order == 2**3


def test_gabidulin_restriction_t1_is_square_gabidulin(t2_3):
    res = gabidulin_restriction(t2_3, 3, 3, 1)
    assert res.code == gabidulin(t2_3, 3, 2, 1)


# t = 2 towers, then the t = 3 towers F_2 ⊂ F_4 ⊂ F_64 and F_3 ⊂ F_9 ⊂ F_729 (iota = 1)
# and F_2 ⊂ F_8 ⊂ F_512 (iota = 1, 2; r = 9, k = 18 at iota = 2)
RESTRICTION_TOWERS = [(3, 1, 2, 2), (3, 1, 3, 2), (2, 2, 2, 2), (2, 1, 2, 3), (3, 1, 2, 3),
                      (2, 1, 3, 3)]


@pytest.mark.parametrize("params", RESTRICTION_TOWERS)
def test_gabidulin_restriction_on_t2_towers(params):
    tower = make_tower(*params)
    n, t = tower.n, tower.t
    for it in range(1, n):
        res = gabidulin_restriction(tower, n * t, n, it)
        assert res.dual_matches, it
        assert (res.U.r, res.U.k) == (t * (it + 1), n * t * it), it
        assert iota(res.U) == res.iota == it
        assert res.code.is_mrd()
        assert res.code.min_distance() == n - it


@pytest.mark.parametrize("params", RESTRICTION_TOWERS + [(2, 1, 3, 2)])
def test_restriction_kernel_matches_solved_subspace(params):
    tower = make_tower(*params)
    base, top, n, t = tower.base, tower.top, tower.n, tower.t
    xi = top.gen
    for it in range(1, n):
        # the F_{q^n}-basis f_{j,i}: x -> xi^i x^{q^j}, j-major
        fji = [Mat.from_rows(base, [
            tower.top_to_base_vec(top.mul(top.pow(xi, i), tower.frob("mid", b, j)))
            for b in basis_codes(tower.mid, tower.base)], n * t).transpose()
            for j in range(it + 1) for i in range(t)]
        res = gabidulin_restriction(tower, n * t, n, it)
        assert _solved_vanishing_subspace(res.code, tower, fji, _mid_mult_mats(tower)) \
            == res.U, it


RESTRICTION_CELLS = [(params, it) for params in RESTRICTION_TOWERS for it in range(1, params[2])]


@pytest.mark.parametrize("params,it", RESTRICTION_CELLS,
                         ids=[f"{'_'.join(map(str, params))}_iota{it}"
                              for params, it in RESTRICTION_CELLS])
def test_restriction_distribution_matches_the_scans(params, it, scanned, force_geometric):
    # the restriction is C_{U,G} for the G of its f_{j,i} and carries U, so
    # is_mrd and min_distance read U's point weights; the oracle is the scan
    # of the code rebuilt from its basis, which is the span of the f∘m_b
    tower = make_tower(*params)
    base, top, n, t = tower.base, tower.top, tower.n, tower.t
    res = gabidulin_restriction(tower, n * t, n, it)
    assert res.code.subspace is res.U
    fji = [Mat.from_rows(base, [
        tower.top_to_base_vec(top.mul(top.pow(top.gen, i), tower.frob("mid", b, j)))
        for b in basis_codes(tower.mid, base)], n * t).transpose()
        for j in range(it + 1) for i in range(t)]
    assert res.code == RankCode.from_generators(
        base, n * t, n, [mat_mul(f, m).data for f in fji for m in _mid_mult_mats(tower)])
    want = scanned(res.code).rank_distribution()
    assert want == mrd_weight_distribution(n * t, n, tower.q, n - it)
    force_geometric()
    again = gabidulin_restriction(tower, n * t, n, it).code
    assert again.rank_distribution() == want and again.is_mrd()


def test_restriction_udual_is_direct_sum_shape(t2_32):
    # the expected dual is block-structured: t copies over interleaved slots
    res = gabidulin_restriction(t2_32, 6, 3, 1)
    assert res.expected_dual.k == 2 * 3
    assert res.Udual == res.expected_dual


# -- pseudoregulus and search ------------------------------------------------------------


def test_pseudoregulus_2_4_1(pseudoreg):
    assert pseudoreg.k == 4
    assert is_h_scattered(pseudoreg, 1)


def test_pseudoregulus_4_4_1_scattered():
    t = make_tower(2, 1, 4, 1)
    U = pseudoregulus_subspace(t, 4, 4, 1)
    assert U.k == 8
    assert is_h_scattered(U, 1)


def test_pseudoregulus_divisibility_gate():
    t = make_tower(2, 1, 4, 1)
    with pytest.raises(DivisibilityViolation):
        pseudoregulus_subspace(t, 3, 4, 1)


def test_search_finds_maximum_scattered_quickly(t2_4):
    res = random_scattered_search(t2_4, 2, 1, 4, seed=1, max_evals=400)
    assert res.found
    assert res.subspace.k == 4
    assert is_h_scattered(res.subspace, 1)


def test_search_k0_returns_not_found(t2_4):
    res = random_scattered_search(t2_4, 2, 1, 0, seed=3, max_evals=5)
    assert not res.found


@pytest.mark.parametrize("q,n,r,h,k", [(4, 2, 3, 2, 2), (5, 2, 3, 2, 2), (8, 2, 3, 2, 2),
                                       (9, 2, 3, 2, 2)])
def test_search_below_dimension_r_scores_nothing(monkeypatch, q, n, r, h, k):
    # a subspace of dimension k < r never spans V(r, q^n), so no candidate
    # is scored, as at k = 0
    from ranklab import constructions

    def scored(*args, **kwargs):
        raise AssertionError("a candidate was scored")

    monkeypatch.setattr(constructions, "excess_total", scored)
    tower = make_tower(*{4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}[q], n, 1)
    for seed in (1, 2, 3):
        res = random_scattered_search(tower, r, h, k, seed=seed, max_evals=40)
        assert res == (False, None, 0, seed)


@pytest.mark.parametrize("r,h,k", [(2, 3, 1), (2, 2, 1), (2, 0, 1), (2, 0, 0), (3, -1, 2)])
def test_search_refuses_h_outside_1_to_r_minus_1(t2_4, r, h, k):
    # checked before the k = 0 return and before any evaluation, as
    # is_h_scattered refuses the same h
    with pytest.raises(InvalidParams, match="1 <= h <= r-1"):
        random_scattered_search(t2_4, r, h, k, seed=1, max_evals=200)


@pytest.mark.parametrize("k,max_evals", [(-1, 5), (-1, 0), (5, 5), (5, 0)])
def test_search_refuses_k_outside_0_to_rn_over_h_plus_1(t2_4, k, max_evals):
    # before any evaluation, so a zero budget does not hide it
    with pytest.raises(InvalidParams, match="0 <= k <= rn/\\(h\\+1\\)"):
        random_scattered_search(t2_4, 2, 1, k, seed=1, max_evals=max_evals)


@pytest.mark.parametrize("max_evals", [-1, 0, 1, 2, 5, 30])
def test_search_never_exceeds_its_evaluation_budget(t2_3, t2_4, max_evals):
    # an early exit (found, or the time budget) spends fewer, never more
    for tower, k in ((t2_3, 2), (t2_4, 4)):
        for seed in range(8):
            for time_budget in (None, 0.0):
                res = random_scattered_search(tower, 2, 1, k, seed=seed, max_evals=max_evals,
                                              time_budget=time_budget)
                assert res.evaluations <= max(max_evals, 0)
                assert res.found == (res.subspace is not None)
                # the deadline is read before the first evaluation
                if max_evals < 1 or time_budget == 0.0:
                    assert res == (False, None, 0, seed)


@pytest.mark.parametrize("time_budget", [math.nan, math.inf, -math.inf, -1.0, -1e-9])
def test_search_refuses_a_time_budget_that_is_not_finite_and_nonnegative(t2_4, time_budget):
    with pytest.raises(InvalidParams, match="time budget"):
        random_scattered_search(t2_4, 2, 1, 4, seed=1, time_budget=time_budget)


def test_search_is_seed_deterministic(t2_4):
    a = random_scattered_search(t2_4, 2, 1, 4, seed=11, max_evals=50)
    b = random_scattered_search(t2_4, 2, 1, 4, seed=11, max_evals=50)
    assert a.found == b.found and a.evaluations == b.evaluations
    if a.found:
        assert a.subspace == b.subspace


def test_search_refinds_the_frozen_witness_at_its_seed():
    # scripts/search_demo.py's default climb on F_64^3 (k = 9) at seed
    # 20260808: the witness fixtures.certified_new_witness froze, after
    # exactly 5,628 evaluations, with each move's excess capped at the
    # incumbent's score
    from ranklab.fixtures import certified_new_witness

    res = random_scattered_search(make_tower(2, 1, 6, 1), 3, 1, 9, seed=20260808,
                                  max_evals=6000)
    assert (res.found, res.evaluations) == (True, 5628)
    assert res.subspace == certified_new_witness()


# (p, e, n, r, h, k): q = p^e in {2, 3, 4, 5, 8, 9} at h = 1, and h = r - 1 = 2
# at q = 2, 3, 4, each with k >= r (a smaller k is never scored)
SEARCH_CELLS = [(2, 1, 5, 2, 1, 5), (2, 1, 6, 2, 1, 6), (3, 1, 4, 2, 1, 4), (3, 1, 5, 2, 1, 5),
                (2, 2, 4, 2, 1, 4), (5, 1, 4, 2, 1, 4), (2, 3, 4, 2, 1, 4), (3, 2, 4, 2, 1, 4),
                (2, 1, 4, 3, 2, 4), (3, 1, 4, 3, 2, 4), (2, 2, 4, 3, 2, 4)]


@pytest.mark.parametrize("p,e,n,r,h,k", SEARCH_CELLS)
def test_search_moves_match_a_from_scratch_rebuild(monkeypatch, p, e, n, r, h, k):
    """At four seeds per cell, every candidate basis the search builds with
    SubspaceBasis.replace_row, and its SearchResult, equal those of an
    oracle that rebuilds each candidate with FqSubspace.from_flat from the
    incumbent's rows with row i replaced."""
    tower = make_tower(p, e, n, 1)
    replace_row = SubspaceBasis.replace_row

    def rebuild(basis, i, vec):
        rows = [list(v) for v in basis.rows]
        rows[i] = vec
        return FqSubspace.from_flat(tower, r, rows).flat

    def run(method, seed):
        moves = []

        def recording(basis, i, vec):
            moves.append(method(basis, i, vec))
            return moves[-1]
        monkeypatch.setattr(SubspaceBasis, "replace_row", recording)
        return random_scattered_search(tower, r, h, k, seed=seed, max_evals=40), moves

    moved = 0
    for seed in (1, 2, 3, 4):
        got, moves = run(replace_row, seed)
        want, oracle_moves = run(rebuild, seed)
        assert got == want and moves == oracle_moves, (seed, got, want)
        moved += len(moves)
    assert moved


def test_cug_mrd_display_matches_brute_force(pseudoreg, scanned):
    from ranklab.constructions import cug_mrd_weight_distribution

    C = c_ug(pseudoreg).code
    assert scanned(C).rank_distribution().A == cug_mrd_weight_distribution(2, 4, 1, 2)
    assert C.rank_distribution().A == cug_mrd_weight_distribution(2, 4, 1, 2)
    # and the (2,4,4,1) direct-sum case
    t = make_tower(2, 1, 4, 1)
    U = pseudoregulus_subspace(t, 4, 4, 1)
    from ranklab.subspaces import ordinary_dual

    D = c_ug(ordinary_dual(U)).code
    assert scanned(D).rank_distribution().A == cug_mrd_weight_distribution(4, 4, 1, 2)
    assert D.rank_distribution().A == cug_mrd_weight_distribution(4, 4, 1, 2)


def test_mrd_to_subspace_on_scrambled_nonsquare_code(t2_32, t2_3):
    # knock the right idealiser out of canonical position with X·M·Y and
    # let the conjugation by an idealiser generator recover it
    res = gabidulin_restriction(t2_32, 6, 3, 1)
    rng = random.Random(99)
    base = t2_32.base

    def rand_gl(nn):
        while True:
            M = Mat.from_rows(base, [[rng.randrange(2) for _ in range(nn)]
                                     for _ in range(nn)])
            if rref(M)[1] == nn:
                return M

    X, Y = rand_gl(6), rand_gl(3)
    scrambled = RankCode.from_generators(
        base, 6, 3,
        [mat_mul(mat_mul(X, Mat.from_rows(base, [list(r) for r in M], 3)), Y).data
         for M in res.code.basis_matrices()])
    assert scrambled.is_mrd()
    ext = mrd_to_subspace(scrambled, t2_3)
    assert (ext.subspace.k, iota(ext.subspace)) == (6, 1)
    assert ext.reconstructed == ext.conjugated_code


def test_delsarte_transfer_at_q3():
    from ranklab.subspaces import delsarte_dual, delsarte_double_dual

    t = make_tower(3, 1, 4, 1)
    U = pseudoregulus_subspace(t, 2, 4, 1)
    data = delsarte_dual(U)
    assert data.dual.k == 4
    assert is_h_scattered(data.dual, 1)
    assert delsarte_double_dual(data) == U


def test_pipeline_over_non_prime_base_field(scanned):
    # q = 4 = 2^2: scatteredness, duality and C_{U,G} on the generic path
    t = make_tower(2, 2, 2, 1)
    assert (t.q, t.mid.order) == (4, 16)
    U = pseudoregulus_subspace(t, 2, 2, 1)
    assert U.k == 2 and is_h_scattered(U, 1)
    assert ordinary_dual(ordinary_dual(U)) == U
    C = c_ug(U).code
    assert (C.m, C.n, C.q) == (2, 2, 4)
    assert C.is_mrd() and scanned(C).is_mrd()


def test_certified_new_witness_full_pipeline(scanned):
    # the frozen search witness: real CertifiedNew evidence for (r,n,h)=(3,6,1)
    from ranklab.fixtures import certified_new_witness
    from ranklab.rankcodes import GabidulinExclusion, gabidulin_family_exclusion

    W = certified_new_witness()
    assert W.k == 9
    assert is_h_scattered(W, 1)
    C = c_ug(ordinary_dual(W)).code
    assert (C.m, C.n, C.dim) == (9, 6, 18)
    assert C.min_distance() == 5 and C.is_mrd()
    assert scanned(C).rank_distribution() == C.rank_distribution()
    R = right_idealiser(C)
    assert R.order == 64 and R.is_field
    assert gabidulin_family_exclusion(C, 3, 6, 1) is GabidulinExclusion.CERTIFIED_NEW


def test_mrd_predicate_iff_brute_force_on_fixture_corpus(scanned, fixture_subspaces):
    for name, U in fixture_subspaces.items():
        predicted = c_ug_mrd_predicate(U)
        actual = scanned(c_ug(U).code).is_mrd()
        assert predicted == actual, name


def test_twisted_gabidulin_distribution_matches_closed_form(scanned):
    t = make_tower(3, 1, 4, 1)
    eta = find_nonsquare(t, "mid")
    C = twisted_gabidulin(t, 4, 2, 1, eta, 0).code
    assert C.rank_distribution().A == mrd_weight_distribution(4, 4, 3, 3).A
    assert scanned(C).rank_distribution() == C.rank_distribution()


def test_witness_code_distribution_matches_mrd_iff_display(scanned):
    from ranklab.fixtures import certified_new_witness
    from ranklab.constructions import cug_mrd_weight_distribution

    C = c_ug(certified_new_witness()).code
    assert scanned(C).rank_distribution().A == cug_mrd_weight_distribution(3, 6, 1, 2)
    assert C.rank_distribution().A == cug_mrd_weight_distribution(3, 6, 1, 2)
    assert C.rank_distribution().A == mrd_weight_distribution(9, 6, 2, 5).A


def test_mrd_predicate_agrees_with_brute_force_in_regime(scanned):
    # randomized sweep over the guaranteed regime k <= (r-1)n
    rng = random.Random(0xACE)
    towers = [make_tower(2, 1, 2, 1), make_tower(2, 1, 3, 1),
              make_tower(3, 1, 2, 1), make_tower(2, 1, 4, 1)]
    from ranklab.subspaces import random_subspace

    checked = 0
    while checked < 120:
        t = rng.choice(towers)
        r = rng.randrange(2, 4)
        rn = r * t.n
        if t.base.order**rn > 1 << 12:
            r = 2
            rn = 2 * t.n
        k = rng.randrange(0, (r - 1) * t.n + 1)
        U = random_subspace(t, r, k, rng)
        it = iota(U)
        if it >= t.n:
            continue
        assert c_ug_mrd_predicate(U) == scanned(c_ug(U).code).is_mrd(), (t.params, r, k)
        checked += 1


def test_mrd_predicate_fringe_k_above_bound(scanned):
    # k > (r-1)n: the predicate reports the stated criterion (False), while
    # the wide ((rn-k) x n) code meets the transposed Singleton bound exactly
    # when k = (r-1)n + iota + 1 - r; both outcomes realized in F_16^2
    from ranklab.subspaces import random_subspace

    t = make_tower(2, 1, 4, 1)
    g = t.mid.gen
    # iota = 3 witness: a 3-dim slice of one line plus a 2-dim block
    U_non = FqSubspace.from_mid_vectors(
        t, 2, [(1, 0), (g, 0), (t.mid.mul(g, g), 0), (0, 1), (0, g)])
    assert (U_non.k, iota(U_non)) == (5, 3)
    assert not c_ug_mrd_predicate(U_non)
    assert not scanned(c_ug(U_non).code).is_mrd()  # 5 != (r-1)n + iota + 1 - r = 6
    # iota = 2 witnesses satisfy k = 5 = 4 + 2 + 1 - 2: MRD despite the
    # criterion, because m = 3 < n = 4 voids the no-rank-n argument
    rng = random.Random(5)
    for _ in range(500):
        U_mrd = random_subspace(t, 2, 5, rng)
        if iota(U_mrd) == 2:
            break
    assert iota(U_mrd) == 2
    assert not c_ug_mrd_predicate(U_mrd)
    assert scanned(c_ug(U_mrd).code).is_mrd()
