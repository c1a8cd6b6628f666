"""Gabidulin / twisted Gabidulin codes, C_{U,G}, Sheekey codes, the converse
extraction, the Gabidulin restriction, pseudoreguli and the randomized search."""

import random

import pytest

from ranklab.errors import (
    DivisibilityViolation,
    EtaConditionViolated,
    GcdViolation,
    IdealiserNotMaximal,
    IotaFull,
    KTooLarge,
    NotMRD,
)
from ranklab.fields import make_tower
from ranklab.fqlinalg import Mat, kernel, mat_mul, rref
from ranklab.rankcodes import (
    RankCode,
    adjoint,
    mrd_weight_distribution,
    right_idealiser,
)
from ranklab.subspaces import FqSubspace, iota, is_h_scattered, ordinary_dual
from ranklab.constructions import (
    LinearizedPoly,
    _canonical_projection,
    c_ug,
    c_ug_g_independence,
    c_ug_mrd_predicate,
    find_nonsquare,
    gabidulin,
    gabidulin_restriction,
    mrd_to_subspace,
    pseudoregulus_subspace,
    random_scattered_search,
    sheekey_code,
    twisted_gabidulin,
)


# -- Gabidulin ----------------------------------------------------------------


def test_gabidulin_4_2_1_parameters(t2_4):
    C = gabidulin(t2_4, 4, 2, 1)
    assert (C.m, C.n, C.q, C.dim) == (4, 4, 2, 8)
    assert C.min_distance() == 3
    assert C.is_mrd()


def test_gabidulin_k1_is_multiplication_field(t2_4):
    C = gabidulin(t2_4, 4, 1, 1)
    assert C.dim == 4
    assert C.min_distance() == 4  # nonzero multiplications are invertible


def test_gabidulin_gates(t2_4):
    with pytest.raises(GcdViolation):
        gabidulin(t2_4, 4, 2, 2)
    with pytest.raises(KTooLarge):
        gabidulin(t2_4, 4, 4, 1)


def test_gabidulin_rank_distribution_equals_closed_form(t2_4):
    for k in (1, 2, 3):
        C = gabidulin(t2_4, 4, k, 1)
        assert C.rank_distribution().A == mrd_weight_distribution(4, 4, 2, 4 - k + 1).A


def test_linearized_poly_matrix_rank_matches_kernel(t2_4):
    # x^2 + x vanishes exactly on F_2, so the matrix rank is n-1
    f = LinearizedPoly(t2_4, "mid", (1, 1))  # x + x^2
    M = f.to_matrix()
    assert rref(M)[1] == 3
    roots = [x for x in t2_4.mid.elements() if f.evaluate(x) == 0]
    assert len(roots) == 2


# -- twisted Gabidulin ----------------------------------------------------------


def test_twisted_gabidulin_q3_is_mrd():
    t = make_tower(3, 1, 4, 1)
    eta = find_nonsquare(t, "mid")
    tg = twisted_gabidulin(t, 4, 2, 1, eta, 0)
    assert not tg.untwisted
    assert tg.code.dim == 8
    assert tg.code.min_distance() == 3
    assert tg.code.is_mrd()


def test_twisted_gabidulin_eta_condition_rejects_all_of_f16(t2_4):
    # q=2, N=4, k=2: eta^15 = 1 = (-1)^8 for every nonzero eta
    for eta in range(1, 16):
        with pytest.raises(EtaConditionViolated):
            twisted_gabidulin(t2_4, 4, 2, 1, eta, 0)


def test_twisted_gabidulin_eta_zero_untwisted(t2_4):
    tg = twisted_gabidulin(t2_4, 4, 2, 1, 0, 0)
    assert tg.untwisted
    assert tg.code == gabidulin(t2_4, 4, 2, 1)


def test_twisted_differs_from_plain_gabidulin_q3():
    t = make_tower(3, 1, 4, 1)
    eta = find_nonsquare(t, "mid")
    assert twisted_gabidulin(t, 4, 2, 1, eta, 0).code != gabidulin(t, 4, 2, 1)


# -- C_{U,G} ----------------------------------------------------------------------


def test_cug_pseudoregulus(pseudoreg):
    cug = c_ug(pseudoreg)
    assert cug.iota == 1
    assert (cug.code.m, cug.code.n, cug.code.q) == (4, 4, 2)
    assert cug.code.dim == 8
    assert cug.code.min_distance() == 4 - 1
    assert cug.code.is_mrd()
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


def test_cug_zero_subspace(t2_4):
    cug = c_ug(FqSubspace.zero(t2_4, 2))
    assert (cug.code.m, cug.code.n) == (8, 4)
    assert cug.code.min_distance() == 4
    assert cug.code.is_mrd()


def test_cug_mrd_predicate_tracks_brute_force(t2_4, pseudoreg):
    assert c_ug_mrd_predicate(pseudoreg)
    # a 3-dim subspace of the pseudoregulus: iota = 1 but k != iota*rn/(iota+1)
    U3 = FqSubspace.from_mid_vectors(t2_4, 2, list(pseudoreg.basis_mid)[:3])
    assert U3.k == 3 and iota(U3) == 1
    assert not c_ug_mrd_predicate(U3)
    assert not c_ug(U3).code.is_mrd()


def test_cug_k_above_bound_has_no_full_rank_word(t2_4):
    # k > (r-1)n: every codeword has a nontrivial kernel
    rng = random.Random(4)
    from ranklab.subspaces import random_subspace

    while True:
        U = random_subspace(t2_4, 2, 5, rng)
        if iota(U) < 4:
            break
    assert not c_ug_mrd_predicate(U)
    dist = c_ug(U).code.rank_distribution()
    assert dist.A[-1] == 0 or len(dist.A) - 1 < 4  # no rank-n codeword


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


# -- Sheekey codes ------------------------------------------------------------------


def test_sheekey_x_xq_matches_scatteredness(t2_4):
    f1 = LinearizedPoly(t2_4, "mid", (1,))
    f2 = LinearizedPoly(t2_4, "mid", (0, 1))
    S = sheekey_code([f1, f2])
    assert not S.degenerate
    U = FqSubspace.from_mid_vectors(
        t2_4, 2, [(b, t2_4.frob("mid", b, 1)) for b in (1, 2, 4, 8)])
    assert is_h_scattered(U, 1)
    assert S.code.min_distance() == 3
    assert S.code.is_mrd()


def test_sheekey_degenerate_pair(t2_4):
    f1 = LinearizedPoly(t2_4, "mid", (1,))
    S = sheekey_code([f1, f1])
    assert S.degenerate and S.code.dim == 4


def test_sheekey_adjoint_feeds_converse(t2_4):
    f1 = LinearizedPoly(t2_4, "mid", (1,))
    f2 = LinearizedPoly(t2_4, "mid", (0, 1))
    A = adjoint(sheekey_code([f1, f2]).code)
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


def test_mrd_to_subspace_minpoly_without_root_is_internal(tmp_path, monkeypatch, capsys):
    from ranklab import cli, constructions, serialize
    from ranklab.errors import InternalInvariantError
    from ranklab.fields import is_irreducible, least_irreducible

    t22 = make_tower(2, 1, 2, 1)
    no_root = least_irreducible(t22.mid, 2)   # irreducible of degree 2 over F_4
    assert is_irreducible(t22.mid, no_root)
    monkeypatch.setattr(constructions, "_matrix_min_poly", lambda *a: no_root)
    C = gabidulin(t22, 2, 1, 1)
    with pytest.raises(InternalInvariantError, match="no root"):
        mrd_to_subspace(C, t22)
    code_file = tmp_path / "g.code.json"
    serialize.dump_file(str(code_file), serialize.rankcode_to_json(C))
    assert cli.main(["extract-subspace", "--code", str(code_file)]) == 4
    assert "internal error" in capsys.readouterr().err


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


@pytest.mark.parametrize("params", [(3, 1, 2, 2), (3, 1, 3, 2), (2, 2, 2, 2)])
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


def test_search_is_seed_deterministic(t2_4):
    a = random_scattered_search(t2_4, 2, 1, 4, seed=11, max_evals=50)
    b = random_scattered_search(t2_4, 2, 1, 4, seed=11, max_evals=50)
    assert a.found == b.found and a.evaluations == b.evaluations
    if a.found:
        assert a.subspace == b.subspace


def test_cug_mrd_display_matches_brute_force(pseudoreg):
    from ranklab.constructions import cug_mrd_weight_distribution

    C = c_ug(pseudoreg).code
    assert C.rank_distribution().A == cug_mrd_weight_distribution(2, 4, 1, 2)
    # and the (2,4,4,1) direct-sum case
    t = make_tower(2, 1, 4, 1)
    U = pseudoregulus_subspace(t, 4, 4, 1)
    from ranklab.subspaces import ordinary_dual

    D = c_ug(ordinary_dual(U)).code
    assert D.rank_distribution().A == cug_mrd_weight_distribution(4, 4, 1, 2)


def test_mrd_to_subspace_on_scrambled_nonsquare_code(t2_32, t2_3):
    # knock the right idealiser out of canonical position with X·M·Y and
    # let the Singer-cycle conjugation recover it
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


def test_pipeline_over_non_prime_base_field():
    # q = 4 = 2^2: scatteredness, duality and C_{U,G} on the generic path
    t = make_tower(2, 2, 2, 1)
    assert (t.q, t.mid.order) == (4, 16)
    U = pseudoregulus_subspace(t, 2, 2, 1)
    assert U.k == 2 and is_h_scattered(U, 1)
    assert ordinary_dual(ordinary_dual(U)) == U
    C = c_ug(U).code
    assert (C.m, C.n, C.q) == (2, 2, 4)
    assert C.is_mrd()


def test_certified_new_witness_full_pipeline():
    # the frozen search witness: real CertifiedNew evidence for (r,n,h)=(3,6,1)
    from ranklab.fixtures import certified_new_witness
    from ranklab.rankcodes import GabidulinExclusion, gabidulin_family_exclusion

    W = certified_new_witness()
    assert W.k == 9
    assert is_h_scattered(W, 1)
    C = c_ug(ordinary_dual(W)).code
    assert (C.m, C.n, C.dim) == (9, 6, 18)
    assert C.min_distance() == 5 and C.is_mrd()
    R = right_idealiser(C)
    assert R.order == 64 and R.is_field
    assert gabidulin_family_exclusion(C, 3, 6, 1) is GabidulinExclusion.CERTIFIED_NEW


def test_mrd_predicate_iff_brute_force_on_fixture_corpus():
    from ranklab.fixtures import fixture_subspaces

    for name, U in fixture_subspaces().items():
        predicted = c_ug_mrd_predicate(U)
        actual = c_ug(U).code.is_mrd()
        assert predicted == actual, name


def test_twisted_gabidulin_distribution_matches_closed_form():
    t = make_tower(3, 1, 4, 1)
    eta = find_nonsquare(t, "mid")
    C = twisted_gabidulin(t, 4, 2, 1, eta, 0).code
    assert C.rank_distribution().A == mrd_weight_distribution(4, 4, 3, 3).A


def test_witness_code_distribution_matches_mrd_iff_display():
    from ranklab.fixtures import certified_new_witness
    from ranklab.constructions import cug_mrd_weight_distribution

    C = c_ug(certified_new_witness()).code
    assert C.rank_distribution().A == cug_mrd_weight_distribution(3, 6, 1, 2)
    assert C.rank_distribution().A == mrd_weight_distribution(9, 6, 2, 5).A


def test_mrd_predicate_agrees_with_brute_force_in_regime():
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
        assert c_ug_mrd_predicate(U) == c_ug(U).code.is_mrd(), (t.params, r, k)
        checked += 1


def test_mrd_predicate_fringe_k_above_bound():
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
    assert not c_ug(U_non).code.is_mrd()  # 5 != (r-1)n + iota + 1 - r = 6
    # iota = 2 witnesses satisfy k = 5 = 4 + 2 + 1 - 2: MRD despite the
    # criterion, because m = 3 < n = 4 voids the no-rank-n argument
    rng = random.Random(5)
    for _ in range(500):
        U_mrd = random_subspace(t, 2, 5, rng)
        if iota(U_mrd) == 2:
            break
    assert iota(U_mrd) == 2
    assert not c_ug_mrd_predicate(U_mrd)
    assert c_ug(U_mrd).code.is_mrd()
