"""Linear sets, hyperplane spectra, and Hamming codes from projective systems."""

import pytest

from ranklab.errors import InvalidParams, NotMaxScattered, NotSpanning
from ranklab.fields import make_tower
from ranklab.fqlinalg import Mat, SubspaceBasis, kernel, theta
from ranklab.linsets import (
    expected_weights,
    hyperplane_spectrum,
    linear_set,
    projective_system_code,
    qsystem_code,
    ti_formula,
    weight_enumerator,
)
from ranklab.subspaces import FqSubspace, _meet_dims, normalize_point, ordinary_dual
from ranklab.constructions import c_ug, pseudoregulus_subspace
from ranklab.fixtures import remark_counterexample, subgeometry_3_3


# -- points and weights ------------------------------------------------------


def point_weight(U, P):
    """dim_{F_q}(U ∩ <P>_{F_{q^n}})."""
    return next(_meet_dims(U, [SubspaceBasis.from_vectors(U.tower.mid, U.r, [P]).rows]))


def hyperplane_weight(U, w):
    """dim_{F_q}(U ∩ H_w) for the hyperplane H_w = ker(w·)."""
    return next(_meet_dims(U, [kernel(Mat.from_rows(U.tower.mid, [list(w)], U.r)).rows]))


def test_pseudoregulus_linear_set_points(pseudoreg):
    L = linear_set(pseudoreg)
    assert L.size == theta(pseudoreg.k - 1, 2) == 15
    assert set(L.points.values()) == {1}


def test_point_partition_identity_general(t2_4):
    # non-scattered U: weights > 1 appear but the vector partition still holds
    mid = t2_4.mid
    omega = mid.pow(mid.gen, 5)
    U = FqSubspace.from_mid_vectors(t2_4, 2, [(1, 0), (omega, 0), (0, 1)])
    L = linear_set(U)
    q = 2
    assert sum(q ** w - 1 for w in L.points.values()) == q**U.k - 1
    assert max(L.points.values()) == 2


def test_point_weight_membership(pseudoreg):
    # P in L_U iff weight >= 1
    assert point_weight(pseudoreg, (1, 1)) == 1  # (1, 1^2) lies on the set
    assert point_weight(pseudoreg, (1, 0)) == 0


def test_hyperplane_weight_matches_iter(pseudoreg):
    from ranklab.subspaces import hyperplane_weight_iter

    for w, wt in hyperplane_weight_iter(pseudoreg):
        assert hyperplane_weight(pseudoreg, w) == wt


# -- spectrum ----------------------------------------------------------------


def test_spectrum_pseudoregulus_2_4_1(pseudoreg):
    spec = hyperplane_spectrum(pseudoreg)
    assert spec == {0: 2, 1: 15}
    assert spec == {i: ti_formula(2, 4, 1, 2, i) for i in (0, 1)}
    assert sum(spec.values()) == theta(1, 16)


def test_spectrum_subgeometry_3_3_2():
    U = subgeometry_3_3()
    spec = hyperplane_spectrum(U, 2)
    assert spec == {i: ti_formula(3, 3, 2, 2, i) for i in range(3)}
    assert sum(spec.values()) == theta(2, 8)


def test_spectrum_gate_on_non_maximum(t2_4):
    with pytest.raises(NotMaxScattered):
        hyperplane_spectrum(remark_counterexample())


def test_ti_formula_positivity_and_total():
    for (r, n, h, q) in ((2, 4, 1, 2), (3, 3, 2, 2), (4, 4, 1, 2), (2, 4, 1, 3)):
        tis = [ti_formula(r, n, h, q, i) for i in range(h + 1)]
        assert all(t > 0 for t in tis)
        assert sum(tis) == theta(r - 1, q**n)


def test_ti_formula_gates():
    with pytest.raises(InvalidParams):
        ti_formula(2, 4, 1, 2, 2)  # i > h
    with pytest.raises(InvalidParams):
        ti_formula(3, 5, 1, 2, 0)  # (h+1) = 2 does not divide rn = 15
    with pytest.raises(InvalidParams):
        ti_formula(3, 2, 2, 2, 0)  # h = 2 >= n: outside the C_{U,G} regime


def test_ti_equals_rank_distribution_cross_identity(pseudoreg, scanned):
    # t_i = A_{n-i} / (q^n - 1) with A the distribution of C_{U^perp, G},
    # scanned from its codewords: c_ug reads it off the point weights of
    # U^perp, which are the hyperplane weights t_i counts
    D = ordinary_dual(pseudoreg)
    A = scanned(c_ug(D).code).rank_distribution().A
    n, qn = 4, 16
    for i in (0, 1):
        assert ti_formula(2, 4, 1, 2, i) == A[n - i] // (qn - 1)
        assert A[n - i] % (qn - 1) == 0


# -- projective system codes ---------------------------------------------------


def test_projective_system_code_pseudoregulus(pseudoreg):
    C = projective_system_code(linear_set(pseudoreg))
    assert (C.N, C.k) == (15, 2)
    assert C.d == 15 - 1  # the heaviest hyperplane contains one point


def test_projective_system_not_spanning_gate(t2_4):
    U = FqSubspace.from_mid_vectors(t2_4, 2, [(1, 0), (t2_4.mid.gen, 0)])
    with pytest.raises(NotSpanning):
        projective_system_code(linear_set(U))


def test_weight_enumerator_conventions(pseudoreg):
    C = projective_system_code(linear_set(pseudoreg))
    proj = weight_enumerator(C, "projective")
    word = weight_enumerator(C, "codeword")
    assert proj == {14: 15, 15: 2}
    assert word == {14: 225, 15: 30}
    assert sum(word.values()) == 16**2 - 1
    assert proj == expected_weights(2, 4, 1, 2)
    assert len(proj) == 2  # exactly h+1 weights


def test_weight_enumerator_brute_force_vs_hyperplane_counts(pseudoreg):
    # independent oracle: codeword weights are N - |L ∩ H| over dual points
    from ranklab.subspaces import hyperplane_weight_iter

    C = projective_system_code(linear_set(pseudoreg))
    by_hyperplane: dict[int, int] = {}
    for _, wt in hyperplane_weight_iter(pseudoreg):
        w = C.N - theta(wt - 1, 2)
        by_hyperplane[w] = by_hyperplane.get(w, 0) + 1
    assert by_hyperplane == weight_enumerator(C, "projective")


def test_qsystem_code_pseudoregulus(pseudoreg):
    C = qsystem_code(pseudoreg)
    assert (C.N, C.k, C.d) == (4, 2, 3)


def test_qsystem_is_column_deletion_of_projsys(pseudoreg):
    mid = pseudoreg.tower.mid
    proj = projective_system_code(linear_set(pseudoreg))
    proj_cols = set(zip(*proj.gen))
    for col in zip(*qsystem_code(pseudoreg).gen):
        assert normalize_point(mid, col) in proj_cols


def test_qsystem_gates(t2_4):
    with pytest.raises(NotMaxScattered):
        qsystem_code(remark_counterexample())
    with pytest.raises(InvalidParams):
        qsystem_code(subgeometry_3_3())  # n = 3 < h+3 = 5


def test_weights_have_exactly_h_plus_one_values_434():
    # (r,n,h) = (3,4,1) would not divide; use (4,4,1): h+1 = 2 weights
    t = make_tower(2, 1, 4, 1)
    U = pseudoregulus_subspace(t, 4, 4, 1)
    exp = expected_weights(4, 4, 1, 2)
    assert len(exp) == 2
    spec = hyperplane_spectrum(U)
    k = U.k
    got = {theta(k - 1, 2) - theta(k - 4 + i - 1, 2): c for i, c in spec.items()}
    assert got == exp


def test_weight_enumerator_closed_form_subgeometry_case():
    U = subgeometry_3_3()
    C = projective_system_code(linear_set(U))
    assert (C.N, C.k) == (7, 3)
    proj = weight_enumerator(C, "projective")
    assert proj == expected_weights(3, 3, 2, 2) == {4: 7, 6: 42, 7: 24}
    word = weight_enumerator(C, "codeword")
    assert word == {w: 7 * c for w, c in proj.items()}
    assert len(proj) == 3  # exactly h+1 weights


def test_point_partition_identity_over_fixture_corpus(fixture_subspaces):
    for name, U in fixture_subspaces.items():
        if 2**U.k > 1 << 12:
            continue
        L = linear_set(U)
        assert sum(2**w - 1 for w in L.points.values()) == 2**U.k - 1, name
