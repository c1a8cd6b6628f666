"""Acceptance suite: one test per criterion, exact-arithmetic assertions at
zero tolerance, each printing a PASS/FAIL line with its runtime bound.

Criterion 10's long randomized search is bonus evidence: the evaluation
budget comes from RANKLAB_SEARCH_EVALS (default 60 so the suite stays fast);
scripts/search_demo.py runs the full-length attempt.
"""

import os
import random
import sys
import time
from types import SimpleNamespace

import pytest

from ranklab.errors import EtaConditionViolated, HypothesisViolated
from ranklab.fields import make_tower
from ranklab.fqlinalg import theta
from ranklab.linsets import (
    linear_set,
    hyperplane_spectrum,
    projective_system_code,
    qsystem_code,
    ti_formula,
    weight_enumerator,
)
from ranklab.rankcodes import (
    GabidulinExclusion,
    RankCode,
    gabidulin_family_exclusion,
    macwilliams_check,
    mrd_weight_distribution,
    right_idealiser,
)
from ranklab.subspaces import (
    characterize_max_h_scattered,
    delsarte_double_dual,
    delsarte_dual,
    is_h_scattered,
    iota,
    max_hyperplane_weight,
    ordinary_dual,
    random_subspace,
)
from ranklab.constructions import (
    c_ug,
    gabidulin,
    gabidulin_restriction,
    mrd_to_subspace,
    pseudoregulus_subspace,
    random_scattered_search,
    twisted_gabidulin,
    find_nonsquare,
)
from ranklab import fixtures, rankcodes


def _report(num: int, desc: str, limit_s: float):
    """Context manager printing one PASS/FAIL line per criterion."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            el = time.perf_counter() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {num:2d}: {status} {desc} "
                  f"({el:.2f}s; bound {limit_s}s)", file=sys.__stdout__, flush=True)
            if exc_type is None and el >= limit_s:
                raise AssertionError(
                    f"criterion {num} exceeded its runtime bound: {el:.2f}s")
            return False

    return _Ctx()


def test_criterion_1_gabidulin_mrd(scanned):
    with _report(1, "Gabidulin(4,2,1)/q=2: d=3, MRD, (A3,A4)=(225,30)", 1.0):
        G = gabidulin(make_tower(2, 1, 4, 1), 4, 2, 1)
        # from the q-system's hyperplane weights, and from the scans
        for C in (G, scanned(G)):
            assert C.size == 2**8
            assert C.min_distance() == 3
            assert C.is_mrd()
            dist = C.rank_distribution()
            assert (dist.A[3], dist.A[4]) == (225, 30)
            assert dist.A == mrd_weight_distribution(4, 4, 2, 3).A


def test_criterion_2_cug_correspondence(scanned):
    with _report(2, "C_{U,G}(pseudoregulus 2,4,1): MRD (4,4,2;3), |R|=16 field", 5.0):
        U = fixtures.pseudoregulus(2, 4, 1)
        cug = c_ug(U)
        C = cug.code
        assert (C.m, C.n, C.q) == (4, 4, 2)
        assert C.min_distance() == 3
        assert C.is_mrd()
        R = right_idealiser(C)
        assert R.order == 16 and R.is_field
        assert C.rank_distribution().A == (1, 0, 0, 225, 30)
        assert scanned(C).rank_distribution() == C.rank_distribution()


def test_criterion_3_macwilliams_all_fixtures():
    with _report(3, "MacWilliams identities exact on every fixture code", 30.0):
        for name, C in fixtures.fixture_codes().items():
            assert macwilliams_check(C), name


def test_criterion_4_hyperplane_spectra(scanned):
    with _report(4, "hyperplane spectra == t_i formula; t_i = A_{n-i}/(q^n-1)", 120.0):
        cases = [
            (2, 4, 2, 1, fixtures.pseudoregulus(2, 4, 1)),
            (2, 3, 3, 2, fixtures.subgeometry_3_3()),
            (2, 4, 4, 1, fixtures.pseudoregulus(4, 4, 1)),
        ]
        for q, n, r, h, U in cases:
            spec = hyperplane_spectrum(U, h)
            want = {i: ti_formula(r, n, h, q, i) for i in range(h + 1)}
            assert spec == want, (q, n, r, h)
            assert sum(spec.values()) == theta(r - 1, q**n)
            A = scanned(c_ug(ordinary_dual(U)).code).rank_distribution().A
            for i in range(h + 1):
                assert A[n - i] % (q**n - 1) == 0
                assert want[i] == A[n - i] // (q**n - 1), (q, n, r, h, i)


def test_criterion_5_delsarte_duality():
    with _report(5, "Delsarte dual of pseudoregulus: 1-scattered dim 4; "
                    "double dual = U", 10.0):
        U = fixtures.pseudoregulus(2, 4, 1)
        data = delsarte_dual(U)
        assert data.dual.k == 4 and data.dual.r == 2
        assert is_h_scattered(data.dual, 1)
        assert delsarte_double_dual(data) == U


def test_criterion_6_characterization_equivalence():
    with _report(6, ">=200 random subspaces: three characterizations agree; "
                    "Remark counterexample behaves", 120.0):
        t = make_tower(2, 1, 4, 1)
        rng = random.Random(20260808)
        positives = negatives = 0
        for _ in range(200):
            U = random_subspace(t, 2, 4, rng)
            ch = characterize_max_h_scattered(U, 1)
            assert len(set(ch)) == 1
            if ch.via_definition:
                positives += 1
            else:
                negatives += 1
        mid = t.mid
        omega = mid.pow(mid.gen, 5)
        from ranklab.subspaces import FqSubspace

        fix_pos = fixtures.pseudoregulus(2, 4, 1)
        fix_neg = FqSubspace.from_mid_vectors(
            t, 2, [(1, 0), (omega, 0), (0, 1), (0, omega)])
        ch_pos = characterize_max_h_scattered(fix_pos, 1)
        ch_neg = characterize_max_h_scattered(fix_neg, 1)
        assert len(set(ch_pos)) == 1 and ch_pos.via_definition
        assert len(set(ch_neg)) == 1 and not ch_neg.via_definition
        positives += 1
        negatives += 1
        assert positives > 0 and negatives > 0
        # the Remark counterexample: 1-scattered, but its own-k bound fails
        cx = fixtures.remark_counterexample()
        n, h = 4, 1
        assert cx.k < cx.r * n // (h + 1)
        assert is_h_scattered(cx, h)
        assert max_hyperplane_weight(cx) > cx.k - n + h


def test_criterion_7_puncturing_restriction():
    with _report(7, "Gabidulin restriction (6,3,2;2): d=2 over 2^12 words, "
                    "MRD, Udual 1-scattered", 30.0):
        res = gabidulin_restriction(make_tower(2, 1, 3, 2), 6, 3, 1)
        C = res.code
        assert C.size == 2**12
        assert (C.m, C.n, C.q) == (6, 3, 2)
        assert C.min_distance() == 2
        assert C.is_mrd()
        assert is_h_scattered(res.Udual, 1)


def test_criterion_8_converse_round_trip():
    with _report(8, "mrd_to_subspace(c_ug(pseudoregulus)): (dim,iota)=(4,1), "
                    "set-equal reconstruction", 10.0):
        C = fixtures.cug_pseudoregulus()
        ext = mrd_to_subspace(C, make_tower(2, 1, 4, 1))
        assert ext.subspace.k == 4
        assert iota(ext.subspace) == 1
        assert ext.reconstructed == ext.conjugated_code
        assert all(ext.conjugated_code.contains([list(r) for r in M])
                   for M in ext.reconstructed.basis_matrices())
        assert all(ext.reconstructed.contains([list(r) for r in M])
                   for M in ext.conjugated_code.basis_matrices())


def test_criterion_9_twisted_gabidulin(scanned):
    with _report(9, "twisted Gabidulin q=3: d=3 over 3^8 words, MRD; "
                    "every eta in F_16* rejected at q=2", 120.0):
        t3 = make_tower(3, 1, 4, 1)
        eta = find_nonsquare(t3, "mid")
        tg = twisted_gabidulin(t3, 4, 2, 1, eta, 0)
        for C in (tg.code, scanned(tg.code)):
            assert C.size == 3**8
            assert C.min_distance() == 3
            assert C.is_mrd()
        t2 = make_tower(2, 1, 4, 1)
        for bad in range(1, 16):
            with pytest.raises(EtaConditionViolated):
                twisted_gabidulin(t2, 4, 2, 1, bad, 0)


def test_criterion_10_exclusion_logic(scanned, monkeypatch):
    with _report(10, "section-6 exclusion: gates + mocked CertifiedNew + "
                     "seeded search attempt", 660.0):
        # NotApplicable on a fixture with (h+1) | r (and hypotheses met)
        t25 = make_tower(2, 1, 5, 1)
        C25 = c_ug(pseudoregulus_subspace(t25, 2, 5, 1)).code
        assert gabidulin_family_exclusion(C25, 2, 5, 1) is \
            GabidulinExclusion.NOT_APPLICABLE
        # HypothesisViolated for (n,h) = (4,1)
        with pytest.raises(HypothesisViolated):
            gabidulin_family_exclusion(fixtures.cug_pseudoregulus(), 2, 4, 1)
        # CertifiedNew on mocked invariants for (r,n,h) = (3,6,1)
        F2 = t25.base
        gens = [[[1 if (i, j) == (a, a) else 0 for j in range(6)]
                 for i in range(9)] for a in range(6)]
        mock = RankCode.from_generators(F2, 9, 6, gens)
        with monkeypatch.context() as m:
            m.setattr(mock, "min_distance", lambda *, budget: 5)
            m.setattr(rankcodes, "right_idealiser", lambda C: SimpleNamespace(order=2**6))
            assert gabidulin_family_exclusion(mock, 3, 6, 1) is \
                GabidulinExclusion.CERTIFIED_NEW
        # bonus evidence: the frozen search witness (found by
        # scripts/search_demo.py at seed 20260808) drives the full pipeline
        # on a real C_{U,G}
        W = fixtures.certified_new_witness()
        assert is_h_scattered(W, 1)
        C = c_ug(ordinary_dual(W)).code
        assert (C.m, C.n, C.q) == (9, 6, 2)
        assert C.min_distance() == scanned(C).min_distance() == 5
        assert C.is_mrd()
        assert right_idealiser(C).order == 2**6
        assert gabidulin_family_exclusion(C, 3, 6, 1) is \
            GabidulinExclusion.CERTIFIED_NEW
        print("  [criterion 10 bonus: frozen witness certified-new on the "
              "real (9,6,2;5) code]", file=sys.__stdout__, flush=True)
        # a fresh short seeded search attempt; NotFound is an accepted outcome
        evals = int(os.environ.get("RANKLAB_SEARCH_EVALS", "60"))
        t26 = make_tower(2, 1, 6, 1)
        found = random_scattered_search(t26, 3, 1, 9, seed=20260808,
                                        max_evals=evals)
        print(f"  [criterion 10 search attempt: found={found.found} "
              f"after {found.evaluations} evaluations]",
              file=sys.__stdout__, flush=True)
        if found.found:
            D2 = c_ug(ordinary_dual(found.subspace)).code
            assert gabidulin_family_exclusion(D2, 3, 6, 1) is \
                GabidulinExclusion.CERTIFIED_NEW


def test_criterion_11_hamming_weights():
    with _report(11, "projective-system code [15,2]/F16 with weights {14,15}, "
                     "coeffs {225,30}; q-system [4,2,3]", 10.0):
        U = fixtures.pseudoregulus(2, 4, 1)
        C = projective_system_code(linear_set(U))
        assert (C.N, C.k) == (15, 2)
        enum = weight_enumerator(C, "codeword")
        assert enum == {14: 225, 15: 30}
        assert len(enum) == 2  # exactly h+1 weights
        assert sum(enum.values()) == 16**2 - 1
        qc = qsystem_code(U)
        assert (qc.N, qc.k, qc.d) == (4, 2, 3)
