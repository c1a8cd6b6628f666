"""Field tower construction, trace/norm/frobenius, minimal polynomials."""

import random

import pytest
from hypothesis import given, strategies as st

from ranklab.errors import NotPrime, WrongLevel
from ranklab.fields import (
    Fe,
    Field,
    frobenius,
    is_irreducible,
    least_irreducible,
    make_tower,
    minimal_polynomial,
    norm_to_base,
    poly_eval,
    poly_mod,
    trace_to_base,
)


def test_tower_2_1_4_1_modulus_is_lex_least(t2_4):
    # smallest lexicographic irreducible of degree 4 over F_2 is x^4 + x + 1
    assert t2_4.modulus_mid == (1, 1, 0, 0, 1)
    assert t2_4.mid.order == 16


def test_tower_2_1_3_2_builds(t2_32):
    assert (t2_32.base.order, t2_32.mid.order, t2_32.top.order) == (2, 8, 64)


def test_tower_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        make_tower(5 * 7, 1, 2, 1)
    with pytest.raises(NotPrime):
        make_tower(4, 1, 2, 1)


def test_trace_f4_omega_is_one():
    t = make_tower(2, 1, 2, 1)
    omega = t.mid.gen  # omega^2 = omega + 1
    assert t.mid.mul(omega, omega) == t.mid.add(omega, 1)
    assert trace_to_base(Fe(t, "mid", omega)) == Fe(t, "base", 1)


def test_trace_zero_and_wrong_level(t2_4):
    assert trace_to_base(Fe(t2_4, "mid", 0)).code == 0
    with pytest.raises(WrongLevel):
        trace_to_base(Fe(t2_4, "base", 1))


def test_trace_f16_generator(t2_4):
    # oracle: sum the conjugates g^(2^i) computed by plain exponentiation
    mid = t2_4.mid
    g = mid.gen
    acc = 0
    for i in range(4):
        acc = mid.add(acc, mid.pow(g, 2**i))
    assert acc == 0
    assert trace_to_base(Fe(t2_4, "mid", g)).code == acc


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 1))
def test_trace_is_fq_linear(a, b, lam):
    t = make_tower(2, 1, 4, 1)
    mid = t.mid
    tr = lambda x: t.trace_to_base("mid", x)
    assert tr(mid.add(a, b)) == t.base.add(tr(a), tr(b))
    assert tr(mid.mul(lam, a)) == t.base.mul(lam, tr(a))


def test_frobenius_identity_order_and_square(t2_4):
    g = Fe(t2_4, "mid", t2_4.mid.gen)
    assert frobenius(g, 0) == g
    assert frobenius(g, 4) == g
    assert frobenius(g, 1).code == t2_4.mid.mul(g.code, g.code)


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 7), st.integers(0, 7))
def test_frobenius_is_field_automorphism(a, b, s1, s2):
    t = make_tower(3, 1, 4, 1)
    mid = t.mid
    fr = lambda x, s: t.frob("mid", x, s)
    assert fr(mid.add(a, b), s1) == mid.add(fr(a, s1), fr(b, s1))
    assert fr(mid.mul(a, b), s1) == mid.mul(fr(a, s1), fr(b, s1))
    assert fr(a, s1 + s2) == fr(fr(a, s1), s2)


def test_frobenius_fixed_points_exhaustive():
    # exactly q elements of F_{q^n} satisfy x^q = x (q^n <= 2^12)
    for p, e, n in ((2, 1, 4), (3, 1, 4), (2, 2, 2), (2, 1, 3)):
        t = make_tower(p, e, n, 1)
        fixed = [x for x in t.mid.elements() if t.frob("mid", x, 1) == x]
        assert len(fixed) == t.q


# t = 2 towers beyond q = 2: F_3 ⊂ F_9 ⊂ F_81, F_3 ⊂ F_27 ⊂ F_729, F_4 ⊂ F_16 ⊂ F_256
T2_TOWERS = [(3, 1, 2, 2), (3, 1, 3, 2), (2, 2, 2, 2)]


@pytest.mark.parametrize("params", T2_TOWERS)
def test_top_frobenius_trace_and_norm_on_t2_towers(params):
    t = make_tower(*params)
    top, mid, base, n, q = t.top, t.mid, t.base, t.n, t.q
    rng = random.Random(7)
    fr = lambda x, s: t.frob("top", x, s)
    for _ in range(200):
        a, b = rng.randrange(top.order), rng.randrange(top.order)
        assert fr(top.add(a, b), 1) == top.add(fr(a, 1), fr(b, 1))
        assert fr(top.mul(a, b), 1) == top.mul(fr(a, 1), fr(b, 1))
        assert fr(a, 1) == top.pow(a, q)
    # x -> x^q has order nt; its fixed field is F_q, and x^{q^n}'s is F_{q^n}
    ys = list(top.elements())
    for s in range(1, 2 * n + 1):
        ys = [fr(y, 1) for y in ys]
        assert (ys == list(top.elements())) == (s == 2 * n), s
    assert [x for x in top.elements() if fr(x, 1) == x] == list(base.elements())
    assert [x for x in top.elements() if fr(x, n) == x] == list(mid.elements())
    lam = rng.randrange(1, q)
    traces, norms = set(), set()
    for x in top.elements():
        tr, nm = t.trace_to_base("top", x), t.norm_to_base("top", x)
        traces.add(tr)
        norms.add(nm)
        # transitivity through F_{q^n}: Tr = Tr_mid ∘ Tr_{top/mid}, N likewise
        assert tr == t.trace_to_base("mid", top.add(x, fr(x, n)))
        assert nm == t.norm_to_base("mid", top.mul(x, fr(x, n)))
        assert t.trace_to_base("top", top.mul(lam, x)) == base.mul(lam, tr)
        y = rng.randrange(top.order)
        assert t.trace_to_base("top", top.add(x, y)) == base.add(
            tr, t.trace_to_base("top", y))
        assert t.norm_to_base("top", top.mul(x, y)) == base.mul(
            nm, t.norm_to_base("top", y))
    assert traces == set(base.elements())
    assert norms == set(base.elements())


def test_trace_form_is_nondegenerate():
    # Gram matrix of (x,y) -> Tr(xy) over the polynomial basis is invertible
    from ranklab.fqlinalg import Mat, rref

    for p, e, n in ((2, 1, 4), (3, 1, 4), (2, 1, 3)):
        t = make_tower(p, e, n, 1)
        g = t.mid.gen
        gram = [[t.trace_to_base("mid", t.mid.pow(g, i + j)) for j in range(n)]
                for i in range(n)]
        assert rref(Mat.from_rows(t.base, gram, n))[1] == n


def test_minimal_polynomial_degree_one_cases(t2_4):
    assert minimal_polynomial(Fe(t2_4, "mid", 1)) == (1, 1)  # X + (-1) over F_2
    assert minimal_polynomial(Fe(t2_4, "mid", 0)) == (0, 1)  # X


def test_minimal_polynomial_of_generator_divides_x16_minus_x(t2_4):
    mid = t2_4.mid
    mp = minimal_polynomial(Fe(t2_4, "mid", mid.gen))
    assert len(mp) == 5 and mp[-1] == 1
    # oracle: the product of (X - g^(2^i)) has exactly these base coefficients
    from ranklab.fields import poly_mul

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
        mp = minimal_polynomial(Fe(t2_32, "top", code))
        assert (len(mp) - 1) in (1, 2, 3, 6)


def test_norm_is_multiplicative(t3_4):
    mid = t3_4.mid
    for a, b in ((5, 7), (80, 3), (11, 11)):
        na = norm_to_base(Fe(t3_4, "mid", a)).code
        nb = norm_to_base(Fe(t3_4, "mid", b)).code
        nab = norm_to_base(Fe(t3_4, "mid", mid.mul(a, b))).code
        assert nab == t3_4.base.mul(na, nb)


def test_least_irreducible_is_verified_irreducible():
    F2 = Field(2)
    assert least_irreducible(F2, 2) == (1, 1, 1)
    assert least_irreducible(F2, 3) == (1, 1, 0, 1)
    F3 = Field(3)
    f = least_irreducible(F3, 4)
    assert is_irreducible(F3, f)
    # no roots, as the trial verification demands
    assert all(poly_eval(F3, f, x) != 0 for x in F3.elements())


def test_field_interning_across_towers():
    a = make_tower(2, 1, 4, 1).mid
    b = make_tower(2, 1, 4, 2).mid
    assert a is b


def test_fe_serialization_coeffs(t3_4):
    x = Fe(t3_4, "mid", 5)  # 5 = 2 + 1*3
    assert x.prime_coeffs() == [2, 1, 0, 0]


def test_make_tower_budget_gate():
    from ranklab.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        make_tower(2, 1, 30, 1, budget=1 << 20)


# -- Zech-logarithm addition against the digit-wise oracle ---------------------


def _digit_add(F, a, b):
    """a + b digit by digit mod p on the prime-field coefficient vectors."""
    p = F.p
    return sum(((x + y) % p) * p**i
               for i, (x, y) in enumerate(zip(F.prime_vec(a), F.prime_vec(b))))


def _digit_neg(F, a):
    p = F.p
    return sum((-x % p) * p**i for i, x in enumerate(F.prime_vec(a)))


def _check_add_sub_neg(F, pairs):
    for a, b in pairs:
        assert F.add(a, b) == _digit_add(F, a, b), (F, a, b)
        assert F.sub(a, b) == _digit_add(F, a, _digit_neg(F, b)), (F, a, b)
    for a, _ in pairs:
        assert F.neg(a) == _digit_neg(F, a), (F, a)


# (p, e, n): the mid field F_{p^{en}}; n = 1 gives the base field F_{p^e}
SMALL_ODD_FIELDS = [(3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 2, 1), (5, 1, 2), (3, 1, 3)]
# (3, 1, 13): F_{3^13} is above LOG_TABLE_LIMIT, where the digit loop runs
LARGER_ODD_FIELDS = [(3, 1, 4), (5, 1, 4), (3, 2, 4), (3, 1, 13)]


@pytest.mark.parametrize("p,e,n", SMALL_ODD_FIELDS)
def test_add_sub_neg_match_digit_oracle_on_all_pairs(p, e, n):
    F = make_tower(p, e, n, 1).mid
    # extensions below the table limit add by Zech logarithms, not digits
    assert F.base is None or F._zech is not None
    _check_add_sub_neg(F, [(a, b) for a in F.elements() for b in F.elements()])


@pytest.mark.parametrize("p,e,n", LARGER_ODD_FIELDS)
def test_add_sub_neg_match_digit_oracle_on_seeded_pairs(p, e, n):
    import random

    from ranklab.fields import LOG_TABLE_LIMIT

    F = make_tower(p, e, n, 1).mid
    assert (F._zech is None) == (F.order > LOG_TABLE_LIMIT)
    rng = random.Random(F.order)
    pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(3000)]
    pairs += [(0, 0), (1, F.neg(1)), (F.order - 1, 0), (0, F.order - 1)]
    _check_add_sub_neg(F, pairs)
