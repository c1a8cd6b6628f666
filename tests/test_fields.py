"""Field tower construction, trace/norm/frobenius."""

import functools
import random

import pytest
from hypothesis import given, strategies as st

from ranklab.errors import InvalidParams, NotPrime, WrongLevel
from ranklab.fields import (
    Field,
    FieldTower,
    digit_codec,
    is_irreducible,
    least_irreducible,
    make_tower,
    poly_eval,
    prime_factors,
    slot_width,
)
from ranklab.serialize import fe_from_json

from oracles import base_vec_to_mid, code_digits, digits_code


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
    assert t.trace_to_base("mid", omega) == 1


def test_trace_zero_and_wrong_level(t2_4):
    assert t2_4.trace_to_base("mid", 0) == 0
    assert t2_4.trace_to_base("base", 1) == 1
    with pytest.raises(WrongLevel):
        t2_4.trace_to_base("bottom", 1)


def test_trace_f16_generator(t2_4):
    # oracle: sum the conjugates g^(2^i) computed by plain exponentiation
    mid = t2_4.mid
    g = mid.gen
    acc = 0
    for i in range(4):
        acc = mid.add(acc, mid.pow(g, 2**i))
    assert acc == 0
    assert t2_4.trace_to_base("mid", g) == acc


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 1))
def test_trace_is_fq_linear(a, b, lam):
    t = make_tower(2, 1, 4, 1)
    mid = t.mid
    tr = lambda x: t.trace_to_base("mid", x)
    assert tr(mid.add(a, b)) == t.base.add(tr(a), tr(b))
    assert tr(mid.mul(lam, a)) == t.base.mul(lam, tr(a))


def test_frobenius_identity_order_and_square(t2_4):
    g = t2_4.mid.gen
    assert t2_4.frob("mid", g, 0) == g
    assert t2_4.frob("mid", g, 4) == g
    assert t2_4.frob("mid", g, 1) == t2_4.mid.mul(g, g)


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


def test_first_frobenius_builds_no_table(monkeypatch):
    # x -> x^q is one log lookup: a fresh F_{2^16} (an empty field cache)
    # allocates no |F|-entry table on its first Frobenius
    import tracemalloc

    from ranklab import fields

    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    t = FieldTower(2, 1, 16, 1)
    a = t.mid.gen
    tracemalloc.start()
    try:
        assert t.frob("mid", a, 1) == t.mid.mul(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def _powers(F, x, m):
    """[1, x, ..., x^(m-1)] by products in F (x unused when m = 1)."""
    out = [1]
    while len(out) < m:
        out.append(F.mul(out[-1], x))
    return out


# n = 1 makes mid the base field, t = 1 makes top the mid field
@pytest.mark.parametrize("params", [(2, 2, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1), (2, 2, 1, 2),
                                    (2, 3, 1, 2), (3, 2, 1, 2), (2, 2, 2, 1), (3, 1, 2, 2),
                                    (2, 1, 3, 2)])
def test_coordinates_rebuild_the_element(params):
    # coordinates over (1, g, ..., g^{n-1}), and over h^j·g^i mid-block major
    # for top = mid(h), give back the element as Σ c_k·basis_k in the field
    t = make_tower(*params)
    mid, top, n, k = t.mid, t.top, t.n, t.n * t.t
    mid_basis = _powers(mid, t.q, n)
    top_basis = [top.mul(y, x) for y in _powers(top, mid.order, t.t) for x in mid_basis]

    def rebuild(F, coords, basis):
        return functools.reduce(F.add, map(F.mul, coords, basis), 0)

    for a in mid.elements():
        v = t.mid_to_base_vec(a)
        assert len(v) == n and all(c < t.q for c in v)
        assert rebuild(mid, v, mid_basis) == a == base_vec_to_mid(t, v)
    for a in top.elements():
        v = t.top_to_base_vec(a)
        assert len(v) == k and all(c < t.q for c in v)
        assert rebuild(top, v, top_basis) == a


# t = 2 towers beyond q = 2: F_3 ⊂ F_9 ⊂ F_81, F_3 ⊂ F_27 ⊂ F_729, F_4 ⊂ F_16 ⊂ F_256,
# and t = 3: F_2 ⊂ F_4 ⊂ F_64, F_3 ⊂ F_9 ⊂ F_729
T2_TOWERS = [(3, 1, 2, 2), (3, 1, 3, 2), (2, 2, 2, 2), (2, 1, 2, 3), (3, 1, 2, 3)]


@pytest.mark.parametrize("params", T2_TOWERS)
def test_top_frobenius_trace_and_norm_on_t2_towers(params):
    t = make_tower(*params)
    top, mid, base, n, q, deg = t.top, t.mid, t.base, t.n, t.q, t.n * t.t
    rng = random.Random(7)
    fr = lambda x, s: t.frob("top", x, s)
    for _ in range(200):
        a, b = rng.randrange(top.order), rng.randrange(top.order)
        assert fr(top.add(a, b), 1) == top.add(fr(a, 1), fr(b, 1))
        assert fr(top.mul(a, b), 1) == top.mul(fr(a, 1), fr(b, 1))
        assert fr(a, 1) == top.pow(a, q)
    # x -> x^q has order nt; its fixed field is F_q, and x^{q^n}'s is F_{q^n}
    ys = list(top.elements())
    for s in range(1, deg + 1):
        ys = [fr(y, 1) for y in ys]
        assert (ys == list(top.elements())) == (s == deg), s
    assert [x for x in top.elements() if fr(x, 1) == x] == list(base.elements())
    assert [x for x in top.elements() if fr(x, n) == x] == list(mid.elements())
    lam = rng.randrange(1, q)
    traces, norms = set(), set()
    for x in top.elements():
        tr, nm = t.trace_to_base("top", x), t.norm_to_base("top", x)
        traces.add(tr)
        norms.add(nm)
        # transitivity through F_{q^n}: Tr = Tr_mid ∘ Tr_{top/mid}, N likewise
        conj = [fr(x, i) for i in range(0, deg, n)]
        assert tr == t.trace_to_base("mid", functools.reduce(top.add, conj))
        assert nm == t.norm_to_base("mid", functools.reduce(top.mul, conj))
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


def test_norm_is_multiplicative(t3_4):
    mid = t3_4.mid
    for a, b in ((5, 7), (80, 3), (11, 11)):
        na = t3_4.norm_to_base("mid", a)
        nb = t3_4.norm_to_base("mid", b)
        nab = t3_4.norm_to_base("mid", mid.mul(a, b))
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
    assert t3_4.mid.prime_vec(5) == [2, 1, 0, 0]  # 5 = 2 + 1*3
    assert fe_from_json(t3_4, {"level": "mid", "coeffs": [2, 1, 0, 0]}) == (t3_4.mid, 5)


@pytest.mark.parametrize("params", [(2, 2, 3, 1), (3, 1, 2, 2)])
def test_prime_vec_round_trips_on_mid_and_top(params):
    # from_prime_vec and fe_from_json read back every code of both levels
    tower = make_tower(*params)
    for level in ("mid", "top"):
        F = tower.field(level)
        for a in F.elements():
            coeffs = F.prime_vec(a)
            assert F.from_prime_vec(coeffs) == a
            assert fe_from_json(tower, {"level": level, "coeffs": coeffs}) == (F, a)


def test_construction_verifies_each_extension_modulus(monkeypatch):
    # the modulus of each step of degree > 1 over its own base, the base
    # field's too, and no degree-1 modulus of a trivial step
    from ranklab import fields

    calls = []
    verify = fields._verify_irreducible
    monkeypatch.setattr(fields, "_verify_irreducible",
                        lambda F, f: calls.append((F.order, tuple(f))) or verify(F, f))
    FieldTower(2, 3, 1, 1)
    assert calls == [(2, (1, 1, 0, 1))]     # F_8 over F_2
    calls.clear()
    T = FieldTower(2, 2, 3, 2)
    assert calls == [(2, (1, 1, 1)), (4, T.modulus_mid), (64, T.modulus_top)]
    calls.clear()
    FieldTower(3, 1, 1, 1)
    assert calls == []


def test_modulus_check_falls_back_to_rabin_above_the_trial_limit(monkeypatch):
    # degree 26 over F_2: trial division would need the 2^13 > 2^12 monic
    # polynomials of degree 13, so _verify_irreducible runs its second Rabin
    # test (a tower budget above the default 2^24 reaches it)
    from ranklab import fields

    T = FieldTower(2, 1, 26, 1, budget=1 << 26)
    calls = []
    monkeypatch.setattr(fields, "is_irreducible",
                        lambda F, f: calls.append(len(f) - 1) or is_irreducible(F, f))
    assert fields._verify_irreducible(T.base, T.modulus_mid) is True
    no_root = functools.reduce(lambda f, _: fields.poly_mul(T.base, f, (1, 1, 1)), range(13), (1,))
    assert fields._verify_irreducible(T.base, no_root) is False   # (x^2 + x + 1)^13
    assert calls == [26, 26]


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
        assert F.add(a, F.neg(b)) == _digit_add(F, a, _digit_neg(F, b)), (F, a, b)
    for a, _ in pairs:
        assert F.neg(a) == _digit_neg(F, a), (F, a)


# (p, e, n): the mid field F_{p^{en}}; n = 1 gives the base field F_{p^e}
SMALL_ODD_FIELDS = [(3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 2, 1), (5, 1, 2), (3, 1, 3)]
# (3, 1, 13): F_{3^13} is above LOG_TABLE_LIMIT, where addition is digit-wise
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


def test_is_prime_matches_a_sieve():
    from ranklab.fields import is_prime

    limit = 2000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, limit):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [p for p in range(-3, limit) if is_prime(p)] == \
        [p for p in range(limit) if sieve[p]]


# -- exp/log/Zech/Frobenius tables against the per-entry chain -----------------


def _pow_raw(F, a, e):
    """a^e by square-and-multiply over polynomial products (no tables)."""
    r = 1
    while e:
        if e & 1:
            r = F._mul_raw(r, a)
        a = F._mul_raw(a, a)
        e >>= 1
    return r


def _least_primitive(F):
    """The least code c with c^((|F|-1)/f) != 1 for every prime f."""
    n = F.order - 1
    factors = prime_factors(n)
    return next(c for c in range(1, F.order)
                if all(_pow_raw(F, c, n // f) != 1 for f in factors))


def _chain_tables(F):
    """exp, log and Zech tables the slow way: the pow-based primitive
    search, then one polynomial product per entry, then the Zech pass."""
    n, p, g = F.order - 1, F.p, _least_primitive(F)
    exp, log, v = [1] * (2 * n), [0] * F.order, 1
    for i in range(n):
        exp[i] = exp[i + n] = v
        log[v] = i
        v = F._mul_raw(v, g)
    zech = None
    if p != 2 and F.base is not None:
        zech = [-1] * n
        for k in range(n):
            a = exp[k]
            if a != p - 1:
                zech[k] = log[a + 1 if a % p != p - 1 else a + 1 - p]
        zech += zech
    return exp, log, zech


# (p, e, n, t, level): prime fields; F_4 ... F_6561, F_64 built three ways
# ((2,1,6), (2,2,3), (2,3,2)); the top fields of the t = 2 and t = 3 towers
TABLE_GRID = (
    [(p, 1, 1, 1, "base") for p in (2, 3, 5, 7)]
    + [(2, 2, 1, 1, "base"), (2, 3, 1, 1, "base"), (3, 2, 1, 1, "base")]
    + [(2, 1, 4, 1, "mid"), (5, 1, 2, 1, "mid"), (3, 1, 3, 1, "mid"),
       (3, 1, 4, 1, "mid"), (2, 1, 8, 1, "mid"), (5, 1, 4, 1, "mid"),
       (3, 1, 6, 1, "mid"), (2, 1, 12, 1, "mid"), (3, 1, 8, 1, "mid"),
       (3, 2, 4, 1, "mid")]
    + [(2, 1, 6, 1, "mid"), (2, 2, 3, 1, "mid"), (2, 3, 2, 1, "mid")]
    + [params + ("top",) for params in T2_TOWERS])


@pytest.mark.parametrize("p,e,n,t,level", TABLE_GRID)
def test_tables_match_the_per_entry_chain(p, e, n, t, level):
    tower = make_tower(p, e, n, t)
    F = tower.field(level)
    exp, log, zech = _chain_tables(F)
    assert F._exp == exp
    assert F._log == log
    assert F._zech == zech
    for q in {tower.q, p}:
        assert [F.pow(a, q) for a in F.elements()] == [_pow_raw(F, a, q) for a in F.elements()]


@pytest.mark.parametrize("p,n", [(2, 16), (3, 12)])
def test_large_tables_are_a_bijection_stepping_by_g(p, n):
    F = make_tower(p, 1, n, 1).mid
    N = F.order - 1
    exp, g = F._exp, F._exp[1]
    assert g == _least_primitive(F)
    assert sorted(exp[:N]) == list(range(1, F.order))
    assert exp[:N] == exp[N:]
    assert all(F._log[exp[i]] == i for i in range(N))
    rng = random.Random(F.order)
    for i in rng.sample(range(N), 500):
        assert exp[i + 1] == F._mul_raw(exp[i], g)


@pytest.mark.parametrize("params", [(2, 1, 12, 1), (3, 1, 8, 1), (2, 1, 17, 1)])
def test_building_a_tower_takes_few_polynomial_products(params, monkeypatch):
    # from scratch: an empty field cache, and FieldTower rather than the
    # cached make_tower.  The per-entry chain took one product per table
    # entry (4,095 or more for F_4096); the linear walk takes D = 12, 8 or 17
    # per primitive candidate it walks
    from ranklab import fields

    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    calls = []
    mul_raw = Field._mul_raw
    monkeypatch.setattr(Field, "_mul_raw",
                        lambda self, a, b: calls.append(1) or mul_raw(self, a, b))
    fields.FieldTower(*params)
    assert len(calls) < 1000


def test_reducible_modulus_is_refused_by_the_table_walk():
    # X^2 + 1 = (X + 1)^2 over F_2 and X^2 - 1 over F_3: the walk of a zero
    # divisor never returns to 1
    from ranklab import fields
    from ranklab.errors import InvalidParams

    for p, modulus in ((2, (1, 0, 1)), (3, (2, 0, 1))):
        with pytest.raises(InvalidParams, match="reducible"):
            Field.extension(Field(p), modulus)
        assert ("ext", ("prime", p), modulus) not in fields._FIELD_CACHE


# -- the digit codec: one code <-> block bijection per (field, degree) ----------

# q -> (p, e)
CODEC_Q = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}


def _codec_pairs(q):
    """(F, deg) of every codec that a tower make_tower(p, e, n, 1), n <= 4,
    reads: (base, n) for store_digits and basis_mid, (prime, e) for the
    walk's rows, and (prime, e·n) for log_column, the walk of a field
    without log tables and Field._orbit."""
    p, e = CODEC_Q[q]
    pairs = set()
    for n in range(1, 5):
        tower = make_tower(p, e, n, 1)
        pairs |= {(tower.base, n), (tower.prime, e), (tower.prime, e * n)}
    return sorted(pairs, key=lambda pair: (pair[0].order, pair[1]))


@pytest.mark.parametrize("q", sorted(CODEC_Q))
def test_digit_codec_round_trips_every_code(q):
    """Each code's block is its base-|F| digits c // |F|^j % |F| in the
    stored form (slots of slot_width bits over a prime field, a tuple over
    an extension field), and code() reads it back as Σ digit·|F|^j: every
    code up to 2^12 of them, else 2^12 seeded codes and the last.  A code
    of -1 or |F|^deg is refused and not kept."""
    for F, deg in _codec_pairs(q):
        codec, top = digit_codec(F, deg), F.order**deg
        codes = range(top) if top <= 1 << 12 else (
            random.Random(top).sample(range(top), 1 << 12) + [top - 1])
        for c in codes:
            digits = code_digits(c, F.order, deg)
            want = tuple(digits) if F.base else sum(
                d << j * slot_width(F) for j, d in enumerate(digits))
            assert codec[c] == want and codec.code(want) == c == digits_code(digits, F.order)
        for c in (-1, top):
            with pytest.raises(InvalidParams, match=f"outside 0..{top - 1}"):
                codec[c]
            assert c not in codec


def test_digit_codec_holds_a_bounded_number_of_blocks(monkeypatch):
    """F_{3^13} keeps no log tables, and a walk may read up to 2^20·r of
    its codes: the codec's dict is emptied when full, and its two read-back
    tables hold 3^7 and 3^6 entries.  A prime field above 2^20 elements,
    one digit per code, reads a block back with no table."""
    from ranklab import fields

    monkeypatch.setattr(fields, "CODEC_CACHE_LIMIT", 5)
    codec, top = fields.DigitCodec(Field(3), 13), 3**13
    assert (len(codec.lo), len(codec.hi)) == (3**7, 3**6)
    for c in range(0, top, top // 40):
        block = codec[c]
        assert len(codec) <= 5 and codec.code(block) == c
    p = 1048583
    codec = fields.DigitCodec(Field(p), 1)
    assert not hasattr(codec, "lo")
    assert [codec.code(codec[c]) for c in (0, 1, p - 1)] == [0, 1, p - 1]


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 4), (2, 2, 3), (5, 1, 3),
                                   (2, 3, 2), (3, 2, 3), (2, 1, 12), (7, 1, 3)])
def test_freshly_built_field_keeps_its_tables(p, e, n, monkeypatch):
    """A field built again, its codes read through a digit codec that is
    emptied at every block, has the exp and log tables of the per-entry
    chain, as the interned field has."""
    from ranklab import fields

    F = make_tower(p, e, n, 1).mid
    monkeypatch.setattr(fields, "CODEC_CACHE_LIMIT", 1)
    monkeypatch.delitem(fields._FIELD_CACHE, F.key)
    fresh = Field.extension(F.base, F.modulus)
    exp, log, _ = _chain_tables(fresh)
    assert fresh is not F
    assert fresh._exp == F._exp == exp and fresh._log == F._log == log


# -- arithmetic above LOG_TABLE_LIMIT, where no table is built ------------------


@pytest.mark.parametrize("p,n", [(1048583, 1), (2, 21), (3, 13)])
def test_arithmetic_without_log_tables(p, n):
    # p = 1,048,583 is the first prime above 2^20: mul, inv and pow take the
    # table-free branches of a prime field, checked against integers mod p;
    # F_{2^21} and F_{3^13} multiply by polynomial products, checked against
    # _pow_raw's square-and-multiply and the group order
    F = make_tower(p, 1, n, 1).mid
    assert F._exp is None and F._zech is None
    N = F.order - 1
    rng = random.Random(F.order)
    for i in range(200):
        a, b, c = (rng.randrange(1, F.order) for _ in range(3))
        assert F.add(a, F.neg(b)) == _digit_add(F, a, _digit_neg(F, b))
        assert F.add(F.neg(a), a) == 0
        if F.base is None:
            e = rng.randrange(2 * N)
            assert (F.mul(a, b), F.add(a, F.neg(b)), F.neg(a)) == (a * b % p, (a - b) % p, p - a)
            assert F.inv(a) == pow(a, -1, p)
            for x in (0, e, N, N + e):
                assert F.pow(a, x) == pow(a, x, p)
            continue
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if i < 12:
            e = rng.randrange(N)
            assert F.pow(a, 0) == 1 and F.pow(a, N) == 1
            assert F.pow(a, e) == F.pow(a, N + e) == _pow_raw(F, a, e)
            assert F.mul(a, F.inv(a)) == 1
