"""Exact finite-field tower arithmetic F_q ⊆ F_{q^n} ⊆ F_{q^{nt}}.

Element representation: an element of a field of order p^d is an integer code
in [0, p^d) whose base-p digits are the coefficients over the prime field.
The packing is nested positionally, so for an extension of degree d over a
base of order B the base-B digits of the code are the base-field coefficient
codes of the reduced polynomial.  Consequences used throughout:

  * addition is digit-wise mod p (XOR when p = 2),
  * adding 1 changes only the lowest base-p digit,
  * the polynomial-basis generator of an extension has code B,
  * subfield constants embed with unchanged codes.

Fields of order <= 2^20 (LOG_TABLE_LIMIT) keep exp/log tables of the least
primitive element g: multiplication and inversion are lookups, and addition
in an odd-characteristic extension uses Zech logarithms, g^a + g^b =
g^(a + Z(b - a)) with Z(k) = log(1 + g^k) and -1 = g^((|F|-1)/2).  Prime
fields add mod p; larger extensions add digit-wise.  Field._orbit walks
1, c, c^2, ... with v -> c·v as an F_p-linear map on the packed code; the
first walk of length |F| - 1 is exp, so a power, x -> x^(q^s) included, is
one lookup: x^m = exp[log(x)·m mod (|F| - 1)].
Moduli are the least monic irreducibles over the base, ordered by the packed
code of their non-leading coefficients, so serialized values are portable.

Where each shared formula lives: Field.add holds the Zech formula, and every
subtraction adds the negation (poly_mod, _poly_sub, fqlinalg's row operations);
_digits reads a code's digits and _from_digits packs them (prime_vec,
from_prime_vec, Field's table-free arithmetic, FieldTower's coordinates,
_monic_polys, fqlinalg's store_row and unpack_row); DigitCodec maps a code to
its block of digits and back (fqlinalg's store_digits, digit_rows and
log_column, Field._orbit); Field.pow raises to a power (inv, FieldTower.frob);
poly_mul, poly_mod and poly_pow_mod multiply, reduce and power polynomials
(Field._mul_raw, the table-free Field.pow, the irreducibility tests); _monic
scales a polynomial to be monic (poly_gcd, fqlinalg.min_poly); _monic_polys
lists candidate moduli in code order (least_irreducible, _verify_irreducible);
_split_tables splits an F_p-linear map into two tables over ⌈D/2⌉ digits
(DigitCodec, Field._orbit); Field._interned builds and caches every field;
FieldTower._fold_conjugates folds the conjugates for trace_to_base and
norm_to_base.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .errors import (
    BudgetExceeded,
    InternalInvariantError,
    InvalidParams,
    NotPrime,
    WrongLevel,
)

LOG_TABLE_LIMIT = 1 << 20
CODEC_CACHE_LIMIT = 1 << 16
DEFAULT_TOWER_BUDGET = 1 << 24
TRIAL_FACTOR_LIMIT = 1 << 12


def is_prime(p: int) -> bool:
    return prime_factors(p) == [p]


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m by trial division (desk-scale m)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def slot_width(F: "Field") -> int:
    """Bits per coordinate of a packed F_p-vector over the prime field F."""
    return 1 if F.p == 2 else (2 * F.p - 2).bit_length() + 1


class Slots:
    """Arithmetic on packed F_p-vectors of ncols coordinates at odd p:
    coordinate j sits in bits [j·W, (j+1)·W), W = slot_width (vectors over
    F_2 add by XOR).  fqlinalg stores prime-field rows in this form, and
    Field._orbit walks the powers of an element in it.

    An entry is below p, so a slot of x + y is at most 2p − 2, and a
    slot of x + (p − y) at most 2p − 1; both are below 2^v + p with
    v = W − 1.  Adding 2^v − p to every slot carries into bit v exactly where
    the slot reached p, and never out of the slot, so subtracting p times
    those bits reduces every slot at once (a fold).
    """

    __slots__ = ("p", "width", "mask", "low", "plow", "carry", "guard")

    def __init__(self, F: "Field", ncols: int):
        self.p = p = F.p
        self.width = width = slot_width(F)
        self.mask = (1 << width) - 1
        self.low = ((1 << (ncols * width)) - 1) // self.mask   # bit 0 of each slot
        self.plow = p * self.low
        self.guard = width - 1
        self.carry = self.low * ((1 << self.guard) - p)

    def add(self, x: int, y: int) -> int:
        s = x + y
        return s - self.p * (((s + self.carry) >> self.guard) & self.low)

    def scale(self, x: int, c: int) -> int:
        """c·x for c in F_p, by doubling and adding."""
        if c == 1:
            return x
        p, guard, low, carry = self.p, self.guard, self.low, self.carry
        acc = x if c & 1 else 0
        c >>= 1
        while c:
            s = x + x
            x = s - p * (((s + carry) >> guard) & low)
            if c & 1:
                s = acc + x
                acc = s - p * (((s + carry) >> guard) & low)
            c >>= 1
        return acc

    def submul(self, x: int, c: int, y: int) -> int:
        """x − c·y for c in F_p: one fold after subtracting c·y or adding
        (p − c)·y, whichever multiplier is smaller."""
        p = self.p
        if c + c <= p:
            s = x + self.plow - self.scale(y, c)
        else:
            s = x + self.scale(y, p - c)
        return s - p * (((s + self.carry) >> self.guard) & self.low)


def _linear_table(units, images, add, p: int) -> dict[int, int]:
    """{Σ a_j·units[j]: Σ a_j·images[j]} over every a in F_p^len(units): the
    F_p-linear map units[j] -> images[j], filled by linearity.  Keys are
    packed vectors that add as integers (each unit a distinct digit place);
    values add by add."""
    table = {0: 0}
    for u, x in zip(units, images):
        known = list(table.items())
        k = y = 0
        for _ in range(p - 1):
            k, y = k + u, add(y, x)
            table.update((key + k, add(val, y)) for key, val in known)
    return table


def _split_tables(p: int, images, add) -> tuple[dict[int, int], dict[int, int]]:
    """(lo, hi): the F_p-linear map sending digit unit j of a packed vector
    of D = len(images) digits to images[j] is v -> add(lo[v & m], hi[v >> h·W]),
    with h = ⌈D/2⌉, m the mask of the low h slots and W = slot_width.  Two
    tables of p^⌈D/2⌉ entries at most, where one table would hold p^D."""
    D, w = len(images), slot_width(Field(p))
    h = (D + 1) // 2
    units = [1 << (j * w) for j in range(D)]
    return (_linear_table(units[:h], images[:h], add, p),
            _linear_table(units[:D - h], images[h:], add, p))


def _digits(a: int, b: int, d: int) -> list[int]:
    """The d lowest base-b digits of a, least significant first."""
    out = []
    for _ in range(d):
        out.append(a % b)
        a //= b
    return out


def _from_digits(digits, b: int) -> int:
    """The code whose base-b digits, least significant first, are digits."""
    a = 0
    for c in reversed(digits):
        a = a * b + c
    return a


class DigitCodec(dict):
    """The one bijection between the codes 0..|F|^deg - 1 and their blocks of
    deg base-|F| digits in fqlinalg's stored form over F: a Slots-packed int
    over a prime field, a tuple over an extension field.  As a dict, code ->
    block, filled on first sight, emptied at CODEC_CACHE_LIMIT blocks, and
    InvalidParams outside 0..|F|^deg - 1.  code(block) reads a block back: a
    prime block of one digit is its code, others lo[v & mask] + hi[v >> shift]
    (_split_tables, read inline by Field._orbit)."""

    def __init__(self, F: "Field", deg: int):
        super().__init__()
        self.field, self.deg, self.top = F, deg, F.order**deg
        if F.base is None and deg > 1:
            self.shift = (deg + 1) // 2 * slot_width(F)
            self.mask = (1 << self.shift) - 1
            self.lo, self.hi = _split_tables(F.p, [F.p**j for j in range(deg)], operator.add)

    def __missing__(self, c: int):
        if not 0 <= c < self.top:
            raise InvalidParams(f"a code lies outside 0..{self.top - 1}")
        if len(self) >= CODEC_CACHE_LIMIT:
            self.clear()
        F, digits = self.field, _digits(c, self.field.order, self.deg)
        self[c] = block = tuple(digits) if F.base else _from_digits(digits, 1 << slot_width(F))
        return block

    def code(self, block) -> int:
        if self.field.base:
            return _from_digits(block, self.field.order)
        if self.deg == 1:
            return block
        return self.lo[block & self.mask] + self.hi[block >> self.shift]


digit_codec = lru_cache(maxsize=None)(DigitCodec)     # one codec per (F, deg)


_FIELD_CACHE: dict[tuple, "Field"] = {}


class Field:
    """One field in the tower: exact arithmetic on integer element codes.

    A prime field is Field(p); an extension is built with Field.extension(),
    which records the base field and the monic modulus (tuple of base codes,
    little-endian, length deg+1, leading coefficient 1).  Structurally equal
    fields are the same object (interned), so identity checks across towers
    and deserialized values are sound.
    """

    def __new__(cls, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return cls._interned(("prime", p), p, None, None)

    @classmethod
    def extension(cls, base: "Field", modulus: tuple[int, ...]) -> "Field":
        modulus = tuple(modulus)
        if len(modulus) < 3 or modulus[-1] != 1:
            raise InvalidParams("modulus must be monic of degree >= 2")
        return cls._interned(("ext", base.key, modulus), base.p, base, modulus)

    @classmethod
    def _interned(cls, key: tuple, p: int, base: "Field | None",
                  modulus: tuple[int, ...] | None) -> "Field":
        """The field under key, built on first use.  It is cached only once
        its tables are built, so a modulus the table walk refuses is not."""
        self = _FIELD_CACHE.get(key)
        if self is not None:
            return self
        if base is None:
            deg, order, dim = 1, p, 1
        else:
            deg = len(modulus) - 1
            order, dim = base.order**deg, base.dim_over_prime * deg
        self = object.__new__(cls)
        self.key, self.p, self.base, self.modulus = key, p, base, modulus
        self.deg, self.order, self.dim_over_prime = deg, order, dim
        self._exp = self._log = self._zech = None
        if order <= LOG_TABLE_LIMIT:
            self._build_tables()
        _FIELD_CACHE[key] = self
        return self

    # -- coefficient packing ------------------------------------------------

    def prime_vec(self, a: int) -> list[int]:
        """Coefficient vector over the prime field (length dim_over_prime)."""
        return _digits(a, self.p, self.dim_over_prime)

    def from_prime_vec(self, coeffs) -> int:
        """The code of a coefficient vector over the prime field."""
        return _from_digits(coeffs, self.p)

    @property
    def gen(self) -> int:
        """Polynomial-basis generator: the class of X mod the modulus."""
        if self.base is None:
            raise WrongLevel("prime field has no polynomial generator")
        return self.base.order

    # -- ring operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.base is None:
            return (a + b) % p
        zech = self._zech
        if zech is None:
            return self._add_digits(a, b)
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2 or not a:
            return a
        if self.base is None:
            return p - a
        if self._zech is None:
            return self._neg_digits(a)
        return self._exp[self._log[a] + self._half]

    def _add_digits(self, a: int, b: int) -> int:
        """Digit-wise addition mod p, for extensions without log tables."""
        p, D = self.p, self.dim_over_prime
        return _from_digits([(x + y) % p for x, y in zip(_digits(a, p, D), _digits(b, p, D))], p)

    def _neg_digits(self, a: int) -> int:
        p = self.p
        return _from_digits([-x % p for x in _digits(a, p, self.dim_over_prime)], p)

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial multiplication with modulus reduction (no tables)."""
        if self.base is None:
            return (a * b) % self.p
        base, B, d = self.base, self.base.order, self.deg
        return _from_digits(poly_mod(base, poly_mul(base, _digits(a, B, d), _digits(b, B, d)),
                                     self.modulus), B)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        e %= self.order - 1
        if self.base is None:
            return pow(a, e, self.p)
        B = self.base.order
        return _from_digits(poly_pow_mod(self.base, _digits(a, B, self.deg), e, self.modulus), B)

    def elements(self):
        return range(self.order)

    def _build_tables(self) -> None:
        """exp/log tables of the least primitive element g, and at odd p in
        an extension the Zech logarithms.

        g is the least code whose powers reach all |F| - 1 units.  Candidates
        c = 1, 2, ... are walked by _orbit in code order; a code on the orbit
        of a smaller candidate is skipped unwalked, since its order divides
        that orbit's length, which is below |F| - 1.  The orbit of g is exp.
        """
        n = self.order - 1
        log = [0] * self.order
        for c in range(1, self.order):
            if log[c] < 0:
                continue
            exp = self._orbit(c)
            if len(exp) == n:
                break
            for v in exp:
                log[v] = -1
        for i, v in enumerate(exp):
            log[v] = i
        exp *= 2
        self._exp, self._log = exp, log
        p = self.p
        if p != 2 and self.base is not None:
            # Z(k) = log(1 + g^k); 1 + g^k = 0 only at g^k = -1, code p - 1.
            # Doubled so that Z is read at any exponent difference in (-n, 2n).
            zech = [-1 if a == p - 1 else log[a + 1 if a % p != p - 1 else a + 1 - p]
                    for a in exp[:n]]
            self._zech = zech + zech
            self._half = n // 2

    def _orbit(self, c: int) -> list[int]:
        """[1, c, ..., c^(m-1)] up to the first c^m = 1, stepping v -> c·v.

        In an extension the step is an F_p-linear map on the packed code.
        The images c·p^j of the D = dim_over_prime digit units (D _mul_raw
        calls) are spread by linearity into two tables, over the low
        h = ⌈D/2⌉ digits and over the others, so a step is two lookups and
        one add of packed F_p-vectors: XOR at p = 2.  At odd p the walk runs
        on Slots-packed vectors, adding by an integer sum and a fold, and the
        two tables of the digit codec read each step back into a code.  A
        prime field steps by v·c mod p.  Only a zero divisor, under a
        reducible modulus, never returns to 1.
        """
        p, n = self.p, self.order - 1
        orbit, v = [], 1
        append = orbit.append
        if self.base is None:    # 0 < c < p is a unit: the walk returns
            for _ in range(n):
                append(v)
                v = v * c % p
                if v == 1:
                    return orbit
        D = self.dim_over_prime
        codec = digit_codec(Field(p), D)
        shift, mask = codec.shift, codec.mask
        images = [self._mul_raw(p**j, c) for j in range(D)]
        if p == 2:
            lo, hi = _split_tables(p, images, operator.xor)
            for _ in range(n):
                append(v)
                v = lo[v & mask] ^ hi[v >> shift]
                if v == 1:
                    return orbit
        else:
            slots = Slots(Field(p), D)
            carry, guard, low = slots.carry, slots.guard, slots.low
            lo, hi = _split_tables(p, list(map(codec.__getitem__, images)), slots.add)
            code_lo, code_hi = codec.lo, codec.hi
            for _ in range(n):
                a, b = v & mask, v >> shift
                append(code_lo[a] + code_hi[b])
                s = lo[a] + hi[b]
                v = s - p * (((s + carry) >> guard) & low)
                if v == 1:
                    return orbit
        raise InvalidParams(f"modulus {self.modulus} is reducible: {c} is no unit")

    def __repr__(self):
        return f"Field(order={self.order})"


# -- polynomial helpers over a Field (little-endian tuples of codes) --------


def poly_trim(c: list[int]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_mul(F: Field, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                if bj:
                    out[k] = F.add(out[k], F.mul(ai, bj))
    return poly_trim(out)


def poly_mod(F: Field, a, m):
    """a mod m with m monic, cancelling the top coefficient first."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = F.neg(a.pop())
        if c:
            o = len(a) - dm
            for j in range(dm):
                if m[j]:
                    a[o + j] = F.add(a[o + j], F.mul(c, m[j]))
    return poly_trim(a)


def poly_pow_mod(F: Field, a, e: int, m):
    r: tuple[int, ...] = (1,)
    b = poly_mod(F, a, m)
    while e:
        if e & 1:
            r = poly_mod(F, poly_mul(F, r, b), m)
        e >>= 1
        if e:
            b = poly_mod(F, poly_mul(F, b, b), m)
    return r


def poly_gcd(F: Field, a, b):
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_mod(F, a, _monic(F, b))
    if a:
        a = _monic(F, a)
    return a


def _monic(F: Field, a):
    lc = a[-1]
    if lc == 1:
        return tuple(a)
    s = F.inv(lc)
    return tuple(F.mul(s, c) for c in a)


def poly_eval(F: Field, a, x: int) -> int:
    r = 0
    for c in reversed(a):
        r = F.add(F.mul(r, x), c)
    return r


def is_irreducible(F: Field, f) -> bool:
    """Rabin irreducibility test of a monic polynomial f over F."""
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    Q = F.order
    x = (0, 1)
    # x^(Q^k) mod f by iterating the Q-power map k times
    h = x
    pows = {}
    for k in range(1, d + 1):
        h = poly_pow_mod(F, h, Q, f)
        pows[k] = h
    if _poly_sub(F, pows[d], x):
        return False
    for r in prime_factors(d):
        # gcd(x^(Q^(d/r)) - x, f) must be trivial for every maximal proper exponent
        g = poly_gcd(F, _poly_sub(F, pows[d // r], x), f)
        if len(g) != 1:
            return False
    return True


def _poly_sub(F: Field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out.append(F.add(ai, F.neg(bi)))
    return poly_trim(out)


def least_irreducible(F: Field, d: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree d over F.

    Candidates are ordered by the packed integer code of the non-leading
    coefficient vector, which makes modulus selection reproducible.
    """
    for f in _monic_polys(F, d):
        if is_irreducible(F, f):
            return f
    raise InternalInvariantError(f"no irreducible of degree {d}")


def _verify_irreducible(F: Field, f) -> bool:
    """Independent check used at construction: roots, then trial factors.

    Falls back to a second Rabin run when full trial division is too large.
    """
    d = len(f) - 1
    if d == 1:
        return True
    for x in F.elements():
        if poly_eval(F, f, x) == 0:
            return False
    half = d // 2
    if F.order**half <= TRIAL_FACTOR_LIMIT:
        return all(poly_mod(F, f, g) for deg in range(2, half + 1)
                   for g in _monic_polys(F, deg))
    return is_irreducible(F, f)


def _monic_polys(F: Field, d: int):
    """The monic polynomials of degree d over F, in the order of the packed
    code of their non-leading coefficients."""
    B = F.order
    for code in range(B**d):
        yield (*_digits(code, B, d), 1)


# -- the tower ---------------------------------------------------------------


class FieldTower:
    """Immutable tower F_q ⊆ F_{q^n} ⊆ F_{q^{nt}} with q = p^e.

    The flattening basis of mid over base is (1, g, ..., g^{n-1}) with g the
    polynomial-basis generator of the mid field; all other modules rely on
    this being fixed.  Shareable across threads: all state is read-only after
    construction.  A code's base-q digits are its coordinates over F_q (_digits).
    """

    def __init__(self, p: int, e: int, n: int, t: int, *,
                 budget: int = DEFAULT_TOWER_BUDGET):
        if e < 1 or n < 1 or t < 1:
            raise InvalidParams("e, n, t must be >= 1")
        if p < 2:
            raise NotPrime(f"{p} is not prime")
        # refuse by size before is_prime's √p trial division, and never
        # evaluate p^d once d exceeds budget's bit length (then p^d > budget)
        d = e * n * t
        if d > budget.bit_length():
            raise BudgetExceeded(f"{p}^{d}", budget, "field elements")
        if p**d > budget:
            raise BudgetExceeded(p**d, budget, "field elements")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p, self.e, self.n, self.t = p, e, n, t
        self.prime = Field(p)
        self.base = self.prime if e == 1 else Field.extension(
            self.prime, least_irreducible(self.prime, e))
        self.q = self.base.order
        self.modulus_mid = least_irreducible(self.base, n)
        self.mid = self.base if n == 1 else Field.extension(self.base, self.modulus_mid)
        self.modulus_top = least_irreducible(self.mid, t)
        self.top = self.mid if t == 1 else Field.extension(self.mid, self.modulus_top)
        self._check_construction()

    def _check_construction(self) -> None:
        """Verify the modulus of each extension step of degree > 1."""
        for F, deg in ((self.base, self.e), (self.mid, self.n), (self.top, self.t)):
            if deg > 1 and not _verify_irreducible(F.base, F.modulus):
                raise InternalInvariantError("modulus failed irreducibility verification")

    @property
    def params(self) -> tuple[int, int, int, int]:
        return (self.p, self.e, self.n, self.t)

    def field(self, level: str) -> Field:
        if level == "base":
            return self.base
        if level == "mid":
            return self.mid
        if level == "top":
            return self.top
        raise WrongLevel(f"unknown level {level!r}")

    def degree_over_base(self, level: str) -> int:
        return {"base": 1, "mid": self.n, "top": self.n * self.t}[level]

    def frob(self, level: str, a: int, s: int) -> int:
        """a^(q^s) computed in the given level's field by Field.pow."""
        return self.field(level).pow(a, self.q ** (s % self.degree_over_base(level)))

    def trace_to_base(self, level: str, a: int) -> int:
        """Tr over F_q of an element of the given level (returns a base code)."""
        return self._fold_conjugates(level, a, self.field(level).add, "trace")

    def norm_to_base(self, level: str, a: int) -> int:
        """Norm over F_q: product of the q-power conjugates."""
        return self._fold_conjugates(level, a, self.field(level).mul, "norm")

    def _fold_conjugates(self, level: str, a: int, op, name: str) -> int:
        """a op a^q op ... op a^(q^(d-1)) over the d = [level : F_q]
        conjugates of a, which lies in F_q."""
        acc = x = a
        for _ in range(1, self.degree_over_base(level)):
            x = self.frob(level, x, 1)
            acc = op(acc, x)
        if acc >= self.q:
            raise InternalInvariantError(f"{name} left the base field")
        return acc

    def mid_to_base_vec(self, a: int) -> list[int]:
        """Coordinates of a mid element over the basis (1, g, ..., g^{n-1})."""
        return _digits(a, self.q, self.n)

    def top_to_base_vec(self, a: int) -> list[int]:
        """Coordinates over base of a top element, mid-block major."""
        return _digits(a, self.q, self.n * self.t)

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.params == other.params

    def __hash__(self):
        return hash(self.params)

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, n={self.n}, t={self.t})"


@lru_cache(maxsize=None)
def make_tower(p: int, e: int, n: int, t: int,
               budget: int = DEFAULT_TOWER_BUDGET) -> FieldTower:
    """Build (and cache) the tower F_{p^e} ⊆ F_{q^n} ⊆ F_{q^{nt}}."""
    return FieldTower(p, e, n, t, budget=budget)
