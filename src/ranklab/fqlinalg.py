"""Exact linear algebra over the tower fields: RREF, kernels, intersections,
subspace enumeration and Gaussian binomials.

Vectors and matrix rows hold integer element codes (see fields).  The
canonical representative of a subspace is its RREF basis, which makes
subspace equality and hashing structural.

RowReducer is the only elimination.  Rank queries add rows to it; rref,
kernel, intersect, mat_inverse, solve_right and SubspaceBasis take its
echelon form and reduce each stored row against the others, in descending
pivot order (back-substitution); SubspaceBasis.reduce is the same step
against an RREF basis.

Row elimination over a prime field F_p runs on packed int rows: coordinate j
takes W bits starting at bit j·W (pack_row, unpack_row).  At p = 2, W = 1,
rows are bitmasks and adding rows is XOR.  At odd p, W = (2p−2).bit_length()+1
leaves room for the sum of two entries plus a guard bit, so adding two rows is
one integer addition and one fold that subtracts p from every slot that
reached p; scaling is doubling and adding.  Extension fields use tuple rows
and Field arithmetic.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

from .errors import AmbientMismatch, BudgetExceeded, InvalidParams
from .fields import Field

DEFAULT_SUBSPACE_BUDGET = 1 << 20


# -- matrices ----------------------------------------------------------------


@dataclass
class Mat:
    """Dense matrix of element codes over one field level."""

    field: Field
    rows: int
    cols: int
    data: list[list[int]]

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise InvalidParams("matrix shape mismatch")

    @classmethod
    def zero(cls, F: Field, rows: int, cols: int) -> "Mat":
        return cls(F, rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, F: Field, nn: int) -> "Mat":
        m = cls.zero(F, nn, nn)
        for i in range(nn):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, F: Field, rows, cols: int | None = None) -> "Mat":
        rows = [list(r) for r in rows]
        nc = cols if cols is not None else (len(rows[0]) if rows else 0)
        return cls(F, len(rows), nc, rows)

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.data == other.data)


def mat_mul(A: Mat, B: Mat) -> Mat:
    if A.cols != B.rows or A.field is not B.field:
        raise InvalidParams("incompatible matrix product")
    F = A.field
    add, mul = F.add, F.mul
    Bt = B.transpose().data
    out = []
    for arow in A.data:
        orow = []
        for bcol in Bt:
            s = 0
            for x, y in zip(arow, bcol):
                if x and y:
                    s = add(s, mul(x, y))
            orow.append(s)
        out.append(orow)
    return Mat(F, A.rows, B.cols, out)


def mat_vec(A: Mat, v) -> list[int]:
    """A @ v for a column vector v of codes."""
    F = A.field
    add, mul = F.add, F.mul
    out = []
    for row in A.data:
        s = 0
        for x, y in zip(row, v):
            if x and y:
                s = add(s, mul(x, y))
        out.append(s)
    return out


def vec_mat(v, A: Mat) -> list[int]:
    """Row vector times matrix."""
    F = A.field
    add, mul = F.add, F.mul
    out = [0] * A.cols
    for x, row in zip(v, A.data):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] = add(out[j], mul(x, y))
    return out


# -- packed rows over prime fields ---------------------------------------------


def slot_width(F: Field) -> int:
    """Bits per coordinate of a packed row over the prime field F."""
    return 1 if F.p == 2 else (2 * F.p - 2).bit_length() + 1


class _Slots:
    """Row arithmetic on packed F_p rows of ncols coordinates at odd p (rows
    over F_2 add by XOR; see packed_add and RowReducer).

    An entry is below p, so a slot of x + y is at most 2p − 2, and a
    slot of x + (p − y) at most 2p − 1; both are below 2^v + p with
    v = W − 1.  Adding 2^v − p to every slot carries into bit v exactly where
    the slot reached p, and never out of the slot, so subtracting p times
    those bits reduces every slot at once (a fold).
    """

    __slots__ = ("p", "width", "mask", "low", "plow", "carry", "guard")

    def __init__(self, F: Field, ncols: int):
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


@lru_cache(maxsize=None)
def _slots(F: Field, ncols: int) -> _Slots:
    return _Slots(F, ncols)


def pack_row(F: Field, row) -> int:
    """Packed int of a row of codes over the prime field F."""
    w = slot_width(F)
    b = 0
    for x in reversed(row):
        b = (b << w) | x
    return b


def packed_add(F: Field, ncols: int):
    """The sum of two packed rows of at most ncols coordinates over the prime
    field F (XOR at p = 2)."""
    return operator.xor if F.p == 2 else _slots(F, ncols).add


def pack_digits(F: Field, codes, deg: int) -> int:
    """Packed row of the deg base-p digits of each code, in order: the
    coordinates over the prime field F of a vector over F_{p^deg}."""
    p = F.p
    bits = 0
    if p == 2:
        for i, c in enumerate(codes):
            bits |= c << (i * deg)
        return bits
    w, shift = slot_width(F), 0
    for c in codes:
        for _ in range(deg):
            bits |= (c % p) << shift
            c //= p
            shift += w
    return bits


def unpack_row(F: Field, bits: int, ncols: int) -> list[int]:
    w = slot_width(F)
    mask = (1 << w) - 1
    return [(bits >> (j * w)) & mask for j in range(ncols)]


class RowReducer:
    """Incremental row elimination: the one elimination kernel of ranklab.

    Over a prime field rows are packed ints (XOR at p = 2, one fold per row
    operation at odd p); extension fields use tuples of codes.  add() keeps
    the stored rows in echelon form: pairwise distinct leading columns, each
    leading entry 1, which is enough for rank.  reduce() clears a row's
    entries in the pivot columns; RREF (_rref) is add_all followed by
    reducing each stored row against the others in descending pivot order.
    """

    __slots__ = ("field", "ncols", "bits", "slots", "pivrows")

    def __init__(self, F: Field, ncols: int):
        self.field = F
        self.ncols = ncols
        self.bits = F.order == 2
        self.slots = _slots(F, ncols) if F.base is None else None
        self.pivrows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivrows)

    def clone(self) -> "RowReducer":
        c = RowReducer.__new__(RowReducer)
        c.field, c.ncols, c.bits, c.slots = self.field, self.ncols, self.bits, self.slots
        c.pivrows = dict(self.pivrows)
        return c

    def add(self, row) -> bool:
        """Reduce row against the stored rows; returns True if rank grew.

        Prime-field rows may be passed packed (int) or as a code sequence."""
        if self.slots is None:
            return self._add_codes(row)
        return self._add_packed((row,)) == 1

    def add_all(self, rows) -> int:
        """Add each row in turn; returns how many of them raised the rank."""
        if self.slots is None:
            return sum(map(self._add_codes, rows))
        return self._add_packed(rows)

    def _add_packed(self, rows) -> int:
        F, pr = self.field, self.pivrows
        grew = 0
        if self.bits:
            for row in rows:
                if not isinstance(row, int):
                    row = pack_row(F, row)
                while row:
                    j = (row & -row).bit_length() - 1
                    other = pr.get(j)
                    if other is None:
                        pr[j] = row
                        grew += 1
                        break
                    row ^= other
            return grew
        sl = self.slots
        w, mask, scale, submul = sl.width, sl.mask, sl.scale, sl.submul
        for row in rows:
            if not isinstance(row, int):
                row = pack_row(F, row)
            while row:
                j = ((row & -row).bit_length() - 1) // w
                c = (row >> (j * w)) & mask
                other = pr.get(j)
                if other is None:
                    pr[j] = row if c == 1 else scale(row, F.inv(c))
                    grew += 1
                    break
                row = submul(row, c, other)
        return grew

    def _add_codes(self, row) -> bool:
        F = self.field
        sub, mul, inv = F.sub, F.mul, F.inv
        row = list(row)
        pr = self.pivrows
        for j in range(self.ncols):
            f = row[j]
            if not f:
                continue
            other = pr.get(j)
            if other is None:
                if f != 1:
                    s = inv(f)
                    row[j:] = [mul(s, x) for x in row[j:]]
                pr[j] = tuple(row)
                return True
            # row and other are zero left of column j
            row[j:] = [sub(x, mul(f, y)) for x, y in zip(row[j:], other[j:])]
        return False

    def reduce(self, row):
        """row less the combination of stored rows that clears its entries in
        the pivot columns, in the stored form (a code sequence is packed over
        a prime field).

        One pass over the stored rows, in any order, is exact when every
        stored row it subtracts is zero in the other pivot columns, as in an
        RREF basis."""
        pr = self.pivrows
        if self.slots is None:
            sub, mul = self.field.sub, self.field.mul
            row = list(row)
            for j, other in pr.items():
                f = row[j]
                if f:
                    row[j:] = [sub(x, mul(f, y)) for x, y in zip(row[j:], other[j:])]
            return row
        if not isinstance(row, int):
            row = pack_row(self.field, row)
        if self.bits:
            for j, other in pr.items():
                if row >> j & 1:
                    row ^= other
            return row
        sl = self.slots
        w, mask, submul = sl.width, sl.mask, sl.submul
        for j, other in pr.items():
            c = (row >> (j * w)) & mask
            if c:
                row = submul(row, c, other)
        return row

    def codes(self, row) -> list[int]:
        """A row in the stored form as a list of codes."""
        if self.slots is None:
            return list(row)
        return unpack_row(self.field, row, self.ncols)


def _rref(F: Field, rows, ncols: int):
    """RREF of code rows; returns (rows, pivots).

    RowReducer puts the rows in echelon form; then, in descending pivot
    order, each stored row is reduced against the others.  Row j is zero left
    of column j, and every row of a larger pivot is already reduced, so one
    pass clears row j's entries in all other pivot columns."""
    rr = RowReducer(F, ncols)
    rr.add_all(rows)
    pr = rr.pivrows
    pivots = sorted(pr)
    for j in reversed(pivots):
        pr[j] = rr.reduce(pr.pop(j))
    return [rr.codes(pr[j]) for j in pivots], pivots


def rref(M: Mat) -> tuple[Mat, int]:
    """Reduced row echelon form; preserves the row space."""
    rows, _ = _rref(M.field, M.data, M.cols)
    rank = len(rows)
    rows += [[0] * M.cols for _ in range(M.rows - rank)]
    return Mat(M.field, M.rows, M.cols, rows), rank


# -- subspaces ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Canonical (RREF) basis of a subspace of F^ambient; rows span it."""

    field: Field
    ambient: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = dc_field(default=())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_vectors(cls, F: Field, ambient: int, vectors) -> "SubspaceBasis":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise AmbientMismatch("vector length != ambient dimension")
        red, piv = _rref(F, vecs, ambient)
        return cls(F, ambient, tuple(tuple(r) for r in red), tuple(piv))

    @classmethod
    def zero(cls, F: Field, ambient: int) -> "SubspaceBasis":
        return cls(F, ambient, (), ())

    def packed_rows(self) -> list[int]:
        """The basis rows packed (prime fields only; see pack_row)."""
        return [pack_row(self.field, r) for r in self.rows]

    @cached_property
    def _reducer(self) -> RowReducer:
        rr = RowReducer(self.field, self.ambient)
        rows = self.rows if rr.slots is None else self.packed_rows()
        rr.pivrows.update(zip(self.pivots, rows))
        return rr

    def reducer(self) -> RowReducer:
        """A RowReducer holding this basis (packed over a prime field)."""
        return self._reducer.clone()

    def reduce(self, vec) -> list[int]:
        """Canonical representative of vec modulo this subspace: vec less the
        combination of basis rows that clears vec's entries in the pivot
        columns."""
        rr = self._reducer
        return rr.codes(rr.reduce(vec))

    def contains(self, vec) -> bool:
        return not self.reducer().add(vec)

    def contains_space(self, other: "SubspaceBasis") -> bool:
        return not any(map(self.reducer().add, other.rows))

    def sum(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._check(other)
        return SubspaceBasis.from_vectors(
            self.field, self.ambient, list(self.rows) + list(other.rows))

    def _check(self, other: "SubspaceBasis"):
        if self.ambient != other.ambient or self.field is not other.field:
            raise AmbientMismatch("subspaces live in different ambients")

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and self.field is other.field
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.order, self.ambient, self.rows))


def kernel(M: Mat) -> SubspaceBasis:
    """Right null space {v : M v = 0} as a canonical basis."""
    F = M.field
    rows, piv = _rref(F, M.data, M.cols)
    pivset = set(piv)
    basis = []
    for f in range(M.cols):
        if f in pivset:
            continue
        v = [0] * M.cols
        v[f] = 1
        for row, p in zip(rows, piv):
            v[p] = F.neg(row[f])
        basis.append(v)
    return SubspaceBasis.from_vectors(F, M.cols, basis)


def intersect(A: SubspaceBasis, B: SubspaceBasis) -> SubspaceBasis:
    """A ∩ B via the Zassenhaus double-block elimination."""
    A._check(B)
    m = A.ambient
    F = A.field
    stacked = [list(r) + list(r) for r in A.rows] + [list(r) + [0] * m for r in B.rows]
    red, _ = _rref(F, stacked, 2 * m)
    return SubspaceBasis.from_vectors(F, m, [r[m:] for r in red if not any(r[:m])])


def intersection_dim(A: SubspaceBasis, B: SubspaceBasis) -> int:
    """dim(A∩B) = dim A + dim B - dim(A+B), without building a basis."""
    A._check(B)
    return B.dim - A.reducer().add_all(B.rows)


def mat_inverse(M: Mat) -> Mat:
    if M.rows != M.cols:
        raise InvalidParams("only square matrices invert")
    F, nn = M.field, M.rows
    aug = [list(M.data[i]) + [1 if j == i else 0 for j in range(nn)] for i in range(nn)]
    rows, piv = _rref(F, aug, 2 * nn)
    if len(rows) < nn or piv[:nn] != list(range(nn)):
        raise InvalidParams("matrix is singular")
    return Mat(F, nn, nn, [r[nn:] for r in rows])


def solve_right(M: Mat, b) -> list[int] | None:
    """One solution v of M v = b, or None if inconsistent."""
    F = M.field
    aug = [list(row) + [bb] for row, bb in zip(M.data, b)]
    rows, piv = _rref(F, aug, M.cols + 1)
    if M.cols in piv:
        return None
    v = [0] * M.cols
    for r, p in zip(rows, piv):
        v[p] = r[-1]
    return v


# -- counting and enumeration -------------------------------------------------


def qbinom(s: int, t: int, Q: int) -> int:
    """Gaussian binomial coefficient: subspace count, big-integer exact."""
    if Q < 2:
        raise InvalidParams("Q must be >= 2")
    if s < 0 or t < 0 or t > s:
        return 0
    if t == 0:
        return 1
    num = den = 1
    for i in range(1, t + 1):
        num *= Q ** (s - i + 1) - 1
        den *= Q**i - 1
    assert num % den == 0
    return num // den


def theta(s: int, Q: int) -> int:
    """Point count of PG(s, Q): (Q^{s+1}-1)/(Q-1); theta(-1) = 0."""
    if s < -1:
        raise InvalidParams("theta needs s >= -1")
    return (Q ** (s + 1) - 1) // (Q - 1)


def enumerate_subspaces(ambient: int, d: int, F: Field, *,
                        budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Yield every d-dim subspace of F^ambient exactly once (canonical RREFs).

    Iterates pivot-column patterns and fills the free entries, so the count
    hits qbinom(ambient, d, |F|) without any dedup memory.
    """
    count = qbinom(ambient, d, F.order)
    if count > budget:
        raise BudgetExceeded(count, budget, "subspaces")
    if d == 0:
        yield SubspaceBasis.zero(F, ambient)
        return
    for pivots in itertools.combinations(range(ambient), d):
        pivset = set(pivots)
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, ambient)
                if j not in pivset]
        for assign in itertools.product(range(F.order), repeat=len(free)):
            rows = [[0] * ambient for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, assign):
                rows[i][j] = v
            yield SubspaceBasis(F, ambient, tuple(tuple(r) for r in rows),
                                tuple(pivots))


def projective_points(F: Field, r: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Canonical representatives of PG(r-1, F): first nonzero coordinate 1."""
    count = theta(r - 1, F.order)
    if count > budget:
        raise BudgetExceeded(count, budget, "projective points")
    for lead in range(r):
        tail = r - lead - 1
        for rest in itertools.product(range(F.order), repeat=tail):
            yield (0,) * lead + (1,) + rest


def odometer(add, start, rows, p: int):
    """Yield start + Σ c_i·rows[i] for every c in F_p^len(rows), start first,
    by a base-p odometer: one add per step (a digit wrapping from p − 1 to 0
    adds its row once more, since p·row = 0)."""
    cur = start
    yield cur
    digits = [0] * len(rows)
    for _ in range(p ** len(rows) - 1):
        i = 0
        while digits[i] == p - 1:
            digits[i] = 0
            cur = add(cur, rows[i])
            i += 1
        digits[i] += 1
        cur = add(cur, rows[i])
        yield cur


def iter_span_packed(F: Field, rows: list[int], ncols: int, include_zero: bool = True):
    """All combinations of packed rows of ncols coordinates over the prime
    field F, by a base-p odometer (one row add per step)."""
    walk = odometer(packed_add(F, ncols), 0, rows, F.p)
    if not include_zero:
        next(walk)
    return walk


def prime_basis_codes(F: Field) -> list[int]:
    """Element codes of an F_p-basis of F, in code-ascending order."""
    if F.base is None:
        return [1]
    return [c * F.base.order**j for j in range(F.deg)
            for c in prime_basis_codes(F.base)]


def iter_span_rows(rows, F: Field, include_zero: bool = True):
    """All F-linear combinations of rows with entries in F.

    Rows are expanded by an F_p-basis of F, after which a base-p odometer
    needs one row-add per step; the walk covers |F|^len(rows) combinations.
    """
    expanded = []
    for row in rows:
        for b in prime_basis_codes(F):
            if b == 1:
                expanded.append(tuple(row))
            else:
                expanded.append(tuple(F.mul(b, x) for x in row))
    k = len(expanded)
    ncols = len(rows[0]) if rows else 0
    add = F.add
    p = F.p
    cur = [0] * ncols
    digits = [0] * k
    if include_zero:
        yield tuple(cur)
    for _ in range(p**k - 1):
        i = 0
        while digits[i] == p - 1:
            digits[i] = 0
            row = expanded[i]
            for j in range(ncols):
                if row[j]:
                    cur[j] = add(cur[j], row[j])
            i += 1
        digits[i] += 1
        row = expanded[i]
        for j in range(ncols):
            if row[j]:
                cur[j] = add(cur[j], row[j])
        yield tuple(cur)
