"""Exact linear algebra over the tower fields: RREF, kernels, intersections,
subspace enumeration and Gaussian binomials.

Vectors and matrix rows hold integer element codes (see fields).  The
canonical representative of a subspace is its RREF basis, which makes
subspace equality and hashing structural.  Row elimination over GF(2) runs on
int bitmasks (bit j = column j); other fields use tuple rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

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

    def copy(self) -> "Mat":
        return Mat(self.field, self.rows, self.cols, [r[:] for r in self.data])

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


def _rref_rows(F: Field, rows: list[list[int]], ncols: int):
    """In-place generic RREF; returns (reduced nonzero rows, pivot columns)."""
    sub, mul, inv = F.sub, F.mul, F.inv
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != 1:
            s = inv(lead)
            rows[r] = [mul(s, x) for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def _rref_bits(rows: list[int], ncols: int):
    """RREF over GF(2) on int bitmasks; returns (rows, pivot columns)."""
    work = [r for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        bit = 1 << c
        piv = None
        for i in range(r, len(work)):
            if work[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        for i in range(len(work)):
            if i != r and (work[i] & bit):
                work[i] ^= prow
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def pack_row(row) -> int:
    b = 0
    for j, x in enumerate(row):
        if x:
            b |= 1 << j
    return b


def unpack_row(bits: int, ncols: int) -> list[int]:
    return [(bits >> j) & 1 for j in range(ncols)]


def rref(M: Mat) -> tuple[Mat, int]:
    """Reduced row echelon form; preserves the row space."""
    F = M.field
    if F.order == 2:
        red, piv = _rref_bits([pack_row(r) for r in M.data], M.cols)
        rows = [unpack_row(b, M.cols) for b in red]
    else:
        rows, piv = _rref_rows(F, [r[:] for r in M.data], M.cols)
    rank = len(rows)
    rows += [[0] * M.cols for _ in range(M.rows - rank)]
    return Mat(F, M.rows, M.cols, rows), rank


class RowReducer:
    """Incremental row-echelon elimination for rank queries.

    GF(2) rows are int bitmasks; other fields use tuples of codes.  Stored
    rows have pairwise distinct leading columns, which is enough for rank.
    """

    __slots__ = ("field", "ncols", "bits", "pivrows")

    def __init__(self, F: Field, ncols: int):
        self.field = F
        self.ncols = ncols
        self.bits = F.order == 2
        self.pivrows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivrows)

    def clone(self) -> "RowReducer":
        c = RowReducer.__new__(RowReducer)
        c.field, c.ncols, c.bits = self.field, self.ncols, self.bits
        c.pivrows = dict(self.pivrows)
        return c

    def add(self, row) -> bool:
        """Reduce row against the stored rows; returns True if rank grew.

        GF(2) rows may be passed packed (int) or as a code sequence."""
        if self.bits:
            if not isinstance(row, int):
                row = pack_row(row)
            pr = self.pivrows
            while row:
                p = (row & -row).bit_length() - 1
                other = pr.get(p)
                if other is None:
                    pr[p] = row
                    return True
                row ^= other
            return False
        F = self.field
        sub, mul, inv = F.sub, F.mul, F.inv
        row = list(row)
        pr = self.pivrows
        j = 0
        n = self.ncols
        while j < n:
            if row[j] == 0:
                j += 1
                continue
            other = pr.get(j)
            if other is None:
                if row[j] != 1:
                    s = inv(row[j])
                    row = [mul(s, x) for x in row]
                pr[j] = tuple(row)
                return True
            f = row[j]
            row = [sub(x, mul(f, y)) for x, y in zip(row, other)]
            j += 1
        return False

    def add_all(self, rows) -> int:
        """Add each row in turn; returns how many of them raised the rank.

        The GF(2) path repeats add's loop inline: a call per row would cost
        about as much as the reduction itself."""
        if not self.bits:
            return sum(map(self.add, rows))
        pr = self.pivrows
        grew = 0
        for row in rows:
            if not isinstance(row, int):
                row = pack_row(row)
            while row:
                p = (row & -row).bit_length() - 1
                other = pr.get(p)
                if other is None:
                    pr[p] = row
                    grew += 1
                    break
                row ^= other
        return grew


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
        if F.order == 2:
            red, piv = _rref_bits([pack_row(v) for v in vecs], ambient)
            rows = tuple(tuple(unpack_row(b, ambient)) for b in red)
        else:
            rred, piv = _rref_rows(F, vecs, ambient)
            rows = tuple(tuple(r) for r in rred)
        return cls(F, ambient, rows, tuple(piv))

    @classmethod
    def zero(cls, F: Field, ambient: int) -> "SubspaceBasis":
        return cls(F, ambient, (), ())

    def to_mat(self) -> Mat:
        return Mat.from_rows(self.field, [list(r) for r in self.rows], self.ambient)

    def packed_rows(self) -> list[int]:
        return [pack_row(r) for r in self.rows]

    def reducer(self) -> RowReducer:
        rr = RowReducer(self.field, self.ambient)
        if rr.bits:
            for r, p in zip(self.rows, self.pivots):
                rr.pivrows[p] = pack_row(r)
        else:
            for r, p in zip(self.rows, self.pivots):
                rr.pivrows[p] = r
        return rr

    def contains(self, vec) -> bool:
        rr = self.reducer()
        v = pack_row(vec) if rr.bits else tuple(vec)
        return not rr.add(v)

    def contains_space(self, other: "SubspaceBasis") -> bool:
        rr = self.reducer()
        vs = other.packed_rows() if rr.bits else other.rows
        return all(not rr.add(v) for v in vs)

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
    R, rank = rref(M)
    piv = []
    col = 0
    for i in range(rank):
        while R.data[i][col] == 0:
            col += 1
        piv.append(col)
    pivset = set(piv)
    F = M.field
    basis = []
    for f in range(M.cols):
        if f in pivset:
            continue
        v = [0] * M.cols
        v[f] = 1
        for i, p in enumerate(piv):
            v[p] = F.neg(R.data[i][f])
        basis.append(v)
    return SubspaceBasis.from_vectors(F, M.cols, basis)


def intersect(A: SubspaceBasis, B: SubspaceBasis) -> SubspaceBasis:
    """A ∩ B via the Zassenhaus double-block elimination."""
    A._check(B)
    m = A.ambient
    F = A.field
    stacked = [list(r) + list(r) for r in A.rows] + [list(r) + [0] * m for r in B.rows]
    if F.order == 2:
        red, _ = _rref_bits([pack_row(r) for r in stacked], 2 * m)
        low = (1 << m) - 1
        inter = [unpack_row(b >> m, m) for b in red if (b & low) == 0]
    else:
        red, _ = _rref_rows(F, stacked, 2 * m)
        inter = [r[m:] for r in red if not any(r[:m])]
    return SubspaceBasis.from_vectors(F, m, inter)


def intersection_dim(A: SubspaceBasis, B: SubspaceBasis) -> int:
    """dim(A∩B) = dim A + dim B - dim(A+B), without building a basis."""
    A._check(B)
    rr = A.reducer()
    grew = rr.add_all(B.packed_rows() if rr.bits else B.rows)
    return A.dim + B.dim - (A.dim + grew)


def mat_inverse(M: Mat) -> Mat:
    if M.rows != M.cols:
        raise InvalidParams("only square matrices invert")
    F, nn = M.field, M.rows
    aug = [list(M.data[i]) + [1 if j == i else 0 for j in range(nn)] for i in range(nn)]
    rows, piv = _rref_rows(F, aug, 2 * nn)
    if len(rows) < nn or piv[:nn] != list(range(nn)):
        raise InvalidParams("matrix is singular")
    return Mat(F, nn, nn, [r[nn:] for r in rows])


def solve_right(M: Mat, b) -> list[int] | None:
    """One solution v of M v = b, or None if inconsistent."""
    F = M.field
    aug = [list(row) + [bb] for row, bb in zip(M.data, b)]
    rows, piv = _rref_rows(F, aug, M.cols + 1)
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


def iter_span_packed(rows: list[int], include_zero: bool = True):
    """All GF(2)-combinations of packed rows via an odometer (one XOR/step)."""
    k = len(rows)
    cur = 0
    digits = [0] * k
    if include_zero:
        yield cur
    total = (1 << k) - 1
    for _ in range(total):
        i = 0
        while digits[i] == 1:
            digits[i] = 0
            cur ^= rows[i]
            i += 1
        digits[i] = 1
        cur ^= rows[i]
        yield cur


def prime_basis_codes(F: Field) -> list[int]:
    """Element codes of an F_p-basis of F, in code-ascending order."""
    if F.base is None:
        return [1]
    return [c * F.base.order**j for j in range(F.deg)
            for c in prime_basis_codes(F.base)]


def iter_span_rows(rows, F: Field, include_zero: bool = True,
                   coeff_field: Field | None = None):
    """All coeff_field-linear combinations of rows with entries in F.

    coeff_field defaults to F and must embed in F with unchanged codes (any
    lower tower level does).  Rows are expanded by an F_p-basis of the
    coefficient field, after which a base-p odometer needs one row-add per
    step; the walk covers |coeff_field|^len(rows) combinations.
    """
    cf = coeff_field if coeff_field is not None else F
    expanded = []
    for row in rows:
        for b in prime_basis_codes(cf):
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
