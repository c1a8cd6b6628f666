"""Exact linear algebra over the tower fields: RREF, kernels, subspace
enumeration, span walks and Gaussian binomials.

Vectors and matrix rows hold integer element codes (see fields).  The
canonical representative of a subspace is its RREF basis, which makes
subspace equality and hashing structural.

RowReducer is the only row-by-row elimination.  Rank queries add rows to
it; rref, kernel, mat_inverse and SubspaceBasis take its echelon form and
reduce each stored row against the others, in descending pivot order
(back-substitution); SubspaceBasis.reduce is the same step against an RREF
basis.  SubspaceBasis keeps the stored rows, so a basis is packed once, and
replace_row swaps one of its rows for a vector by an RREF of the stored
rows, with no packing or unpacking.  A row operation over an
extension field adds the negated multiple, so Field.add holds the one Zech
formula.  SubspaceBasis.null_vectors reads a null space off an RREF basis:
kernel off one RREF (the Delsarte and ordinary duals, min_poly), the
ordinary dual and constructions off U's own.

Every "which combinations vanish" question goes through vanishing_tails
instead: rows head | tail are eliminated once, and the echelon rows whose
pivot lies past the head carry a basis of the tails of the combinations with
zero head, with no back-substitution.  The idealiser and the subspace tree
of rankcodes read it; so does the Zassenhaus meet A ∩ B (rows a | a and
b | 0) in the tests.  Over F_2 the subspace tree asks it of rows packed
side by side into one int, and head_elimination answers column by column,
each step on every row at once.  kernel keeps the RREF read-off: through
vanishing_tails (rows column | unit vector) it made delsarte_dual_code
1.6-1.8x slower on random 4 x 4 codes over F_2, F_3, F_4 and F_9 (CPython
3.11, one core of a shared 2-CPU host).

The block helpers work on stored rows laid side by side in one int, block t
at coordinate t·width: head_elimination (F_2) and block_indicators (F_p),
whose integer products copy a row into many blocks at once.  Each states
why no product or sum carries from one block into the next.

This module alone knows the form in which RowReducer stores a row.  Over a
prime field F_p a row is a packed int: coordinate j takes W bits starting at
bit j·W.  At p = 2, W = 1, rows are bitmasks and adding rows is XOR.  At odd
p, W = (2p−2).bit_length()+1 leaves room for the sum of two entries plus a
guard bit, so adding two rows is one integer addition and one fold that
subtracts p from every slot that reached p; scaling is doubling and adding.
Over an extension field a row is a tuple of codes with Field arithmetic.
Other modules build stored rows with store_row and store_digits, read them
back with unpack_row (digit_rows reads the codes that store_digits packed,
and log_column reads them a column at a time straight to their discrete
logs, one lookup each), add them with row_add, combine them with
row_combination, cut them into blocks with row_blocks, and walk their spans
with span_chunks.  flatten_rows is the one row concatenation of a matrix.
mat_mul builds each row of A·B as one row_combination of B's stored rows.

cheapest is the one engine chooser: every choice between exact engines,
and its budget refusal, goes through it, with the price table in its
docstring.

odometer is the one span enumerator, one row add per step.  span_chunks
hands out its walk in lists, building the span of the first rows once and
adding odometer's points of the others to all of it; run over the
F_p-expansion (prime_expansion) of stored rows it is the codeword walk of
rankcodes and, as tuples one at a time, iter_span_rows.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache, reduce

from .errors import AmbientMismatch, BudgetExceeded, InvalidParams
from .fields import Field, Slots, _monic, slot_width

DEFAULT_SUBSPACE_BUDGET = 1 << 20
SPAN_CHUNK = 1 << 12     # list size of the span walks: one list is held at a time


# -- matrices ----------------------------------------------------------------


class Mat:
    """Dense matrix of element codes over one field level."""

    def __init__(self, field: Field, rows: int, cols: int, data: list[list[int]]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InvalidParams("matrix shape mismatch")
        self.field, self.rows, self.cols, self.data = field, rows, cols, data

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
    """A·B: row i is Σ_a A[i][a]·B_a, over B's rows in the stored form."""
    if A.cols != B.rows or A.field is not B.field:
        raise InvalidParams("incompatible matrix product")
    F, cols = A.field, B.cols
    rows, combine = [store_row(F, b) for b in B.data], row_combination(F, cols)
    return Mat(F, A.rows, cols, [unpack_row(F, combine(a, rows), cols) for a in A.data])


def flatten_rows(rows) -> list[int]:
    """The entries of a matrix given by its rows, row after row."""
    return list(itertools.chain.from_iterable(rows))


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


# -- stored rows: packed over prime fields, tuples over extension fields ------


@lru_cache(maxsize=None)
def _slots(F: Field, ncols: int) -> Slots:
    return Slots(F, ncols)


def store_row(F: Field, row):
    """A row of codes over F in RowReducer's stored form: a packed int over
    a prime field, a tuple over an extension field."""
    if F.base is not None:
        return tuple(row)
    w = slot_width(F)
    b = 0
    for x in reversed(row):
        b = (b << w) | x
    return b


def store_digits(F: Field, codes, deg: int):
    """The deg base-|F| digits of each code, in order, as a stored row: the
    coordinates over F of a vector over the degree-deg extension of F, each
    code's digits read from _digit_blocks (a code outside 0..|F|^deg - 1 is
    refused, since it has more digits)."""
    blocks = map(_digit_blocks(F, deg), codes)
    if F.base is not None:
        return tuple(itertools.chain.from_iterable(blocks))
    return sum(map(operator.lshift, blocks, itertools.count(0, deg * slot_width(F))))


@lru_cache(maxsize=None)
def _digit_blocks(F: Field, deg: int):
    """code -> its deg base-|F| digits as a stored row, InvalidParams for a
    code with more digits; the last 2^16 codes read are cached."""
    q, top = F.order, F.order**deg

    @lru_cache(maxsize=1 << 16)
    def block(c):
        if not 0 <= c < top:
            raise InvalidParams(f"a code lies outside 0..{top - 1}")
        return store_row(F, [c // q**j % q for j in range(deg)])
    return block


def _block_code(F: Field, deg: int):
    """_digit_blocks inverted: a stored row of deg base-|F| digits -> its
    code."""
    places = [F.order**j for j in range(deg)]
    return lambda b: sum(map(operator.mul, unpack_row(F, b, deg), places))


@lru_cache(maxsize=None)
def digit_rows(F: Field, deg: int, ncols: int):
    """store_digits inverted: rows -> the ncols codes of each stored row, as
    tuples, each block of deg digits read by _block_code; the last 2^16
    blocks read are cached."""
    split, code = row_blocks(F, deg)[0], lru_cache(maxsize=1 << 16)(_block_code(F, deg))
    return lambda rows: (tuple(map(code, split(row, ncols))) for row in rows)


class _BlockLogs(dict):
    """{packed block: log of its code}, each block read by _block_code on
    first sight."""

    __slots__ = ("code", "log")

    def __missing__(self, block):
        self[block] = value = self.log[self.code(block)]
        return value


@lru_cache(maxsize=None)
def _log_table(F: Field):
    """(table, exp3) of log_column, once per field."""
    m, deg, prime = F.order - 1, F.dim_over_prime, Field(F.p)
    log = list(F._log)
    log[0] = 2 * m - 1
    if F.p != 2 and deg > 1:
        table = _BlockLogs()
        table.code, table.log = _block_code(prime, deg), log
        log = table
    return log, F._exp[:m] + [0] * m + F._exp[:m]


def log_column(F: Field, ncols: int):
    """(read, exp3) for the codes of F that store_digits packs over F_p into
    stored rows of ncols coordinates, or None when F keeps no log tables.
    With m = |F| − 1, read(rows, j) maps coordinate j of each stored row to
    the log of its code, and a zero code to the sentinel 2m − 1, by one
    lookup (_log_table, cached per field): at p = 2 or F = F_p the block is
    the code and the table a list, at odd p a dict filled on first sight of
    a block (_BlockLogs), so no table of all blocks is built up front.
    exp3 is exp, m zeros, exp, so exp3[l − l_lead] is g^l / g^l_lead for
    the logs of two units (a negative index wraps into the last exp) and 0
    for the sentinel."""
    if F._exp is None:
        return None
    table, exp3 = _log_table(F)
    block = F.dim_over_prime * slot_width(Field(F.p))
    mask, get = (1 << block) - 1, table.__getitem__

    def read(rows, j):
        if j:
            rows = map(operator.rshift, rows, itertools.repeat(j * block))
        if j < ncols - 1:   # the last block is all that a shift leaves
            rows = map(operator.and_, rows, itertools.repeat(mask))
        return map(get, rows)
    return read, exp3


def row_add(F: Field, ncols: int):
    """The sum of two stored rows of at most ncols coordinates over F: XOR
    at p = 2 (coordinate-wise on tuples), the slot fold at odd p, Field.add
    on each coordinate of a tuple at odd p."""
    if F.base is None:
        return operator.xor if F.p == 2 else _slots(F, ncols).add
    add = operator.xor if F.p == 2 else F.add
    return lambda x, y: tuple(map(add, x, y))


def row_combination(F: Field, ncols: int):
    """Σ c_i·rows[i] over stored rows of ncols coordinates over F, as a
    function of (codes c_i, rows): XOR of the rows with c_i = 1 over F_2,
    else the rows with c_i ≠ 0 scaled (Slots.scale at odd p, Field.mul on
    tuples) and summed by row_add."""
    if F.order == 2:
        return lambda coeffs, rows: reduce(operator.xor, itertools.compress(rows, coeffs), 0)
    mul = F.mul
    scale = _slots(F, ncols).scale if F.base is None else (
        lambda row, c: tuple(map(mul, itertools.repeat(c), row)))
    add, zero = row_add(F, ncols), store_row(F, [0] * ncols)
    return lambda coeffs, rows: reduce(
        add, map(scale, itertools.compress(rows, coeffs), filter(None, coeffs)), zero)


def row_blocks(F: Field, width: int):
    """(split, join, tail) on stored rows over F cut into blocks of width
    coordinates: split(x, s) lists the first s blocks of x, join(b, y) is
    the block b followed by the row y, and tail(x) drops x's first block."""
    if F.base is not None:
        return (lambda x, s: [x[t:t + width] for t in range(0, s * width, width)],
                operator.add, lambda x: x[width:])
    block = width * slot_width(F)
    mask = (1 << block) - 1
    return (lambda x, s: [(x >> t) & mask for t in range(0, s * block, block)],
            lambda b, y: b | y << block, lambda x: x >> block)


def unpack_row(F: Field, row, ncols: int) -> list[int]:
    """The codes of a stored row of ncols coordinates: store_row inverted."""
    if F.base is not None:
        return list(row)
    w = slot_width(F)
    mask = (1 << w) - 1
    return [(row >> (j * w)) & mask for j in range(ncols)]


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
                    row = store_row(F, row)
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
                row = store_row(F, row)
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
        add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
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
            f = neg(f)
            row[j:] = [add(x, mul(f, y)) for x, y in zip(row[j:], other[j:])]
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
            add, mul, neg = self.field.add, self.field.mul, self.field.neg
            row = list(row)
            for j, other in pr.items():
                f = row[j]
                if f:
                    f = neg(f)
                    row[j:] = [add(x, mul(f, y)) for x, y in zip(row[j:], other[j:])]
            return tuple(row)
        if not isinstance(row, int):
            row = store_row(self.field, row)
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


def _rref(F: Field, rows, ncols: int):
    """RREF of rows (codes, or rows in the stored form); returns (stored
    rows, pivots), both tuples.

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
    return tuple(map(pr.__getitem__, pivots)), tuple(pivots)


def rref(M: Mat) -> tuple[Mat, int]:
    """Reduced row echelon form; preserves the row space."""
    F, cols = M.field, M.cols
    rows = [unpack_row(F, row, cols) for row in _rref(F, M.data, cols)[0]]
    rank = len(rows)
    rows += [[0] * cols for _ in range(M.rows - rank)]
    return Mat(F, M.rows, cols, rows), rank


def vanishing_tails(F: Field, width: int, ncols: int, rows) -> list:
    """A basis of {Σ c_i·tail_i : Σ c_i·head_i = 0}, in the stored form, for
    stored rows head | tail of ncols coordinates over F whose head is the
    first width coordinates.

    RowReducer's pivot is a row's first nonzero coordinate, so its echelon
    rows with pivot >= width are the combinations whose head vanished.  They
    are independent, and there are rank(rows) − rank(heads) of them, the
    dimension of that space; their tails are returned."""
    rr = RowReducer(F, ncols)
    rr.add_all(rows)
    tail = row_blocks(F, width)[2]
    return [tail(row) for j, row in rr.pivrows.items() if j >= width]


def head_elimination(heads: int, block: int, nblocks: int):
    """vanishing_tails over F_2 on the rows of one int: a function x ->
    (rank, y) for an int x of nblocks blocks of block bits, block t being
    row t, whose first heads bits are its head.  y holds the rows of x with
    the first heads columns eliminated: the rank(heads) pivot rows are
    zero, and the rows never used as pivots, zero in the head, carry a
    basis of the tails of the combinations with zero head.

    Column j is cleared in every row at once: with m the rows whose bit j
    is set, moved to bit 0 of their blocks, x ^= m·pivot for the first of
    them.  m·pivot is a copy of pivot in each block of m, with no carry, as
    pivot < 2^block; the pivot row is zero below bit j, so no cleared column
    comes back, and it clears itself."""
    mask = (1 << block) - 1
    low = ((1 << (nblocks * block)) - 1) // mask   # bit 0 of each block

    def eliminate(x: int) -> tuple[int, int]:
        rank = 0
        for j in range(heads):
            m = (x >> j) & low
            if m:
                x ^= m * ((x >> ((m & -m).bit_length() - 1)) & mask)
                rank += 1
        return rank, x
    return eliminate


def block_indicators(F: Field, width: int, codes) -> list[tuple[int, int]]:
    """[(c, ind_c)] for the nonzero codes c of codes over the prime field
    F: ind_c is the stored row with a 1 in coordinate t·width for each t
    with codes[t] = c, and 0 elsewhere.

    For a stored row x of at most width coordinates, Σ_c ind_c·(c·x) is the
    stored row whose block t of width coordinates is codes[t]·x, by plain
    integer products and sums: ind_c·y is a copy of y in each marked block,
    with no carry, as y < 2^{width·W}; and the ind_c mark disjoint blocks."""
    shift, inds = width * slot_width(F), {}
    for t, c in enumerate(codes):
        if c:
            inds[c] = inds.get(c, 0) | 1 << (t * shift)
    return list(inds.items())


# -- subspaces ---------------------------------------------------------------


class SubspaceBasis:
    """Canonical (RREF) basis of a subspace of F^ambient, held as RowReducer
    holds it: stored lists the rows in the stored form (packed ints over a
    prime field, code tuples over an extension field) in ascending order of
    their pivot columns, pivots.  rows reads them back as code tuples on
    first use.  Equality, hashing, _reducer, sum and replace_row read the
    stored rows.  Immutable: it is hashed, and rows and _reducer are cached."""

    def __init__(self, field: Field, ambient: int, stored: tuple, pivots: tuple[int, ...]):
        self.__dict__.update(field=field, ambient=ambient, stored=stored, pivots=pivots)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name}: SubspaceBasis is immutable")

    @property
    def dim(self) -> int:
        return len(self.stored)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The basis rows as code tuples (over an extension field, the
        stored rows themselves)."""
        F = self.field
        if F.base is not None:
            return self.stored
        return tuple(tuple(unpack_row(F, row, self.ambient)) for row in self.stored)

    @classmethod
    def from_vectors(cls, F: Field, ambient: int, vectors) -> "SubspaceBasis":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise AmbientMismatch("vector length != ambient dimension")
        return cls(F, ambient, *_rref(F, vecs, ambient))

    @classmethod
    def zero(cls, F: Field, ambient: int) -> "SubspaceBasis":
        return cls(F, ambient, (), ())

    @cached_property
    def _reducer(self) -> RowReducer:
        rr = RowReducer(self.field, self.ambient)
        rr.pivrows.update(zip(self.pivots, self.stored))
        return rr

    def reducer(self) -> RowReducer:
        """A RowReducer holding this basis in the stored form."""
        return self._reducer.clone()

    def reduce(self, vec) -> list[int]:
        """Canonical representative of vec modulo this subspace: vec less the
        combination of basis rows that clears vec's entries in the pivot
        columns."""
        return unpack_row(self.field, self._reducer.reduce(vec), self.ambient)

    def contains(self, vec) -> bool:
        """Whether vec (codes, or a row in the stored form) lies in the
        subspace: its reduction against the cached RREF rows is zero.  A
        code sequence must have the ambient length."""
        self._check_length(vec)
        row = self._reducer.reduce(vec)
        return not (any(row) if isinstance(row, tuple) else row)

    def replace_row(self, i: int, vec) -> "SubspaceBasis":
        """The canonical basis of the span of vec (codes, or a row in the
        stored form) and the rows other than row i: _rref of those stored
        rows, which enter the reducer at their own pivots, and vec.  A vec
        in the span of the other rows gives their (dim - 1)-dimensional
        basis."""
        if not 0 <= i < self.dim:
            raise IndexError(f"no basis row {i} in dimension {self.dim}")
        self._check_length(vec)
        F, n = self.field, self.ambient
        return SubspaceBasis(F, n, *_rref(F, self.stored[:i] + self.stored[i + 1:] + (vec,), n))

    def sum(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._check(other)
        return SubspaceBasis(self.field, self.ambient,
                             *_rref(self.field, self.stored + other.stored, self.ambient))

    def _check(self, other: "SubspaceBasis"):
        if self.ambient != other.ambient or self.field is not other.field:
            raise AmbientMismatch("subspaces live in different ambients")

    def _check_length(self, vec):
        if not isinstance(vec, int) and len(vec) != self.ambient:
            raise AmbientMismatch("vector length != ambient dimension")

    def null_vectors(self):
        """Yield z_f = e_f − Σ_i rows[i][f]·e_{pivots[i]} at each free column
        f, ascending: the null vectors {z : B·zᵀ = 0}, with no elimination."""
        for f in sorted(set(range(self.ambient)).difference(self.pivots)):
            z = [0] * self.ambient
            z[f] = 1
            for row, p in zip(self.rows, self.pivots):
                z[p] = self.field.neg(row[f])
            yield z

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and self.field is other.field
                and self.ambient == other.ambient and self.stored == other.stored)

    def __hash__(self):
        return hash((self.field.order, self.ambient, self.stored))


def kernel(M: Mat) -> SubspaceBasis:
    """Right null space {v : M v = 0} as a canonical basis, from one RREF:
    that of M with its columns reversed, M'.  The null vector of M' at its
    free column f (SubspaceBasis.null_vectors) is 1 at f and nonzero
    elsewhere only at pivots p < f, so reversed back, in descending f, they
    are the RREF, each leading with its 1."""
    F, cols = M.field, M.cols
    reversed_basis = SubspaceBasis(F, cols, *_rref(F, [row[::-1] for row in M.data], cols))
    basis = [z[::-1] for z in reversed(list(reversed_basis.null_vectors()))]
    return SubspaceBasis(F, cols, tuple(store_row(F, z) for z in basis),
                         tuple(z.index(1) for z in basis))


def mat_inverse(M: Mat) -> Mat:
    if M.rows != M.cols:
        raise InvalidParams("only square matrices invert")
    F, nn = M.field, M.rows
    aug = [list(M.data[i]) + [1 if j == i else 0 for j in range(nn)] for i in range(nn)]
    rows, piv = _rref(F, aug, 2 * nn)
    if len(rows) < nn or piv[:nn] != tuple(range(nn)):
        raise InvalidParams("matrix is singular")
    return Mat(F, nn, nn, [unpack_row(F, row, 2 * nn)[nn:] for row in rows])


def min_poly(M: Mat) -> tuple[int, ...]:
    """Monic minimal polynomial of the square matrix M, constant term first.

    M^d is the first power in the span of I, M, ..., M^{d-1}, so the matrix
    whose columns are the flattened I, M, ..., M^d has a kernel of dimension
    one, with its free column at M^d: the relation, scaled to be monic."""
    F = M.field
    P = Mat.identity(F, M.rows)
    powers, rr = [flatten_rows(P.data)], RowReducer(F, M.rows * M.cols)
    while rr.add(powers[-1]):
        P = mat_mul(P, M)
        powers.append(flatten_rows(P.data))
    (relation,) = kernel(Mat.from_rows(F, zip(*powers), len(powers))).rows
    return _monic(F, relation)


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
            yield SubspaceBasis(F, ambient, tuple(store_row(F, r) for r in rows), pivots)


def projective_points(F: Field, r: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Canonical representatives of PG(r-1, F): first nonzero coordinate 1."""
    count = theta(r - 1, F.order)
    if count > budget:
        raise BudgetExceeded(count, budget, "projective points")
    for lead in range(r):
        tail = r - lead - 1
        for rest in itertools.product(range(F.order), repeat=tail):
            yield (0,) * lead + (1,) + rest


def cheapest(engines, budget: int):
    """The value of the lowest-priced entry of engines whose items fit
    budget, ties going to list order; when none fits, BudgetExceeded for the
    lowest-priced entry, in its unit.

    engines holds (price, items, unit, value) entries: items is the count
    budget caps, price the cost in row additions.  The price table:

    - the point walk of a d-dimensional F_q-subspace of F_{q^n}^r: 3/2 per
      F_q-point (rounded down), θ_{d-1}(q) "subspace F_q-points";
    - the point scan: 2n per point of PG(r-1, q^n), its n flat rows,
      θ_{r-1}(q^n) "projective points";
    - the codeword walk of a K-dimensional code: K per codeword;
    - the subspace tree: K per subspace of F_q^{min(m,n)}."""
    fits = [e for e in engines if e[1] <= budget]
    _, items, unit, value = min(fits or engines, key=operator.itemgetter(0))
    if not fits:
        raise BudgetExceeded(items, budget, unit)
    return value


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


def span_chunks(F: Field, start, rows, ncols: int, size: int):
    """odometer's walk over stored rows of ncols coordinates over F, in
    lists of at most size items, one row add per item: the first list is
    start plus the span of the first L rows (p^L <= size), built by
    doubling, and each further list adds one point of the other rows' span
    to all of it, with a C-level map."""
    p, add = F.p, row_add(F, ncols)
    L = 0
    while L < len(rows) and p ** (L + 1) <= size:
        L += 1
    first = [start]
    for row in rows[:L]:
        step = first
        for _ in range(p - 1):
            step = list(map(add, step, itertools.repeat(row)))
            first += step
    yield first
    if L < len(rows):
        offsets = odometer(add, store_row(F, [0] * ncols), rows[L:], p)
        next(offsets)
        for d in offsets:
            yield list(map(add, first, itertools.repeat(d)))


def basis_codes(F: Field, sub: Field | None = None) -> list[int]:
    """Element codes of a basis of F over its subfield sub (default: the
    prime field), in code-ascending order: c·g^j for j < [F : F.base] and
    c over the basis of F.base, g the polynomial generator of F."""
    if F is sub or F.base is None:
        return [1]
    return [c * F.base.order**j for j in range(F.deg) for c in basis_codes(F.base, sub)]


def prime_expansion(F: Field, rows) -> list:
    """c·row for each row and each c of the F_p-basis of F, row by row: rows
    whose F_p-span is the F-span of rows.  Rows are code sequences or stored
    rows over F; a row times 1 is passed through."""
    scalars = basis_codes(F)
    mul = F.mul
    return [row if c == 1 else tuple(mul(c, x) for x in row)
            for row in rows for c in scalars]


def iter_span_rows(rows, F: Field, ncols: int):
    """All F-linear combinations of rows of ncols entries in F, as tuples, in
    odometer's order (row 0's digit fastest): span_chunks from zero over
    the F_p-expansion of the rows, one item at a time.  No rows span the
    zero vector alone."""
    walk = itertools.chain.from_iterable(span_chunks(
        F, store_row(F, [0] * ncols), prime_expansion(F, [store_row(F, row) for row in rows]),
        ncols, SPAN_CHUNK))
    if F.base is not None:
        yield from walk
        return
    for v in walk:
        yield tuple(unpack_row(F, v, ncols))
