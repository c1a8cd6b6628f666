"""F_q-linear rank-metric codes as spaces of m x n matrices over F_q.

A code stores a canonical basis (the RREF of the flattened basis matrices in
F_q^{mn}), never the codeword set.  Its rank distribution has up to three
sources, all exact.  A code may carry an F_q-subspace S of F_{q^n}^r whose
point weights are its ranks (RankCode.attach): its K = rn codewords come in
classes of q^n - 1, one per point <v> of PG(r-1, q^n), of rank
n - w_S(<v>), so A_{n-w} = (q^n - 1)·#{points of weight w}
(subspaces.point_weight_counts).  C_{U,G} carries S = U
(constructions.c_ug); a (twisted) Gabidulin code built with c = 0 on the
mid field carries S = U^⊥' for its q-system U, of dimension N.  Any code
may take one of two scans, run on demand under an explicit budget, which
are also the oracle of the geometric engine:

- the codeword walk ranks each of the q^K codewords, reached by an odometer
  with one vector add per step;
- the subspace count sizes the subcode C_Y of codewords killed by each
  subspace Y of F_q^{min(m,n)} and recovers the distribution by q-Möbius
  inversion (the identity behind the rank-metric MacWilliams identities).
  It walks the subspaces as a tree in which each Y extends its parent by one
  row and inherits the parent's subcode, so a step eliminates dim C_{Y'}
  images of one column block; a node with an empty subcode adds its whole
  subtree in closed form.

RankCode.rank_distribution runs the engine fqlinalg.cheapest picks: among
both sides of the subspace's point weights (subspaces._point_sides) and the
two scans for a code with a subspace, the shorter scan for any other code.

An idealiser is the set of combinations of the unit matrices E_ab whose
products with C's basis all reduce to 0 modulo C, each reduced product a
combination of C's mn reduced unit matrices; whether it is a field is
decided exactly, from the minimal polynomial of a basis element
(Idealiser).  Both idealisers are computed at most once per code instance.

Both rank-distribution scans and the idealiser eliminate through
fqlinalg.RowReducer; the subspace tree's subcodes and the idealiser are the
tails of the tracked rows whose head vanished (fqlinalg.vanishing_tails).
Over F_2 the tree keeps a node's subcode in one int and eliminates a column
of all its rows at a time (fqlinalg.head_elimination); over F_p the
idealiser builds its rows by integer products that copy one reduced unit
matrix into many blocks (fqlinalg.block_indicators).
Spans are walked with fqlinalg.odometer and fqlinalg.span_chunks.  Rows stay
in the form RowReducer stores them, built, added and cut into blocks by
fqlinalg's row helpers, so no scan knows whether a row is a packed int or a
tuple of codes.
"""

from __future__ import annotations

import enum
import itertools
from functools import reduce
from typing import NamedTuple

from .errors import (
    EmptyCode,
    HypothesisViolated,
    InternalInvariantError,
    InvalidParams,
    ParamMismatch,
    RankDeficientA,
    ShapeMismatch,
)
from .fields import Field, is_irreducible, slot_width
from .fqlinalg import (
    Mat,
    RowReducer,
    SPAN_CHUNK,
    SubspaceBasis,
    block_indicators,
    cheapest,
    flatten_rows,
    head_elimination,
    kernel,
    mat_mul,
    min_poly,
    odometer,
    prime_expansion,
    qbinom,
    row_add,
    row_combination,
    row_blocks,
    span_chunks,
    store_row,
    unpack_row,
    vanishing_tails,
)
from . import subspaces
from .subspaces import FqSubspace, _weight_counts

DEFAULT_CODEWORD_BUDGET = 1 << 24


def _reshape(vec, m: int, n: int):
    return tuple(tuple(vec[i * n:(i + 1) * n]) for i in range(m))


class RankCode:
    """An F_q-linear rank-metric code with canonical flattened basis."""

    def __init__(self, field: Field, m: int, n: int, flat: SubspaceBasis):
        self.field, self.m, self.n, self.flat = field, m, n, flat
        self._rank_distribution: RankDistribution | None = None
        self._idealisers: dict[Side, Idealiser] = {}
        self.subspace: FqSubspace | None = None

    @classmethod
    def from_generators(cls, F: Field, m: int, n: int, mats) -> "RankCode":
        """Span of the given m x n matrices (generators may be dependent)."""
        vecs = []
        for M in mats:
            rows = M.data if isinstance(M, Mat) else M
            if len(rows) != m or any(len(r) != n for r in rows):
                raise ShapeMismatch("generator has wrong shape")
            vecs.append(flatten_rows(rows))
        return cls(F, m, n, SubspaceBasis.from_vectors(F, m * n, vecs))

    @property
    def dim(self) -> int:
        return self.flat.dim

    @property
    def q(self) -> int:
        return self.field.order

    @property
    def size(self) -> int:
        return self.q**self.dim

    @property
    def params(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.q)

    def basis_matrices(self) -> list[tuple[tuple[int, ...], ...]]:
        return [_reshape(v, self.m, self.n) for v in self.flat.rows]

    def contains(self, rows) -> bool:
        return self.flat.contains(flatten_rows(rows))

    def __eq__(self, other):
        return (isinstance(other, RankCode) and self.params == other.params
                and self.flat == other.flat)

    def __hash__(self):
        return hash((self.params, self.flat))

    # -- rank distribution -----------------------------------------------------

    def rank_distribution(self, *, budget: int = DEFAULT_CODEWORD_BUDGET
                          ) -> "RankDistribution":
        """Exact rank histogram from the engine fqlinalg.cheapest picks.

        The codeword walk ranks all q^K codewords.  The subspace count sizes
        the subcode of every subspace of F_q^{min(m,n)}, walking them as a
        tree that carries each parent's subcode to its children and closes
        the subtree of an empty subcode in one formula.  A code with a
        subspace S (attach) lists both sides of S's point weights before
        them, and runs the side picked, once.  A budget that fits a code's
        shorter scan always suffices.
        """
        if self._rank_distribution is None:
            q, K, mp = self.q, self.dim, min(self.m, self.n)
            spaces = sum(qbinom(mp, s, q) for s in range(mp + 1))
            S = self.subspace
            sides = [] if S is None else subspaces._point_sides(S.tower, S.r, S.k)
            # (price, items, unit, scan), in the order ties are broken
            engines = [(price, items, unit, lambda C, walk=walk: _point_counts(C, budget, walk))
                       for price, items, unit, walk in sides]
            engines += [(K * self.size, self.size, "codewords", _walk_counts),
                        (K * spaces, spaces, f"subspaces of F_{q}^{mp}", _subspace_counts)]
            scan = cheapest(engines, budget)
            dist = RankDistribution(tuple(scan(self)), self.m, self.n, q, K)
            dist.validate()
            self._rank_distribution = dist
        return self._rank_distribution

    def attach(self, S: FqSubspace) -> None:
        """Adopt S ⊂ F_{q^n}^r as the subspace whose point weights are the
        code's ranks: the codeword of v ∈ F_{q^n}^r, and of each of its
        q^n - 1 nonzero multiples, has rank n - w_S(<v>).  Then K = rn and
        m = rn - dim S, over the code's base field."""
        rn = S.r * self.n
        if (S.tower.n, S.tower.base, rn, rn - S.k) != (self.n, self.field, self.dim, self.m):
            raise InternalInvariantError(
                f"an ({self.m},{self.n}) code of dimension {self.dim} over F_{self.q} reads "
                f"its ranks off a subspace of dimension {self.dim - self.m} in "
                f"F_(q^{self.n})^{self.dim // self.n}; got dimension {S.k} in "
                f"F_({S.tower.base.order}^{S.tower.n})^{S.r}")
        self.subspace = S

    def min_distance(self, *, budget: int = DEFAULT_CODEWORD_BUDGET) -> int:
        """Minimum rank over nonzero codewords (= minimum distance)."""
        return self.rank_distribution(budget=budget).min_distance()

    def is_mrd(self, *, budget: int = DEFAULT_CODEWORD_BUDGET) -> bool:
        """Singleton-like bound met with equality: |C| = q^{n'(m'-d+1)}."""
        d = self.min_distance(budget=budget)
        return self.dim == max(self.m, self.n) * (min(self.m, self.n) - d + 1)


def _point_counts(C: RankCode, budget: int, walk: bool) -> list[int]:
    """Rank histogram of a code with a subspace S (RankCode.attach), from
    the side walk names of S's point weights: A_0 = 1 and
    A_{n-w} = (q^n - 1)·#{points of weight w}.  Every weight lies in
    n - m..n, as rank n - w lies in 0..m."""
    S, n = C.subspace, C.n
    A = [1] + [0] * min(C.m, n)
    for w, count in _weight_counts(S, budget, walk=walk).items():
        if not n - len(A) < w <= n:
            raise InternalInvariantError(f"a weight below n - m or above n: {w}")
        A[n - w] += (S.tower.mid.order - 1) * count
    return A


def _walk_counts(C: RankCode) -> list[int]:
    """Rank histogram by ranking each of the q^K codewords, the zero word
    included, as fqlinalg.span_chunks hands them out."""
    F, m, n = C.field, C.m, C.n
    counts = [0] * (min(m, n) + 1)
    rr = RowReducer(F, n)       # emptied and reused for every codeword
    pivrows, add_all = rr.pivrows, rr.add_all
    split = row_blocks(F, n)[0]
    words = prime_expansion(F, C.flat.stored)
    for chunk in span_chunks(F, store_row(F, [0] * (m * n)), words, m * n, SPAN_CHUNK):
        for word in chunk:
            pivrows.clear()
            counts[add_all(split(word, m))] += 1
    return counts


def _subspace_counts(C: RankCode) -> list[int]:
    """Rank histogram from subcode sizes (Delsarte's counting identity).

    Codewords are transposed if needed to have n' = min(m, n) columns of
    height H = max(m, n).  The subcode C_Y = {M ∈ C : M·Y^T = 0} of a
    subspace Y of F_q^{n'} holds the codewords whose row space lies in Y^⊥,
    and summing |C_Y| over all Y of dimension n' − j gives
    B_j = Σ_i A_i [n'−i, j−i]_q, a unitriangular system solved for A.

    The subspaces are walked as a tree of canonical RREFs: Y = ⟨y⟩ ⊕ Y',
    with y the top row, whose pivot p₁ lies below every pivot of Y'.  Each Y
    is reached once, from Y', and C_Y ⊆ C_{Y'}.  A node holds a basis of its
    subcode as s codewords with their columns stacked; column j of all s
    words, stacked in turn, is one row, so the s images M·y^T of a child are
    one combination of those rows and an odometer over y's free coordinates
    reaches each child with one add.  The child's subcode is spanned by the
    combinations of the rows image | codeword whose image vanished
    (fqlinalg.vanishing_tails).  Children with p₁ = 0 have no children and
    need the rank only, whose elimination stops once it reaches H.
    A node with C_Y = 0, of dimension d and smallest pivot p, adds its
    descendants in closed form: for e = 1..p, q^{e(n'−d−p)}·[p, e]_q
    subspaces of dimension d + e, each with |C_Y| = 1.  Rows are in
    RowReducer's stored form, cut and joined with fqlinalg.row_blocks.

    Over F_2 a node is one int of blocks image | codeword, H·(n' + 1) bits
    each, the image zero: its column j is the word's bits shifted onto the
    image, in every block at once, and a child's images are added to the
    node in one XOR.  fqlinalg.head_elimination's H column steps then give
    the child's subcode, or a leaf's rank, directly; eliminated blocks stay
    as zeros.  Over F_3 that column form timed slower than RowReducer on
    certify's 4 x 4 codes.
    """
    F, q, K = C.field, C.q, C.dim
    mats = C.basis_matrices()
    if C.m < C.n:
        mats = [tuple(zip(*M)) for M in mats]
    H, width = max(C.m, C.n), min(C.m, C.n)
    # each codeword with its columns stacked: entry (i, j) at j·H + i
    words = [store_row(F, flatten_rows(zip(*M))) for M in mats]
    qpow = [q**e for e in range(K + 1)]
    B = [0] * (width + 1)
    add = row_add(F, max(K, 1) * H)
    if q == 2:
        block = H * (width + 1)
        eliminate = head_elimination(H, block, K)
        images = ((1 << block * K) - 1) // ((1 << block) - 1) * ((1 << H) - 1)
        root = sum(w << (H + t * block) for t, w in enumerate(words))
        columns = lambda X: [(X >> j * H) & images for j in range(1, width + 1)]

        def child(X, img, s):
            rank, Y = eliminate(X ^ img)
            return Y, s - rank
        leaf_rank = lambda img, s: eliminate(img)[0]
    else:
        ranker = RowReducer(F, H)
        not_full = lambda _: len(ranker.pivrows) < H
        split, join = row_blocks(F, H)[:2]
        root = words
        # column j of every word, joined in word order
        columns = lambda words: [reduce(lambda row, b: join(b, row), col[::-1])
                                 for col in zip(*(split(w, width) for w in words))]

        def child(words, img, s):
            tails = vanishing_tails(F, H, H * (width + 1), map(join, split(img, s), words))
            return tails, len(tails)

        def leaf_rank(img, s):
            ranker.pivrows.clear()
            rows = split(img, s)
            if s > H:   # rows past rank H vanish: stop there
                rows = itertools.takewhile(not_full, rows)
            return ranker.add_all(rows)

    def visit(node, s: int, pivots: tuple[int, ...], d: int) -> None:
        B[width - d] += qpow[s]
        p = pivots[0] if pivots else width
        if not s:
            for e in range(1, p + 1):
                B[width - d - e] += q ** (e * (width - d - p)) * qbinom(p, e, q)
            return
        cols = columns(node)
        for p1 in range(p):
            free = prime_expansion(
                F, [cols[j] for j in range(p1 + 1, width) if j not in pivots])
            for img in odometer(add, cols[p1], free, F.p):
                if p1:
                    visit(*child(node, img, s), (p1,) + pivots, d + 1)
                else:
                    B[width - d - 1] += qpow[s - leaf_rank(img, s)]

    visit(root, K, (), 0)
    A: list[int] = []
    for j in range(width + 1):
        A.append(B[j] - sum(A[i] * qbinom(width - i, j - i, q) for i in range(j)))
    return A


class RankDistribution(NamedTuple):
    """Exact rank histogram A_i = #{codewords of rank i}, big-integer exact."""

    A: tuple[int, ...]
    m: int
    n: int
    q: int
    K: int

    def validate(self) -> None:
        if len(self.A) != min(self.m, self.n) + 1:
            raise InternalInvariantError("rank distribution needs min(m, n) + 1 counts")
        if sum(self.A) != self.q**self.K:
            raise InternalInvariantError("rank distribution does not sum to q^K")
        if self.A[0] != 1:
            raise InternalInvariantError("A_0 must be 1")
        if min(self.A) < 0:
            raise InternalInvariantError("rank distribution has a negative count")

    def min_distance(self) -> int:
        for i in range(1, len(self.A)):
            if self.A[i]:
                return i
        raise EmptyCode("the zero code has no nonzero codewords")


def mrd_weight_distribution(m: int, n: int, q: int, d: int) -> RankDistribution:
    """Closed-form rank distribution of an MRD (m,n,q;d) code.

    A_{d+l} = [m' d+l] * sum_t (-1)^{t-l} [l+d l-t] q^binom(l-t,2) (q^{n'(t+1)}-1)
    with m' = min(m,n), n' = max(m,n); the total is q^{n'(m'-d+1)}.
    """
    if m < 1 or n < 1 or q < 2:
        raise InvalidParams("need m, n >= 1 and q >= 2")
    mp, np_ = min(m, n), max(m, n)
    if not 1 <= d <= mp + 1:
        raise InvalidParams(f"distance d={d} out of range 1..{mp + 1}")
    A = [0] * (mp + 1)
    A[0] = 1
    for ell in range(0, mp - d + 1):
        s = 0
        for t in range(0, ell + 1):
            term = (qbinom(ell + d, ell - t, q) * q ** ((ell - t) * (ell - t - 1) // 2)
                    * (q ** (np_ * (t + 1)) - 1))
            s += term if (t - ell) % 2 == 0 else -term
        A[d + ell] = qbinom(mp, d + ell, q) * s
    dist = RankDistribution(tuple(A), m, n, q, np_ * (mp - d + 1))
    if sum(A) != q ** (np_ * (mp - d + 1)):
        raise InternalInvariantError("weight distribution failed the cardinality check")
    return dist


def delsarte_dual_code(C: RankCode) -> RankCode:
    """Orthogonal complement under <M,N> = Tr(M N^t), i.e. the entrywise
    dot product of flattened matrices; dim = mn - K."""
    return RankCode(C.field, C.m, C.n,
                    kernel(Mat.from_rows(C.field, C.flat.rows, C.m * C.n)))


def macwilliams_check(C: RankCode, *, budget: int = DEFAULT_CODEWORD_BUDGET) -> bool:
    """Verify the rank-metric MacWilliams identities for nu = 0..m exactly.

    The rank distributions of C and of its Delsarte dual both come from
    RankCode.rank_distribution (usually the subspace count), so a fault in
    delsarte_dual_code or in that scan breaks the identity.  It is not an
    independent oracle for the scan itself: the tests check the scan against
    a brute-force product enumeration.  The identity is checked in integer
    arithmetic after clearing the q^{n nu} denominator.
    """
    A = C.rank_distribution(budget=budget).A
    B = delsarte_dual_code(C).rank_distribution(budget=budget).A
    q, m, n = C.q, C.m, C.n
    size = q**C.dim
    for nu in range(m + 1):
        lhs = sum(A[i] * qbinom(m - i, nu, q)
                  for i in range(0, min(m - nu, len(A) - 1) + 1))
        rhs = size * sum(B[j] * qbinom(m - j, nu - j, q)
                         for j in range(0, min(nu, len(B) - 1) + 1))
        if lhs * q ** (n * nu) != rhs:
            return False
    return True


# -- idealisers ----------------------------------------------------------------


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class Idealiser(NamedTuple):
    """A one-sided idealiser subalgebra with its order and field flag.

    degree is the matrix size (m for left, n for right).  The algebra holds
    I, so it is a field exactly when some basis element Y has a minimal
    polynomial f of degree dim (then F_q[Y] ≅ F_q[x]/(f) is the whole
    algebra) and f is irreducible; generator is that pair (Y, f), or None
    (_algebra_generator), read by the closure check and by the converse
    (constructions.mrd_to_subspace).
    """

    side: Side
    degree: int
    basis: tuple[tuple[tuple[int, ...], ...], ...]
    dim: int
    order: int
    is_field: bool
    generator: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None


def _idealiser(C: RankCode, side: Side) -> Idealiser:
    """The idealiser {Y : M·Y ∈ C} (right) or {Y : Y·M ∈ C} (left), M over
    C's basis M_1..M_K, by one tracked elimination.

    Y = Σ y_ab·E_ab lies in it iff Σ y_ab·reduce(M_t·E_ab) = 0 for every t,
    reduce being the canonical remainder modulo C.  reduce is F_q-linear, so
    from the remainders R_ij of C's mn unit matrices,
    reduce(M·E_ab) = Σ_i M[i][a]·R_ib and reduce(E_ab·M) = Σ_j M[b][j]·R_aj,
    one fqlinalg.row_combination each.  Each E_ab gives the row
    reduce(M_1·E_ab) | … | reduce(M_K·E_ab) | e_ab, and the tails of the
    combinations whose head vanished (fqlinalg.vanishing_tails) span the
    idealiser; its RREF is the basis.  _verify_idealiser_closure then checks
    it against C independently, through the algebra's generator when there
    is one.

    Over F_p the head is built by R_iu, not by t: with
    reduce(M_t·E_ab) = Σ_i M_t[c][i]·R_iu, the head is
    Σ_i Σ_{v≠0} ind_civ·(v·R_iu), ind_civ marking the blocks t with
    M_t[c][i] = v (fqlinalg.block_indicators), one integer product each.
    """
    F, m, n = C.field, C.m, C.n
    s, mn = (m if side is Side.LEFT else n), m * n
    if F.base is None:      # a stored unit row is one bit
        unit = lambda k, size: 1 << k * slot_width(F)
    else:
        unit = lambda k, size: store_row(F, [0] * k + [1] + [0] * (size - k - 1))
    remainder = C.flat.reducer().reduce
    R = [[remainder(unit(i * n + j, mn)) for j in range(n)] for i in range(m)]
    if side is Side.LEFT:   # block (a, b, t): Σ_j M_t[b][j]·R_aj
        coeffs, units = C.basis_matrices(), R
    else:                   # block (a, b, t): Σ_i M_t[i][a]·R_ib
        coeffs, units = [tuple(zip(*M)) for M in C.basis_matrices()], list(zip(*R))
    combine, join = row_combination(F, mn), row_blocks(F, mn)[1]
    head, ss = len(coeffs) * mn, s * s
    pairs = [((b, a) if side is Side.LEFT else (a, b), a * s + b)
             for a, b in itertools.product(range(s), repeat=2)]
    if F.base is None:
        add = row_add(F, head + ss)
        scaled = [[[combine((v,), (x,)) for v in range(F.p)] for x in row] for row in units]
        inds = [[block_indicators(F, mn, [M[c][i] for M in coeffs]) for i in range(len(units[0]))]
                for c in range(s)]
        # head Σ_i Σ_v ind_civ·(v·R_iu), then the tail e_ab
        rows = [reduce(add, [sum(ind * x[v] for v, ind in ci) for ci, x in zip(inds[c], scaled[u])],
                       unit(head + e, head + ss))
                for (c, u), e in pairs]
    else:
        rows = [reduce(lambda row, M: join(combine(M[c], units[u]), row), reversed(coeffs),
                       unit(e, ss))
                for (c, u), e in pairs]
    ker = SubspaceBasis.from_vectors(F, ss, [
        unpack_row(F, t, ss) for t in vanishing_tails(F, head, head + ss, rows)])
    basis = tuple(_reshape(v, s, s) for v in ker.rows)
    dim = len(basis)
    gen = _algebra_generator(F, basis)
    ide = Idealiser(side, s, basis, dim, F.order**dim,
                    gen is not None and is_irreducible(F, gen[1]), gen)
    _verify_idealiser_closure(C, ide)
    return ide


def _algebra_generator(F: Field, basis):
    """The first basis matrix (a tuple of rows, as in basis) whose minimal
    polynomial has degree d = len(basis), with that polynomial; None if
    there is none.

    If the span is a field F_{q^d}, there is one.  Its proper subfields lie in
    S, the sum of its maximal subfields F_{q^{d/p}} (p | d prime).  By the
    normal basis theorem F_{q^d} is the cyclic F_q[x]/(x^d - 1)-module with x
    acting as Frobenius, and S is the kernel of lcm_p(x^{d/p} - 1), of degree
    at most d - φ(d) < d.  So S is proper, some basis element lies outside
    it, and that element generates F_{q^d}.
    """
    for Y in basis:
        f = min_poly(Mat.from_rows(F, Y))
        if len(f) == len(basis) + 1:
            return Y, f
    return None


def _verify_idealiser_closure(C: RankCode, ide: Idealiser) -> None:
    """Check, apart from the elimination, that span(ide.basis) lies in the
    idealiser.

    With a generator Y (ide.generator) of degree d = dim it is enough that
    the RREF of I, Y, ..., Y^{d-1} is the basis and that C·Y ⊆ C (Y·C on the
    left), K products: then span(basis) = F_q[Y], and C is closed under every
    polynomial in Y.  Without one, every basis element
    is multiplied by every basis codeword.

    Products are taken on stored rows (fqlinalg.row_combination): row i of
    A·B is Σ_a A[i][a]·B_a over B's stored rows, so Y's rows are stored once
    and C's codewords are cut from C.flat's stored rows.  A power Y^{k+1} is
    Y·Y^k, on the stored rows of Y^k.  Each product's rows are joined into
    one word of F_q^{mn} and reduced against C's RREF basis."""
    F, s, gen, n = C.field, ide.degree, ide.generator, C.n
    factors = ide.basis
    if gen is not None:
        factors, combine = [gen[0]], row_combination(F, s)
        powers = [[store_row(F, [int(a == b) for b in range(s)]) for a in range(s)]]
        while len(powers) < ide.dim:
            powers.append([combine(y, powers[-1]) for y in gen[0]])
        span = SubspaceBasis.from_vectors(F, s * s, [
            flatten_rows(unpack_row(F, row, s) for row in P) for P in powers])
        if [list(r) for r in span.rows] != [flatten_rows(B) for B in ide.basis]:
            raise InternalInvariantError("idealiser closure verification failed: "
                                         "the powers of the generator span another algebra")
    combine, (split, join) = row_combination(F, n), row_blocks(F, n)[:2]
    if ide.side is Side.LEFT:   # Y·M: Y's codes over M's stored rows
        mats = [split(w, C.m) for w in C.flat.stored]
        product = lambda Y, M: [combine(y, M) for y in Y]
    else:                       # M·Y: M's codes over Y's stored rows
        mats = C.basis_matrices()
        factors = [[store_row(F, y) for y in Y] for Y in factors]
        product = lambda Y, M: [combine(row, Y) for row in M]
    for Y in factors:
        for M in mats:
            if not C.flat.contains(reduce(lambda row, b: join(b, row), product(Y, M)[::-1])):
                raise InternalInvariantError("idealiser closure verification failed")


def _memo_idealiser(C: RankCode, side: Side) -> Idealiser:
    """C's idealiser on one side: computed and verified on the first call,
    the same frozen object on every later one."""
    if side not in C._idealisers:
        C._idealisers[side] = _idealiser(C, side)
    return C._idealisers[side]


def left_idealiser(C: RankCode) -> Idealiser:
    """L(C) = {Y : YM ∈ C for all M ∈ C}, an F_q-algebra of m x m matrices."""
    return _memo_idealiser(C, Side.LEFT)


def right_idealiser(C: RankCode) -> Idealiser:
    """R(C) = {Z : MZ ∈ C for all M ∈ C}, an F_q-algebra of n x n matrices."""
    return _memo_idealiser(C, Side.RIGHT)


# -- puncturing, certificates ---------------------------------------------------


def puncture(C: RankCode, A: Mat) -> RankCode:
    """The punctured code A·C = {AM : M ∈ C} for full-row-rank A."""
    if C.m != C.n:
        raise ShapeMismatch("puncturing is defined for square codes")
    if A.cols != C.n:
        raise ShapeMismatch("A must have n columns")
    if RowReducer(C.field, A.cols).add_all(A.data) != A.rows:
        raise RankDeficientA("A must have full row rank")
    gens = []
    for M in C.basis_matrices():
        Mmat = Mat.from_rows(C.field, M, C.n)
        gens.append(mat_mul(A, Mmat).data)
    return RankCode.from_generators(C.field, A.rows, C.n, gens)


class CertStatus(enum.Enum):
    CERTIFIED_INEQUIVALENT = "certified-inequivalent"
    INCONCLUSIVE = "inconclusive"


class EquivalenceCertificate(NamedTuple):
    status: CertStatus
    reason: str | None = None


def inequivalence_certificate(C1: RankCode, C2: RankCode, *,
                              budget: int = DEFAULT_CODEWORD_BUDGET
                              ) -> EquivalenceCertificate:
    """Certify inequivalence from invariants (never asserts equivalence).

    Compares rank distributions, then idealiser orders and field flags; all
    are invariant under the rank-metric equivalence group.
    """
    if C1.params != C2.params:
        raise ParamMismatch("codes must share (m, n, q)")
    if C1.rank_distribution(budget=budget).A != C2.rank_distribution(budget=budget).A:
        return EquivalenceCertificate(CertStatus.CERTIFIED_INEQUIVALENT,
                                      "rank-distribution")
    for name, fn in (("left-idealiser", left_idealiser), ("right-idealiser", right_idealiser)):
        i1, i2 = fn(C1), fn(C2)
        if i1.order != i2.order:
            return EquivalenceCertificate(CertStatus.CERTIFIED_INEQUIVALENT,
                                          f"{name}-order")
        if i1.is_field != i2.is_field:
            return EquivalenceCertificate(CertStatus.CERTIFIED_INEQUIVALENT,
                                          f"{name}-structure")
    return EquivalenceCertificate(CertStatus.INCONCLUSIVE)


class GabidulinExclusion(enum.Enum):
    CERTIFIED_NEW = "certified-new"
    NOT_APPLICABLE = "not-applicable"


def gabidulin_family_exclusion(C: RankCode, r: int, n: int, h: int, *,
                               budget: int = DEFAULT_CODEWORD_BUDGET) -> GabidulinExclusion:
    """Certify that C is not a punctured generalized (twisted) Gabidulin code.

    Certification fires exactly when (h+1) does not divide r and the right
    idealiser has the maximum order q^n: punctured Gabidulin-family codes of
    these parameters have idealiser order q^l with l dividing rn/(h+1), and
    idealiser orders are equivalence invariants.
    """
    if r * n % (h + 1) != 0:
        raise ParamMismatch("(h+1) must divide rn")
    if (C.m, C.n) != (r * n // (h + 1), n):
        raise ParamMismatch(
            f"expected shape ({r * n // (h + 1)}, {n}), got ({C.m}, {C.n})")
    d = C.min_distance(budget=budget)
    if d != n - h:
        raise ParamMismatch(f"expected minimum distance {n - h}, got {d}")
    if n < h + 3 or (n, h) == (4, 1):
        raise HypothesisViolated(
            "inequivalence theorem needs n >= h+3 and (n,h) != (4,1)")
    if r % (h + 1) == 0:
        return GabidulinExclusion.NOT_APPLICABLE
    if right_idealiser(C).order == C.q**n:
        return GabidulinExclusion.CERTIFIED_NEW
    return GabidulinExclusion.NOT_APPLICABLE
