"""F_q-subspaces U of V = F_{q^n}^r: scatteredness, the iota statistic,
ordinary duality and Delsarte duality.

A subspace is stored once, as the canonical RREF basis of its flattened
F_q^{rn} picture.  The flattening applies the fixed basis (1, g, ...,
g^{n-1}) of F_{q^n} over F_q coordinate-wise, so coordinate i of a mid
vector occupies flat columns [i*n, (i+1)*n): fqlinalg.store_digits stores
its base-q digits, and digit_rows reads them back (basis_mid), at every q.

Every meet dim_{F_q}(U ∩ <W>_{F_{q^n}}) with given F_{q^n}-subspaces W comes
from one helper, _meet_dims: it holds one reducer for U and eliminates the
n·dim W flat rows g^j·w of each W against a clone of it (rows in the form
fqlinalg stores them).  The point scan and the 2 <= h <= r - 2
scatteredness scan read it.

Point weights w(P) = dim_{F_q}(U ∩ <P>_{F_{q^n}}) come from one of two
exact scans, listed with their prices by _point_sides and chosen by
fqlinalg.cheapest under the budget (rankcodes lists the same two next to
its own scans):

- the vector walk (_walk_fibers) visits one vector on each of the
  θ_{k-1}(q) F_q-points of U and counts them by projective point; a point
  collecting θ_{w-1}(q) = (q^w - 1)/(q - 1) of them has weight w.  The
  vectors are packed over F_p at every p, one integer add apiece (XOR at
  p = 2, the Slots fold at odd p).  Their first nonzero coordinate i (the
  lead) is known from U's RREF basis, so they are counted in one Counter
  per lead, keyed by the coordinates after i divided by coordinate i, read
  a run and a coordinate at a time straight to their logs
  (fqlinalg.log_column), one run per lead unless a largest weight is
  given.
- the point scan (_point_scan) meets U with every point of PG(r-1, q^n).

ι, the h = 1 and h = r - 1 excess and point_weight_counts read only the
histogram {w: number of points} (_weight_counts): from the walk, the fiber
sizes of its keys, with the points it skips counted as weight 0.  Only
linear_set and hyperplane_weight_iter need the points themselves
(_point_weight_items), built from the keys behind their lead.  The excess
Σ_P (w(P) - t)₊ may be capped (excess_total): the walk stops once its
partial fibers bound it above the cap, and the point scan once its running
sum passes it.  is_h_scattered and ι cap it at 0, so the walk stops after
the first run whose partial fibers exceed θ_{t-1}(q), and the point scan
at the first point of weight above t; the search caps it at the incumbent's
score, checked once, after the vectors b_0 + span(b_1, ..., b_{k-1}).
Hyperplane weights are point weights of the ordinary dual U^⊥', by
whichever scan is chosen for it: the hyperplane H_w = ker(w·) is the dual
of the point <w>, so dim(U ∩ H_w) = w_{U^⊥'}(<w>) + k - n.  At r = 2 the
hyperplane H_w is the point <(w_2, -w_1)>, so for k <= n the counts are
U's own point weights.  Scatteredness
at h = 1 reads the point weights of U, at h = r - 1 those of U^⊥'.  The
scatteredness scan over h-dim F_{q^n}-subspaces at 2 <= h <= r - 2 counts
subspaces against the budget.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import operator
from collections import Counter
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    InternalInvariantError,
    InvalidParams,
    PreconditionHyperplaneWeight,
)
from .fields import Field, FieldTower
from .fqlinalg import (
    DEFAULT_SUBSPACE_BUDGET,
    Mat,
    RowReducer,
    SPAN_CHUNK,
    SubspaceBasis,
    _rref,
    cheapest,
    digit_rows,
    enumerate_subspaces,
    kernel,
    log_column,
    mat_inverse,
    prime_expansion,
    projective_points,
    span_chunks,
    store_digits,
    theta,
    vec_mat,
)

class FqSubspace:
    """An F_q-subspace of F_{q^n}^r, stored as the canonical RREF basis flat
    of its flattened F_q^{rn} picture; basis_mid reads its rows back as mid
    vectors on first use."""

    def __init__(self, tower: FieldTower, r: int, flat: SubspaceBasis):
        self.tower, self.r, self.flat = tower, r, flat

    @property
    def k(self) -> int:
        return self.flat.dim

    @cached_property
    def basis_mid(self) -> tuple[tuple[int, ...], ...]:
        """The rows of flat as mid vectors, in order."""
        return tuple(digit_rows(self.tower.base, self.tower.n, self.r)(self.flat.stored))

    @classmethod
    def from_mid_vectors(cls, tower: FieldTower, r: int, vectors) -> "FqSubspace":
        """The span of vectors of r mid codes, each stored by store_digits,
        which refuses a code outside 0..q^n - 1 (InvalidParams)."""
        base, rn, vectors = tower.base, r * tower.n, list(vectors)
        if any(map(r.__ne__, map(len, vectors))):
            raise DimensionMismatch("vector length != r")
        rows = [store_digits(base, v, tower.n) for v in vectors]
        return cls(tower, r, SubspaceBasis(base, rn, *_rref(base, rows, rn)))

    @classmethod
    def from_flat(cls, tower: FieldTower, r: int, flat_vectors) -> "FqSubspace":
        return cls(tower, r, SubspaceBasis.from_vectors(tower.base, r * tower.n, flat_vectors))

    @classmethod
    def zero(cls, tower: FieldTower, r: int) -> "FqSubspace":
        return cls(tower, r, SubspaceBasis.zero(tower.base, r * tower.n))

    def mid_matrix(self) -> Mat:
        return Mat.from_rows(self.tower.mid, self.basis_mid, self.r)

    def spans_ambient(self) -> bool:
        """True iff <U>_{F_{q^n}} = V: the flat rows are read back as mid
        vectors (digit_rows) and added until their rank reaches r."""
        red = RowReducer(self.tower.mid, self.r)
        mids = digit_rows(self.tower.base, self.tower.n, self.r)(self.flat.stored)
        return not self.r or any(red.add(v) and red.rank == self.r for v in mids)

    def __eq__(self, other):
        return (isinstance(other, FqSubspace) and self.tower == other.tower
                and self.r == other.r and self.flat == other.flat)

    def __hash__(self):
        return hash((self.tower.params, self.r, self.flat))


def _fqn_span(tower: FieldTower, mid_rows):
    """Yield g^j·w for each w in mid_rows and j < n: vectors whose F_q-span
    is <mid_rows>_{F_{q^n}}, F_q-independent when mid_rows are
    F_{q^n}-independent."""
    mul, n = tower.mid.mul, tower.n
    g = tower.mid.gen if n > 1 else 1
    for w in mid_rows:
        for _ in range(n):
            yield w
            w = [mul(g, c) for c in w]


def _meet_dims(U: FqSubspace, spaces):
    """Yield dim_{F_q}(U ∩ <W>_{F_{q^n}}) for each W in spaces, a sequence of
    F_{q^n}-independent mid vectors: the n·dim W flat rows of <W> less the
    rank they add to one reducer holding U, cloned for each W."""
    tower = U.tower
    base, n = tower.base, tower.n
    red = U.flat.reducer()
    for W in spaces:
        rows = [store_digits(base, w, n) for w in _fqn_span(tower, W)]
        yield len(rows) - red.clone().add_all(rows)


def normalize_point(F: Field, v) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1 (canonical representative)."""
    for c in v:
        if c:
            if c == 1:
                return tuple(v)
            s = F.inv(c)
            return tuple(F.mul(s, x) for x in v)
    raise InvalidParams("the zero vector spans no point")


def _point_sides(tower: FieldTower, r: int, dim: int):
    """The two sides of the point weights of a dim-dimensional F_q-subspace
    of F_{q^n}^r, as fqlinalg.cheapest entries valued True for the walk of
    its θ_{dim-1}(q) F_q-points and False for the scan of the θ_{r-1}(q^n)
    points of PG(r-1, q^n)."""
    walk, scan = theta(dim - 1, tower.base.order), theta(r - 1, tower.mid.order)
    return [(3 * walk // 2, walk, "subspace F_q-points", True),
            (2 * tower.n * scan, scan, "projective points", False)]


def _walk_batches(U: FqSubspace, cut):
    """The walk of _walk_fibers in batches of at least SPAN_CHUNK vectors
    (the last may hold fewer), so that it holds one batch at a time, not the
    θ_{k-1}(q) vectors of U: (vectors, runs), each vector stored over F_p
    by store_digits, and runs listing (lead, start, stop) for each run
    of vectors whose first nonzero coordinate is lead.  With cut nonzero,
    the q^{k-1} vectors b_0 + span(b_1, ..., b_{k-1}) also end a batch,
    and the later vectors are not built until it has been read.

    The vectors b_i + Σ_{j>i} a_j·b_j come from span_chunks over the
    F_p-expansion of the a_j: one integer add per vector, XOR at p = 2 and
    the Slots fold at odd p.  The rows are U's flat rows and their
    F_p-multiples, stored with the e base-p digits of each F_q-code in turn:
    the integers store_digits makes of the mid vectors over their n·e
    digits.  At e = 1 these are the flat basis's own stored rows, which are
    taken as they are.  The flat basis is in RREF, so each such vector has
    its first nonzero flat entry at b_i's pivot, in coordinate lead."""
    tower = U.tower
    prime, N, e = tower.prime, tower.mid.dim_over_prime, tower.e
    # the F_p-basis of F_q starts with 1: rows[i*e] is b_i
    rows = U.flat.stored if e == 1 else [
        store_digits(prime, v, e) for v in prime_expansion(tower.base, U.flat.rows)]
    vectors, runs = [], []
    for i, pivot in enumerate(U.flat.pivots):
        for chunk in span_chunks(prime, rows[i * e], rows[(i + 1) * e:], U.r * N,
                                 SPAN_CHUNK):
            runs.append((pivot // tower.n, len(vectors), len(vectors) + len(chunk)))
            vectors += chunk
            if len(vectors) >= SPAN_CHUNK:
                yield vectors, runs
                vectors, runs = [], []
        if vectors and (cut and i == 0 or i == U.k - 1):
            yield vectors, runs
            vectors, runs = [], []


def _walk_fibers(U: FqSubspace, t=0, cap=None):
    """One Counter per lead i < r: {key: number of U's F_q-points on the
    point (0, ..., 0, 1, key)}, keys in first-visit order, where key is the
    coordinates after i divided by coordinate i: an int when one is left,
    a tuple otherwise, () for the one point of lead r - 1.

    With cap given, None as soon as the partial fibers show that
    Σ_P (w(P) - t)₊ exceeds cap: a fiber holding c F_q-points has weight at
    least the least w with θ_{w-1}(q) >= c.  At cap 0 one fiber above
    θ_{t-1}(q) shows it, checked on the fibers of each run.  At any other
    cap the bound over all fibers is checked once, after the q^{k-1}
    vectors b_0 + span(b_1, ..., b_{k-1}) that end a batch of
    _walk_batches, unless the count of those vectors less the count of
    fibers is within cap: a point of weight w not inside
    span(b_1, ..., b_{k-1}) then holds q^{w-1} > θ_{w-2}(q) of them, which
    fixes its weight.
    Unless cap is 0, the runs of one lead in a batch are walked as one.

    The F_q-points are b_i + Σ_{j>i} a_j·b_j over U's basis b (i < k, a_j in
    F_q); a point of weight w holds θ_{w-1}(q) of them.  The vectors of a
    run are read a coordinate at a time, from the lead on, straight to
    logs (fqlinalg.log_column, a zero coordinate to a sentinel), and
    normalized by exp3[log c_j - log c_lead], in C-level maps; fields
    without log tables read codes (fqlinalg.digit_rows) and go through
    normalize_point."""
    tower = U.tower
    q, mid, r = tower.base.order, tower.mid, U.r
    tables = log_column(mid, r)
    if tables is None:
        codes = digit_rows(tower.prime, mid.dim_over_prime, r)
    limit = theta(max(t, 0) - 1, q)
    cut = q ** (U.k - 1) if cap else 0
    fibers = [Counter() for _ in range(r)]
    walked = 0
    for vectors, runs in _walk_batches(U, cut):
        if cap != 0:   # a lead's runs are adjacent: one run per lead
            starts, stops = {}, {}
            for lead, start, stop in runs:
                starts.setdefault(lead, start)
                stops[lead] = stop
            runs = [(lead, start, stops[lead]) for lead, start in starts.items()]
        for lead, start, stop in runs:
            counts = fibers[lead]
            if lead == r - 1:
                counts[()] += stop - start
                keys = [()]
            else:
                block = vectors[start:stop]
                if tables is None:
                    keys = map(operator.itemgetter(1 if lead == r - 2 else slice(1, None)),
                               map(normalize_point, itertools.repeat(mid),
                                   map(operator.itemgetter(slice(lead, None)), codes(block))))
                else:
                    read, exp3 = tables
                    lead_log = list(read(block, lead))
                    cols = [map(exp3.__getitem__, map(operator.sub, read(block, j), lead_log))
                            for j in range(lead + 1, r)]
                    keys = cols[0] if len(cols) == 1 else zip(*cols)
                if cap == 0:
                    keys = list(keys)
                counts.update(keys)
            if cap == 0 and max(map(counts.__getitem__, keys)) > limit:
                return None
        walked += len(vectors)
        # Σ (c - 1) over the fibers is at least their bound when t >= 1: a
        # fiber of c > θ_{w-2}(q) points has c - 1 >= w - 1
        if walked == cut and walked - sum(map(len, fibers)) > cap:
            sizes = _fiber_sizes(fibers)
            if _excess(zip(map(bisect.bisect_left, itertools.repeat(
                    [theta(w - 1, q) for w in range(U.k + 1)]), sizes), sizes.values()), t) > cap:
                return None
    return fibers


def _fiber_sizes(fibers):
    """{c: number of fibers of c F_q-points} over the leads of _walk_fibers."""
    return Counter(itertools.chain.from_iterable(map(Counter.values, fibers)))


def _weight_of(U: FqSubspace, sizes) -> dict[int, int]:
    """{θ_{w-1}(q): w} over the weights w <= k, the fiber sizes a walk of U
    may show; InternalInvariantError unless it holds every size in sizes."""
    q = U.tower.base.order
    weight_of = {theta(w - 1, q): w for w in range(1, U.k + 1)}
    if not weight_of.keys() >= sizes:
        raise InternalInvariantError("point fiber size is not θ_{w-1}(q)")
    return weight_of


def _point_weights(U: FqSubspace) -> dict[tuple[int, ...], int]:
    """{normalized point: weight} over the points of L_U, in the order the
    walk first reaches them: each key of _walk_fibers behind its lead."""
    fibers = _walk_fibers(U)
    weight_of = _weight_of(U, _fiber_sizes(fibers).keys())
    points: dict[tuple[int, ...], int] = {}
    for lead, counts in enumerate(fibers):
        head = (0,) * lead + (1,)
        keys = zip(counts) if lead == U.r - 2 else counts.keys()
        points.update(zip(map(head.__add__, keys), map(weight_of.__getitem__, counts.values())))
    return points


def _weight_counts(U: FqSubspace, budget: int, t=0, cap=None, walk: bool | None = None):
    """{w: number of points of PG(r-1, q^n) of weight w}, weight 0 included:
    the fiber sizes of the walk, whose skipped points are counted, not
    visited (all have weight 0), or the point scan.  walk names the side;
    None lets cheapest pick it from _point_sides.  With cap given, None as
    soon as the walk's partial fibers (_walk_fibers) or the scan's running
    sum show that Σ_P (w(P) - t)₊ exceeds cap, which at cap 0 is exactly
    when it does."""
    if walk is None:
        walk = cheapest(_point_sides(U.tower, U.r, U.k), budget)
    if walk:
        fibers = _walk_fibers(U, t, cap)
        if fibers is None:
            return None
        sizes = _fiber_sizes(fibers)
        counts = dict(zip(map(_weight_of(U, sizes.keys()).__getitem__, sizes), sizes.values()))
        rest = theta(U.r - 1, U.tower.mid.order) - sum(sizes.values())
        if rest:
            counts[0] = rest
        return counts
    counts = Counter()
    for _, w in _point_scan(U, budget):
        counts[w] += 1
        if cap is not None and w > t and _excess(counts.items(), t) > cap:
            return None
    return counts


def _excess(counts, t):
    """Σ (w - t)·count over the pairs (w, count) with w > t."""
    return sum((w - t) * count for w, count in counts if w > t)


def _point_scan(U: FqSubspace, budget: int):
    """(point, weight) for every point P of PG(r-1, q^n), meeting U with
    <P>_{F_{q^n}}; budget caps it at θ_{r-1}(q^n) projective points."""
    points, lines = itertools.tee(projective_points(U.tower.mid, U.r, budget=budget))
    return zip(points, _meet_dims(U, zip(lines)))


def _point_weight_items(U: FqSubspace, budget: int):
    """(point, weight) pairs covering every point of positive weight, from
    the side cheapest picks: the walk, or the point scan, which also yields
    the points of weight 0."""
    if cheapest(_point_sides(U.tower, U.r, U.k), budget):
        return _point_weights(U).items()
    return _point_scan(U, budget)


def iota(U: FqSubspace, *, budget: int = DEFAULT_SUBSPACE_BUDGET) -> int:
    """max over projective points P of dim_{F_q}(U ∩ <P>_{F_{q^n}}), read
    off the weight counts (_weight_counts), which stop at a point of weight
    top = min(k, n): the excess over top - 1 capped at 0."""
    top = min(U.k, U.tower.n)
    counts = _weight_counts(U, budget, top - 1, 0)
    return top if counts is None else max(counts)


def _weight_side(U: FqSubspace, h: int) -> tuple[FqSubspace, int]:
    """(V, t) for h = 1 or r - 1: dim(U ∩ W) - h over the h-dim W is w - t
    over the point weights w of V, U itself at h = 1 and U^⊥' at h = r - 1,
    where dim(U ∩ H_w) = w_{U^⊥'}(<w>) + k - n."""
    return (U, 1) if h == 1 else (ordinary_dual(U), U.tower.n + h - U.k)


def excess_iter(U: FqSubspace, h: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Yield dim_{F_q}(U ∩ W) - h for each h-dim F_{q^n}-subspace W where it
    is positive.

    For h = 1 these are w(P) - 1 over the points P of U; for h = r - 1 they
    are w_{U^⊥'}(<w>) + k - n - h over the dual points w of the hyperplanes
    H_w, a dual point of weight 0 giving k - n - h.  Both are read off the
    weight counts of U or of U^⊥' (_weight_counts).
    For 2 <= h <= r - 2 every W of the qbinom(r, h, q^n) subspaces is
    eliminated against U.  budget caps the chosen scan's item count.
    """
    if h in (1, U.r - 1):
        V, t = _weight_side(U, h)
        for w, count in _weight_counts(V, budget).items():
            if w > t:
                yield from itertools.repeat(w - t, count)
        return
    spaces = enumerate_subspaces(U.r, h, U.tower.mid, budget=budget)
    for d in _meet_dims(U, (H.rows for H in spaces)):
        if d > h:
            yield d - h


def excess_total(U: FqSubspace, h: int, *, cap: int | None = None,
                 budget: int = DEFAULT_SUBSPACE_BUDGET) -> int | None:
    """The sum of excess_iter(U, h), or None exactly when it exceeds cap,
    found as soon as a lower bound on it does: at h = 1 and r - 1 the
    partial fibers of the walk or the running sum of the point scan
    (_weight_counts), else the running sum of the subspace scan."""
    if h in (1, U.r - 1):
        V, t = _weight_side(U, h)
        counts = _weight_counts(V, budget, t, cap)
        if counts is None:
            return None
        total = _excess(counts.items(), t)
    else:
        total = 0
        for total in itertools.accumulate(excess_iter(U, h, budget=budget)):
            if cap is not None and total > cap:
                break
    return None if cap is not None and total > cap else total


def is_h_scattered(U: FqSubspace, h: int, *,
                   budget: int = DEFAULT_SUBSPACE_BUDGET) -> bool:
    """True iff U spans V over F_{q^n} and meets every h-dim F_{q^n}-subspace
    in F_q-dimension at most h.  For h = 1: every point of L_U has weight 1.

    Every h-dim W meets U in at least k - (r - h)·n, so a U with
    k - (r - h)·n > h is refused before any scan.  Otherwise the excess is
    capped at 0 (excess_total), so the scan exits on the first violation:
    at h = 1 and r - 1 the point scan at the first point of weight above t
    and the walk after the first run whose partial fibers show one (t of
    _weight_side), else the subspace scan at the first W."""
    if not 1 <= h <= U.r - 1:
        raise InvalidParams(f"h must satisfy 1 <= h <= r-1, got h={h}, r={U.r}")
    return (U.k - (U.r - h) * U.tower.n <= h and U.spans_ambient()
            and excess_total(U, h, cap=0, budget=budget) is not None)


class DimBound(enum.Enum):
    SUBGEOMETRY = "subgeometry"
    WITHIN_BOUND = "within-bound"


def check_dimension_bound(U: FqSubspace, h: int) -> DimBound:
    """Classify an h-scattered U against the k=r / k <= rn/(h+1) dichotomy.

    An h-scattered U has k <= rn/(h+1), so a larger k is a broken invariant
    upstream (InternalInvariantError), not a class.
    """
    if U.k == U.r:
        return DimBound.SUBGEOMETRY
    if U.k * (h + 1) <= U.r * U.tower.n:
        return DimBound.WITHIN_BOUND
    raise InternalInvariantError(
        f"an h-scattered subspace has dimension at most rn/(h+1); got k={U.k}, "
        f"h={h}, rn={U.r * U.tower.n}")


def hyperplane_weight_iter(U: FqSubspace, *, budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Yield (dual point w, dim(U ∩ H_w)) over all F_{q^n}-hyperplanes
    H_w = ker(w·), in projective_points order.

    H_w is the ordinary dual of <w>_{F_{q^n}}, so dim(U ∩ H_w) =
    w_{U^⊥'}(<w>) + k - n, from the point weights of U^⊥'
    (_point_weight_items); budget caps their scan, not the θ_{r-1}(q^n)
    pairs yielded.
    """
    dual_w = dict(_point_weight_items(ordinary_dual(U), budget))
    shift = U.k - U.tower.n
    mid = U.tower.mid
    for w in projective_points(mid, U.r, budget=theta(U.r - 1, mid.order)):
        yield w, dual_w.get(w, 0) + shift


def point_weight_counts(U: FqSubspace, *,
                        budget: int = DEFAULT_SUBSPACE_BUDGET) -> dict[int, int]:
    """{w: number of points of PG(r-1, q^n) of weight w in U}
    (_weight_counts); the points the walk skips are counted, not visited:
    all have weight 0."""
    return dict(_weight_counts(U, budget))


def hyperplane_weight_counts(U: FqSubspace, *,
                             budget: int = DEFAULT_SUBSPACE_BUDGET) -> dict[int, int]:
    """{dim(U ∩ H): number of F_{q^n}-hyperplanes H}: the point weight
    counts of U^⊥' shifted by k - n, as hyperplane_weight_iter reads them.
    At r = 2 and k <= n, U's own point weight counts, which walk its
    θ_{k-1}(q) F_q-points, not the dual's θ_{2n-k-1}(q): H_w = ker(w·) is
    the point <(w_2, -w_1)>."""
    if U.r == 2 and U.k <= U.tower.n:
        return point_weight_counts(U, budget=budget)
    shift = U.k - U.tower.n
    return {w + shift: count
            for w, count in point_weight_counts(ordinary_dual(U), budget=budget).items()}


def max_hyperplane_weight(U: FqSubspace, *,
                          budget: int = DEFAULT_SUBSPACE_BUDGET) -> int:
    """max over F_{q^n}-hyperplanes H of dim_{F_q}(U ∩ H)."""
    return max(hyperplane_weight_counts(U, budget=budget))


# -- ordinary duality ---------------------------------------------------------


@lru_cache(maxsize=None)
def _trace_gram(tower: FieldTower) -> Mat:
    """n x n Gram matrix T[j][l] = Tr_{q^n/q}(g^{j+l}) of the trace form, once
    per tower: a Hankel matrix, read off the 2n - 1 traces Tr(g^i)."""
    mid, n = tower.mid, tower.n
    g = mid.gen if n > 1 else 1
    traces = [tower.trace_to_base("mid", mid.pow(g, i)) for i in range(2 * n - 1)]
    return Mat.from_rows(tower.base, [traces[j:j + n] for j in range(n)], n)


@lru_cache(maxsize=None)
def _gram_blocks(tower: FieldTower, inverse: bool):
    """b -> b·T, or b·T⁻¹ if inverse, for n base-field codes b (T =
    _trace_gram); the last 2^16 blocks read are cached."""
    T = _trace_gram(tower)
    return lru_cache(maxsize=1 << 16)(partial(vec_mat, A=mat_inverse(T) if inverse else T))


def ordinary_dual(U: FqSubspace) -> FqSubspace:
    """U^{⊥_O} w.r.t. σ'(u,v) = Tr_{q^n/q}(Σ u_i v_i); dim = rn - k.

    On the flat picture σ'(u, v) = u·D·vᵀ, D = blockdiag(T, ..., T), and the
    dual is one RREF of k or rn - k rows, whichever is fewer, each row times
    D or D⁻¹ by cached block products (_gram_blocks): the kernel of U·D, or,
    as T is symmetric and invertible, u·D·vᵀ = 0 for all u ∈ U ⟺ v·D ∈ U^⊥
    ⟺ v ∈ U^⊥·D⁻¹, with U^⊥ read off U's RREF (SubspaceBasis.null_vectors)."""
    tower, r, flat = U.tower, U.r, U.flat
    base, n, rn = tower.base, tower.n, r * tower.n
    below = 2 * U.k < rn
    block = _gram_blocks(tower, not below)
    rows = [[x for i in range(0, rn, n) for x in block(tuple(v[i:i + n]))]
            for v in (flat.rows if below else flat.null_vectors())]
    return FqSubspace(tower, r, kernel(Mat.from_rows(base, rows, rn)) if below
                      else SubspaceBasis(base, rn, *_rref(base, rows, rn)))


# -- Delsarte duality ---------------------------------------------------------


class DelsarteDualData(NamedTuple):
    """One Delsarte dualization: U, the k x (k-r) matrix K whose columns are
    a basis of {x : x·M = 0} for U's k x r basis M, and the dual, the
    F_q-span of K's rows."""

    U: FqSubspace
    K: Mat
    dual: FqSubspace


def delsarte_dual(U: FqSubspace, *,
                  budget: int = DEFAULT_SUBSPACE_BUDGET) -> DelsarteDualData:
    """Delsarte dual U^{⊥_D} in F_{q^n}^{k-r}: the F_q-span of the rows of
    K, whose columns are a basis of the left kernel {x : x·M = 0} of U's
    k x r basis M, kernel(Mᵀ).

    The precondition (every hyperplane meets U in dimension < k - 1) makes
    U span V, so K has k - r columns, and makes K's k rows F_q-independent:
    an F_q-relation c on them is c = M·a, so u -> u·a maps U into F_q and
    the hyperplane ker(a·) meets U in dimension >= k - 1."""
    tower, r, k = U.tower, U.r, U.k
    if k <= r:
        raise InvalidParams("Delsarte duality needs k > r")
    maxw = max_hyperplane_weight(U, budget=budget)
    if maxw >= k - 1:
        raise PreconditionHyperplaneWeight(
            f"a hyperplane meets U in dimension {maxw} >= k-1 = {k - 1}")
    K = Mat.from_rows(tower.mid, kernel(U.mid_matrix().transpose()).rows, k).transpose()
    dual = FqSubspace.from_mid_vectors(tower, k - r, K.data)
    if dual.k != k:
        raise InternalInvariantError(
            "an F_q-relation c = M·a on the rows of K makes u -> u·a map U into F_q, "
            "so ker(a·) meets U in dimension >= k - 1, which the precondition refuses")
    return DelsarteDualData(U=U, K=K, dual=dual)


def delsarte_double_dual(data: DelsarteDualData) -> FqSubspace:
    """(U^{⊥_D})^{⊥_D} by the same kernel, read in U's frame: with R the
    canonical basis of {x : x·K = 0} and P its pivot columns, the F_q-span
    of the rows of Rᵀ·M_P (M_P the rows P of U's basis M).

    When K's columns span {x : x·M = 0}, R's rows span M's columns, so
    Mᵀ = B·R with B = (Mᵀ)_P = M_Pᵀ, and Rᵀ·M_P = M: the double dual is U.
    A K with another left kernel, such as another subspace's K, generally
    gives another subspace."""
    U = data.U
    R = kernel(data.K.transpose())
    M_P = Mat.from_rows(U.tower.mid, [U.basis_mid[p] for p in R.pivots], U.r)
    return FqSubspace.from_mid_vectors(
        U.tower, U.r, (vec_mat(col, M_P) for col in zip(*R.rows)))


# -- characterizations of maximum h-scattered subspaces -----------------------


class Characterization(NamedTuple):
    via_definition: bool
    via_hyperplanes: bool
    via_dual_points: bool


def characterize_max_h_scattered(U: FqSubspace, h: int, *,
                                 budget: int = DEFAULT_SUBSPACE_BUDGET) -> Characterization:
    """Evaluate the three equivalent predicates for rn/(h+1)-dimensional U.

    The three agree for every input when n >= h+3; below that regime the
    result only reports the booleans (no equality is asserted here).

    via_hyperplanes and via_dual_points are not independent checks: as
    max_H dim(U ∩ H) = ι(U^⊥') + k - n, the hyperplane bound
    max_H dim(U ∩ H) <= k - n + h is ι(U^⊥') <= h, and both are read off one
    walk (or point scan) of U^⊥'.  At h = r - 1 via_definition reads the
    same point weights of U^⊥', so its agreement there is not independent
    either.
    """
    r, n = U.r, U.tower.n
    if U.k * (h + 1) != r * n:
        raise DimensionMismatch(
            f"characterization needs k = rn/(h+1); got k={U.k}, rn/(h+1)={r * n}/{h + 1}")
    via_def = is_h_scattered(U, h, budget=budget)
    via_dual = iota(ordinary_dual(U), budget=budget) <= h
    return Characterization(via_def, via_dual, via_dual)


def random_subspace(tower: FieldTower, r: int, k: int, rng) -> FqSubspace:
    """Uniform-ish random k-dimensional F_q-subspace of F_{q^n}^r."""
    rn = r * tower.n
    if not 0 <= k <= rn:
        raise DimensionMismatch(f"k must satisfy 0 <= k <= rn = {rn}, got k={k}")
    order = tower.base.order
    while True:
        vecs = [[rng.randrange(order) for _ in range(rn)] for _ in range(k)]
        U = FqSubspace.from_flat(tower, r, vecs)
        if U.k == k:
            return U
