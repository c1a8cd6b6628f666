"""F_q-subspaces U of V = F_{q^n}^r: scatteredness, the iota statistic,
ordinary duality and Delsarte duality.

A subspace is carried in two coordinatizations: k basis vectors over the mid
field, and the canonical RREF basis of the flattened F_q^{rn} picture.  The
flattening applies the fixed basis (1, g, ..., g^{n-1}) of F_{q^n} over F_q
coordinate-wise, so coordinate i of a mid vector occupies flat columns
[i*n, (i+1)*n).

Point weights w(P) = dim_{F_q}(U ∩ <P>_{F_{q^n}}) come from one of two
exact scans, chosen from the input alone:

- the vector walk (_point_weights) visits one vector on each of the
  θ_{k-1}(q) F_q-points of U and buckets them by projective point; a point
  collecting θ_{w-1}(q) = (q^w - 1)/(q - 1) of them has weight w.
- the point scan (_point_scan) eliminates the n flat rows of every point of
  PG(r-1, q^n) against U.

The walk runs when U's q^k vectors are at most n·θ_{r-1}(q^n), the row
additions of the point scan.  Hyperplane weights are point weights of the
ordinary dual U^⊥', by whichever scan is cheaper for it: the hyperplane
H_w = ker(w·) is the dual of the point <w>, so dim(U ∩ H_w) =
w_{U^⊥'}(<w>) + k - n.  Every scan refuses (BudgetExceeded) rather than
samples when its item count exceeds the budget: subspace vectors for the
walk, projective points for the point scan, and subspaces for the h >= 2
scatteredness scan over h-dim F_{q^n}-subspaces.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InternalInvariantError,
    InvalidParams,
    NoEmbedding,
    PreconditionHyperplaneWeight,
    TowerMismatch,
)
from .fields import Field, FieldTower
from .fqlinalg import (
    DEFAULT_SUBSPACE_BUDGET,
    Mat,
    RowReducer,
    SubspaceBasis,
    enumerate_subspaces,
    intersect,
    intersection_dim,
    kernel,
    mat_inverse,
    mat_mul,
    odometer,
    pack_digits,
    prime_basis_codes,
    projective_points,
    theta,
    vec_mat,
)

N_SEARCH_LIMIT = 1 << 16


def flatten_vec(tower: FieldTower, v) -> list[int]:
    """Flatten a mid-coordinate vector to base-field codes (length r*n)."""
    out: list[int] = []
    for c in v:
        out.extend(tower.mid_to_base_vec(c))
    return out


def unflatten_vec(tower: FieldTower, row) -> tuple[int, ...]:
    n = tower.n
    return tuple(tower.base_vec_to_mid(row[i * n:(i + 1) * n])
                 for i in range(len(row) // n))


@dataclass(eq=False)
class FqSubspace:
    """An F_q-subspace of F_{q^n}^r in mid and flattened coordinates."""

    tower: FieldTower
    r: int
    basis_mid: tuple[tuple[int, ...], ...]
    flat: SubspaceBasis

    @property
    def k(self) -> int:
        return self.flat.dim

    @classmethod
    def from_mid_vectors(cls, tower: FieldTower, r: int, vectors) -> "FqSubspace":
        for v in vectors:
            if len(v) != r:
                raise DimensionMismatch("vector length != r")
        flat = SubspaceBasis.from_vectors(
            tower.base, r * tower.n, [flatten_vec(tower, v) for v in vectors])
        basis_mid = tuple(unflatten_vec(tower, row) for row in flat.rows)
        return cls(tower, r, basis_mid, flat)

    @classmethod
    def from_flat(cls, tower: FieldTower, r: int, flat_vectors) -> "FqSubspace":
        flat = SubspaceBasis.from_vectors(tower.base, r * tower.n, flat_vectors)
        basis_mid = tuple(unflatten_vec(tower, row) for row in flat.rows)
        return cls(tower, r, basis_mid, flat)

    @classmethod
    def zero(cls, tower: FieldTower, r: int) -> "FqSubspace":
        return cls(tower, r, (), SubspaceBasis.zero(tower.base, r * tower.n))

    def contains(self, v) -> bool:
        """Membership of a mid-coordinate vector."""
        return self.flat.contains(flatten_vec(self.tower, v))

    def mid_matrix(self) -> Mat:
        return Mat.from_rows(self.tower.mid, [list(v) for v in self.basis_mid], self.r)

    def spans_ambient(self) -> bool:
        """True iff <U>_{F_{q^n}} = V."""
        return RowReducer(self.tower.mid, self.r).add_all(self.basis_mid) == self.r

    def __eq__(self, other):
        return (isinstance(other, FqSubspace) and self.tower == other.tower
                and self.r == other.r and self.flat == other.flat)

    def __hash__(self):
        return hash((self.tower.params, self.r, self.flat))


def _mid_scaled_rows(tower: FieldTower, v, pack: bool):
    """Flat rows spanning <v>_{F_{q^n}} as an F_q-space: g^j * v, j < n;
    packed ints (fqlinalg.pack_digits) when pack is set, for prime q."""
    mid = tower.mid
    mul = mid.mul
    n = tower.n
    g = mid.gen if tower.n > 1 else 1
    rows = []
    w = list(v)
    for _ in range(n):
        if pack:
            rows.append(pack_digits(tower.base, w, n))
        else:
            rows.append(flatten_vec(tower, w))
        w = [mul(g, c) for c in w]
    return rows


def _midspace_flat_rows(tower: FieldTower, mid_rows, pack: bool):
    out = []
    for w in mid_rows:
        out.extend(_mid_scaled_rows(tower, w, pack))
    return out


def normalize_point(F: Field, v) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1 (canonical representative)."""
    for c in v:
        if c:
            if c == 1:
                return tuple(v)
            s = F.inv(c)
            return tuple(F.mul(s, x) for x in v)
    raise InvalidParams("the zero vector spans no point")


def _walk_is_cheaper(tower: FieldTower, r: int, dim: int) -> bool:
    """True iff walking the q^dim vectors of a dim-dimensional F_q-subspace of
    F_{q^n}^r costs no more than the point scan's n·θ_{r-1}(q^n) row
    additions (n flat rows per point of PG(r-1, q^n))."""
    return tower.base.order**dim <= tower.n * theta(r - 1, tower.mid.order)


def _point_weights(U: FqSubspace, budget: int) -> dict[tuple[int, ...], int]:
    """{normalized point: weight} over the points of L_U, by walking one
    vector per F_q-point of U and bucketing them by projective point.

    The F_q-points are b_i + Σ_{j>i} a_j·b_j over U's basis b (i < k, a_j in
    F_q); a point of weight w holds θ_{w-1}(q) of them.  An odometer over the
    F_p-expansion of the a_j adds one row per step: packed ints (coordinate
    j in bits [j·N, (j+1)·N)) by XOR at p = 2, code tuples by Field.add at
    odd p.  Keys are normalized by log subtraction, c_j -> exp[log c_j +
    (Q-1) - log c_lead].  budget caps the walk at q^k subspace vectors.
    """
    tower = U.tower
    q, mid, r, k = tower.base.order, tower.mid, U.r, U.k
    if q**k > budget:
        raise BudgetExceeded(q**k, budget, "subspace vectors")
    p, N, exp, log, top = mid.p, mid.dim_over_prime, mid._exp, mid._log, mid.order - 1
    shifts, mask = range(0, r * N, N), (1 << N) - 1
    if p == 2:
        add = operator.xor
        pack = lambda v: sum(map(int.__lshift__, v, shifts))
        unpack = lambda v: tuple(map(mask.__and__, map(v.__rshift__, shifts)))
    else:
        add = lambda x, y: tuple(map(mid.add, x, y))
        pack = unpack = tuple
    if exp is None:
        norm = lambda v: pack(normalize_point(mid, unpack(v)))
    elif p == 2:
        def norm(v):
            lead = ((v & -v).bit_length() - 1) // N * N
            c = (v >> lead) & mask
            if c == 1:
                return v
            s, key = top - log[c], 0
            for t in range(lead, r * N, N):
                if x := (v >> t) & mask:
                    key |= exp[log[x] + s] << t
            return key
    else:
        def norm(v):
            c = next(filter(None, v))
            if c == 1:
                return v
            s = top - log[c]
            return tuple(exp[log[x] + s] if x else 0 for x in v)
    scalars = prime_basis_codes(tower.base)    # scalars[0] == 1: rows[i*e] is b_i
    e = len(scalars)
    rows = [pack([mid.mul(a, c) for c in b]) for b in U.basis_mid for a in scalars]
    counts: dict = {}
    for i in range(k):
        for v in odometer(add, rows[i * e], rows[(i + 1) * e:], p):
            key = norm(v)
            counts[key] = counts.get(key, 0) + 1
    weight_of = {theta(w - 1, q): w for w in range(1, k + 1)}
    if any(c not in weight_of for c in counts.values()):
        raise InternalInvariantError("point fiber size is not θ_{w-1}(q)")
    return {unpack(key): weight_of[c] for key, c in counts.items()}


def _point_scan(U: FqSubspace, budget: int):
    """Yield (point, weight) for every point of PG(r-1, q^n), eliminating the
    n flat rows of <P>_{F_{q^n}} against U; budget caps it at θ_{r-1}(q^n)
    projective points."""
    tower = U.tower
    pack = tower.base.base is None
    base_red = U.flat.reducer()
    n = tower.n
    for v in projective_points(tower.mid, U.r, budget=budget):
        yield v, n - base_red.clone().add_all(_mid_scaled_rows(tower, v, pack))


def _point_weight_items(U: FqSubspace, budget: int):
    """(point, weight) pairs covering every point of positive weight: the
    vector walk when q^k <= n·θ_{r-1}(q^n), the point scan otherwise (which
    also yields the points of weight 0)."""
    if _walk_is_cheaper(U.tower, U.r, U.k):
        return _point_weights(U, budget).items()
    return _point_scan(U, budget)


def iota(U: FqSubspace, *, budget: int = DEFAULT_SUBSPACE_BUDGET) -> int:
    """max over projective points P of dim_{F_q}(U ∩ <P>_{F_{q^n}}).

    Walks U's F_q-points when q^k <= n·θ_{r-1}(q^n), else scans the
    θ_{r-1}(q^n) points; budget caps the chosen scan's item count."""
    if U.k == 0:
        return 0
    cap = min(U.k, U.tower.n)
    best = 0
    for _, w in _point_weight_items(U, budget):
        if w > best:
            best = w
            if best == cap:
                break
    return best


def excess_iter(U: FqSubspace, h: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Yield dim_{F_q}(U ∩ W) - h for each h-dim F_{q^n}-subspace W where it
    is positive.

    For h = 1 these are w(P) - 1 over the points P, read through the cheaper
    scan of iota (q^k vectors against n·θ_{r-1}(q^n) row additions).  For
    h >= 2 every W of the qbinom(r, h, q^n) subspaces is eliminated against
    U.  budget caps the chosen scan's item count.
    """
    if h == 1:
        for _, w in _point_weight_items(U, budget):
            if w > 1:
                yield w - 1
        return
    tower = U.tower
    pack = tower.base.base is None
    base_red = U.flat.reducer()
    hn = h * tower.n
    for H in enumerate_subspaces(U.r, h, tower.mid, budget=budget):
        d = hn - base_red.clone().add_all(_midspace_flat_rows(tower, H.rows, pack))
        if d > h:
            yield d - h


def is_h_scattered(U: FqSubspace, h: int, *,
                   budget: int = DEFAULT_SUBSPACE_BUDGET) -> bool:
    """True iff U spans V over F_{q^n} and meets every h-dim F_{q^n}-subspace
    in F_q-dimension at most h.  For h = 1: every point of L_U has weight 1.
    Scans as excess_iter does and exits on the first violation."""
    if not 1 <= h <= U.r - 1:
        raise InvalidParams(f"h must satisfy 1 <= h <= r-1, got h={h}, r={U.r}")
    if not U.spans_ambient():
        return False
    return next(excess_iter(U, h, budget=budget), None) is None


class DimBound(enum.Enum):
    SUBGEOMETRY = "subgeometry"
    WITHIN_BOUND = "within-bound"
    VIOLATION = "violation"


def check_dimension_bound(U: FqSubspace, h: int) -> DimBound:
    """Classify an h-scattered U against the k=r / k <= rn/(h+1) dichotomy.

    VIOLATION is unreachable for genuinely h-scattered inputs and signals an
    internal inconsistency upstream.
    """
    if U.k == U.r:
        return DimBound.SUBGEOMETRY
    if U.k * (h + 1) <= U.r * U.tower.n:
        return DimBound.WITHIN_BOUND
    return DimBound.VIOLATION


def hyperplane_weight_iter(U: FqSubspace, *, budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Yield (dual point w, dim(U ∩ H_w)) over all F_{q^n}-hyperplanes
    H_w = ker(w·), in projective_points order.

    H_w is the ordinary dual of <w>_{F_{q^n}}, so dim(U ∩ H_w) =
    w_{U^⊥'}(<w>) + k - n: the point weights of U^⊥', from the walk of its
    F_q-points or the point scan, as _point_weight_items chooses.
    budget caps the chosen scan's item count (the walk's vectors, or the
    scan's points), not the θ_{r-1}(q^n) pairs yielded.
    """
    dual_w = dict(_point_weight_items(ordinary_dual(U), budget))
    shift = U.k - U.tower.n
    mid = U.tower.mid
    for w in projective_points(mid, U.r, budget=theta(U.r - 1, mid.order)):
        yield w, dual_w.get(w, 0) + shift


def hyperplane_weight_counts(U: FqSubspace, *,
                             budget: int = DEFAULT_SUBSPACE_BUDGET) -> dict[int, int]:
    """{dim(U ∩ H): number of F_{q^n}-hyperplanes H}, from the point weights
    of U^⊥' as hyperplane_weight_iter reads them.

    The hyperplanes whose dual point has weight 0 in U^⊥' are counted, not
    visited, when the walk yields only the points of L_{U^⊥'}: all have
    weight k - n.
    """
    shift = U.k - U.tower.n
    counts: dict[int, int] = {}
    for _, w in _point_weight_items(ordinary_dual(U), budget):
        counts[w + shift] = counts.get(w + shift, 0) + 1
    rest = theta(U.r - 1, U.tower.mid.order) - sum(counts.values())
    if rest:
        counts[shift] = counts.get(shift, 0) + rest
    return counts


def max_hyperplane_weight(U: FqSubspace, *,
                          budget: int = DEFAULT_SUBSPACE_BUDGET) -> int:
    """max over F_{q^n}-hyperplanes H of dim_{F_q}(U ∩ H)."""
    return max(hyperplane_weight_counts(U, budget=budget))


# -- ordinary duality ---------------------------------------------------------


def _trace_gram(tower: FieldTower) -> list[list[int]]:
    """n x n Gram matrix T[j][l] = Tr_{q^n/q}(g^{j+l}) of the trace form."""
    mid, n = tower.mid, tower.n
    g = mid.gen if n > 1 else 1
    pows = [mid.pow(g, i) for i in range(2 * n - 1)]
    return [[tower.trace_to_base("mid", pows[j + l]) for l in range(n)]
            for j in range(n)]


def ordinary_dual(U: FqSubspace) -> FqSubspace:
    """U^{⊥_O} w.r.t. σ'(u,v) = Tr_{q^n/q}(Σ u_i v_i); dim = rn - k."""
    tower, r, n = U.tower, U.r, U.tower.n
    base = tower.base
    T = _trace_gram(tower)
    add, mul = base.add, base.mul
    rows = []
    for u in U.flat.rows:
        row = []
        for i in range(r):
            block = u[i * n:(i + 1) * n]
            for l in range(n):
                s = 0
                for j in range(n):
                    if block[j] and T[j][l]:
                        s = add(s, mul(block[j], T[j][l]))
                row.append(s)
        rows.append(row)
    if not rows:
        full = SubspaceBasis.from_vectors(
            base, r * n, Mat.identity(base, r * n).data)
        return FqSubspace(tower, r, tuple(unflatten_vec(tower, rw) for rw in full.rows), full)
    ker = kernel(Mat.from_rows(base, rows, r * n))
    return FqSubspace.from_flat(tower, r, [list(v) for v in ker.rows])


def fqn_subspace_flat(tower: FieldTower, W: SubspaceBasis) -> FqSubspace:
    """The F_{q^n}-subspace W (basis over mid) viewed as a flat F_q-subspace."""
    vecs = []
    for w in W.rows:
        vecs.extend(_midspace_flat_rows(tower, [w], False))
    return FqSubspace.from_flat(tower, W.ambient, vecs)


def dual_weight_identity_check(U: FqSubspace, W: SubspaceBasis) -> bool:
    """Verify dim(U^{⊥'} ∩ W^{⊥'}) - dim(U ∩ W) = rn - dim U - s·n exactly."""
    tower, r, n = U.tower, U.r, U.tower.n
    if W.ambient != r:
        raise DimensionMismatch("W must be an F_{q^n}-subspace of the same ambient")
    s = W.dim
    if s == 0:
        Wperp_rows: list = Mat.identity(tower.mid, r).data
    else:
        Wperp_rows = [list(v) for v in kernel(
            Mat.from_rows(tower.mid, [list(w) for w in W.rows], r)).rows]
    W_flat = fqn_subspace_flat(tower, W)
    Wperp_flat = fqn_subspace_flat(
        tower, SubspaceBasis.from_vectors(tower.mid, r, Wperp_rows))
    Udual = ordinary_dual(U)
    lhs = (intersection_dim(Udual.flat, Wperp_flat.flat)
           - intersection_dim(U.flat, W_flat.flat))
    return lhs == r * n - U.k - s * n


# -- Delsarte duality ---------------------------------------------------------


@dataclass
class DelsarteDualData:
    """Embedding data and result of one Delsarte dualization.

    W is the F_q-span of the rows of embed (= [M|N]); Gamma is {0}^r x
    F_{q^n}^{k-r}; beta is the extension of the dot product in W-coordinates,
    whose Gram matrix in standard coordinates is gram_std; proj realizes the
    quotient by Gamma^perp as x -> x·proj.
    """

    tower: FieldTower
    r: int
    k: int
    embed: Mat
    n_block: Mat
    gamma: SubspaceBasis
    gram_std: Mat
    gamma_perp: SubspaceBasis
    proj: Mat
    dual: FqSubspace


def _find_n_block(tower: FieldTower, M: Mat) -> Mat:
    """Deterministic N with F_q entries making [M|N] invertible over F_{q^n}.

    Scans packed-code order when feasible; otherwise uses the unit-vector
    completion of the lexicographically first independent row subset of M,
    which is always invertible by block triangularity.
    """
    mid, base = tower.mid, tower.base
    k, r = M.rows, M.cols
    w = k - r
    total = base.order ** (k * w)
    if total <= N_SEARCH_LIMIT:
        for code in range(total):
            digits = []
            c = code
            for _ in range(k * w):
                digits.append(c % base.order)
                c //= base.order
            N = Mat.from_rows(mid, [digits[i * w:(i + 1) * w] for i in range(k)], w)
            if RowReducer(mid, k).add_all(
                    M.data[i] + N.data[i] for i in range(k)) == k:
                return N
        raise InternalInvariantError("no F_q-entry completion found")
    rr = RowReducer(mid, r)
    pivot_rows = [i for i in range(k) if rr.add(tuple(M.data[i]))]
    comp = [i for i in range(k) if i not in set(pivot_rows)]
    N = Mat.zero(mid, k, w)
    for c, i in enumerate(comp):
        N.data[i][c] = 1
    return N


def delsarte_dual(U: FqSubspace, *,
                  budget: int = DEFAULT_SUBSPACE_BUDGET) -> DelsarteDualData:
    """Delsarte dual U^{⊥_D} = (W + Γ^⊥)/Γ^⊥ in V-hat/Γ^⊥ ≅ F_{q^n}^{k-r}."""
    tower, r, k = U.tower, U.r, U.k
    if k <= r:
        raise InvalidParams("Delsarte duality needs k > r")
    maxw = max_hyperplane_weight(U, budget=budget)
    if maxw >= k - 1:
        raise PreconditionHyperplaneWeight(
            f"a hyperplane meets U in dimension {maxw} >= k-1 = {k - 1}")
    mid = tower.mid
    M = U.mid_matrix()
    N = _find_n_block(tower, M)
    T = Mat.from_rows(mid, [list(M.data[i]) + list(N.data[i]) for i in range(k)])
    Tinv = mat_inverse(T)
    gram_std = mat_mul(Tinv, Tinv.transpose())
    gamma_rows = []
    for c in range(k - r):
        row = [0] * k
        row[r + c] = 1
        gamma_rows.append(row)
    gamma = SubspaceBasis.from_vectors(mid, k, gamma_rows)
    constraints = mat_mul(Mat.from_rows(mid, gamma_rows, k), gram_std)
    gamma_perp = kernel(constraints)
    if gamma_perp.dim != r:
        raise InternalInvariantError("Gamma^perp has wrong dimension")
    proj_cols = kernel(Mat.from_rows(mid, [list(v) for v in gamma_perp.rows], k))
    proj = Mat.from_rows(mid, [list(v) for v in proj_cols.rows], k).transpose()
    dual_vectors = []
    for i in range(k):
        dual_vectors.append(vec_mat(T.data[i], proj))
    dual = FqSubspace.from_mid_vectors(tower, k - r, dual_vectors)
    if dual.k != k:
        raise InternalInvariantError("W meets Gamma^perp nontrivially")
    data = DelsarteDualData(
        tower=tower, r=r, k=k, embed=T, n_block=N, gamma=gamma,
        gram_std=gram_std,
        gamma_perp=gamma_perp, proj=proj, dual=dual)
    _validate_delsarte(data, U)
    return data


def _validate_delsarte(data: DelsarteDualData, U: FqSubspace) -> None:
    if RowReducer(data.tower.mid, data.k).add_all(data.embed.data) != data.k:
        raise NoEmbedding("[M|N] is singular")
    if intersection_dim(
            fqn_subspace_flat(data.tower, data.gamma).flat,
            _w_flat(data).flat) != 0:
        raise NoEmbedding("W meets Gamma")
    if data.gram_std.data != data.gram_std.transpose().data:
        raise NoEmbedding("beta is not symmetric")
    recovered = delsarte_double_dual(data)
    if recovered != U:
        raise NoEmbedding("<W, Gamma> ∩ V != U")


def _w_flat(data: DelsarteDualData) -> FqSubspace:
    tower = data.tower
    return FqSubspace.from_mid_vectors(tower, data.k, [tuple(r) for r in data.embed.data])


def delsarte_double_dual(data: DelsarteDualData) -> FqSubspace:
    """(U^{⊥_D})^{⊥_D} computed with the stored embedding: <W,Γ>_{F_q} ∩ V,
    returned in the original ambient (the unflattening of W+Γ through φ)."""
    tower, r, k = data.tower, data.r, data.k
    span_vecs = [list(row) for row in data.embed.data]
    for g_row in data.gamma.rows:
        span_vecs.append(list(g_row))
    big_rows = _midspace_flat_rows(tower, [tuple(v) for v in span_vecs[k:]], False)
    flat_w = [flatten_vec(tower, v) for v in span_vecs[:k]]
    S = SubspaceBasis.from_vectors(tower.base, k * tower.n, flat_w + big_rows)
    v_rows = []
    for i in range(r):
        e = [0] * k
        e[i] = 1
        v_rows.extend(_mid_scaled_rows(tower, e, False))
    V_flat = SubspaceBasis.from_vectors(tower.base, k * tower.n, v_rows)
    inter = intersect(S, V_flat)
    vectors = []
    for row in inter.rows:
        mid_vec = unflatten_vec(tower, row)
        if any(mid_vec[r:]):
            raise InternalInvariantError("intersection left V")
        vectors.append(mid_vec[:r])
    return FqSubspace.from_mid_vectors(tower, r, vectors)


# -- characterizations of maximum h-scattered subspaces -----------------------


@dataclass(frozen=True)
class Characterization:
    via_definition: bool
    via_hyperplanes: bool
    via_dual_points: bool

    @property
    def all_agree(self) -> bool:
        return self.via_definition == self.via_hyperplanes == self.via_dual_points


def characterize_max_h_scattered(U: FqSubspace, h: int, *,
                                 budget: int = DEFAULT_SUBSPACE_BUDGET) -> Characterization:
    """Evaluate the three equivalent predicates for rn/(h+1)-dimensional U.

    The three agree for every input when n >= h+3; below that regime the
    result only reports the booleans (no equality is asserted here).
    """
    r, n = U.r, U.tower.n
    if U.k * (h + 1) != r * n:
        raise DimensionMismatch(
            f"characterization needs k = rn/(h+1); got k={U.k}, rn/(h+1)={r * n}/{h + 1}")
    via_def = is_h_scattered(U, h, budget=budget)
    bound = r * n // (h + 1) - n + h
    via_hyp = max_hyperplane_weight(U, budget=budget) <= bound
    via_dual = iota(ordinary_dual(U), budget=budget) <= h
    return Characterization(via_def, via_hyp, via_dual)


def direct_sum(U1: FqSubspace, U2: FqSubspace) -> FqSubspace:
    """Block-diagonal sum inside F_{q^n}^{r1+r2}."""
    if U1.tower != U2.tower:
        raise TowerMismatch("direct sum needs a common tower")
    r = U1.r + U2.r
    vecs = [tuple(v) + (0,) * U2.r for v in U1.basis_mid]
    vecs += [(0,) * U1.r + tuple(v) for v in U2.basis_mid]
    return FqSubspace.from_mid_vectors(U1.tower, r, vecs)


def random_subspace(tower: FieldTower, r: int, k: int, rng) -> FqSubspace:
    """Uniform-ish random k-dimensional F_q-subspace of F_{q^n}^r."""
    rn = r * tower.n
    if k > rn:
        raise DimensionMismatch("k exceeds rn")
    order = tower.base.order
    while True:
        vecs = [[rng.randrange(order) for _ in range(rn)] for _ in range(k)]
        U = FqSubspace.from_flat(tower, r, vecs)
        if U.k == k:
            return U
