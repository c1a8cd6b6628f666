"""Linear sets L_U in PG(r-1, q^n): point and hyperplane weights, the
hyperplane spectrum of maximum h-scattered linear sets, and the Hamming-metric
codes obtained by reading a linear set as a projective system.

Projective points are normalized so the first nonzero coordinate is 1, and
generator-matrix columns are sorted by code tuple; different normalizations
give diagonally equivalent codes, so one canonical choice is fixed.

The codeword at coefficient vector w has weight N minus the number of columns
on the hyperplane w·x = 0, so a code's minimum distance and weight enumerator
are read off one histogram of hyperplane cuts (_cut_counts) built from the
columns' point-hyperplane incidences.  Two weight-enumerator conventions
coexist: "projective" counts hyperplanes (as hyperplane_spectrum does) and
"codeword" counts codewords, a factor Q - 1 apart.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .constructions import cug_mrd_weight_distribution
from .errors import (
    BudgetExceeded,
    InternalInvariantError,
    InvalidParams,
    NonIntegral,
    NotMaxScattered,
    NotSpanning,
)
from .fields import Field
from .fqlinalg import (
    DEFAULT_SUBSPACE_BUDGET,
    Mat,
    SubspaceBasis,
    intersection_dim,
    kernel,
    projective_points,
    theta,
)
from .subspaces import (
    FqSubspace,
    _point_weights,
    fqn_subspace_flat,
    hyperplane_weight_counts,
    is_h_scattered,
    normalize_point,
)


@dataclass
class LinearSet:
    """The point set of U with weights: w(P) = dim_{F_q}(U ∩ P-line)."""

    U: FqSubspace
    points: dict[tuple[int, ...], int]

    @property
    def rank(self) -> int:
        return self.U.k

    @property
    def size(self) -> int:
        return len(self.points)


def linear_set(U: FqSubspace, *, budget: int = DEFAULT_SUBSPACE_BUDGET) -> LinearSet:
    """The points of L_U with their weights, from a walk of one vector per
    F_q-point of U bucketed by projective point (a point of weight w holds
    θ_{w-1}(q) of them); budget caps the walk at q^k subspace vectors."""
    return LinearSet(U, _point_weights(U, budget))


def point_weight(U: FqSubspace, P) -> int:
    """dim_{F_q}(U ∩ <P>_{F_{q^n}})."""
    tower = U.tower
    line = fqn_subspace_flat(
        tower, SubspaceBasis.from_vectors(tower.mid, U.r, [list(P)]))
    return intersection_dim(U.flat, line.flat)


def hyperplane_weight(U: FqSubspace, W) -> int:
    """dim_{F_q}(U ∩ H) for the hyperplane H with dual point W."""
    tower = U.tower
    H = kernel(Mat.from_rows(tower.mid, [list(W)], U.r))
    flat = fqn_subspace_flat(tower, H)
    return intersection_dim(U.flat, flat.flat)


def ti_formula(r: int, n: int, h: int, q: int, i: int) -> int:
    """Number of hyperplanes of weight rn/(h+1) - n + i in a maximum
    h-scattered linear set: t_i = A_{n-i}(C_{U,G}) / (q^n - 1), exact big
    integers with the division asserted to be exact."""
    if not 0 <= i <= h:
        raise InvalidParams(f"i must lie in 0..h, got {i}")
    if (r * n) % (h + 1) != 0:
        raise InvalidParams("(h+1) must divide rn")
    num = cug_mrd_weight_distribution(r, n, h, q)[n - i]
    if num % (q**n - 1):
        raise NonIntegral(f"t_{i} is not integral; formula misuse")
    return num // (q**n - 1)


def _max_scattered_h(U: FqSubspace, h: int | None) -> int:
    """The h with k = rn/(h+1), inferred from k when h is None, checked to
    lie in 1..r-1."""
    r, n, k = U.r, U.tower.n, U.k
    if h is None:
        if k == 0 or (r * n) % k != 0 or (r * n) // k < 2:
            raise NotMaxScattered(f"k={k} is not rn/(h+1) for any h >= 1")
        h = (r * n) // k - 1
    if k * (h + 1) != r * n:
        raise NotMaxScattered(f"k={k} != rn/(h+1) = {r * n}/{h + 1}")
    if not 1 <= h <= r - 1:
        raise NotMaxScattered(f"no admissible h: inferred h={h} outside 1..r-1")
    return h


def hyperplane_spectrum(U: FqSubspace, h: int | None = None, *,
                        budget: int = DEFAULT_SUBSPACE_BUDGET) -> dict[int, int]:
    """Hyperplane weight spectrum {i: count} of a maximum h-scattered U, with
    weight rn/(h+1) - n + i.

    The counts come from subspaces.hyperplane_weight_counts (the point
    weights of the ordinary dual, from the walk of its vectors or the point
    scan, whichever is cheaper), not from ti_formula, so the two can be
    compared as an oracle check.
    """
    h = _max_scattered_h(U, h)
    if not is_h_scattered(U, h, budget=budget):
        raise NotMaxScattered("U is not h-scattered")
    lo = U.k - U.tower.n
    spectrum: dict[int, int] = {}
    for wt, count in hyperplane_weight_counts(U, budget=budget).items():
        i = wt - lo
        if not 0 <= i <= h:
            raise InternalInvariantError("hyperplane weight escaped the window")
        spectrum[i] = count
    return dict(sorted(spectrum.items()))


# -- Hamming codes from projective systems -------------------------------------


@dataclass
class HammingCode:
    """A linear [N, k] code over F_{q^n} given by a full-rank generator
    matrix with no zero columns (a projective-system generator)."""

    field: Field
    k: int
    N: int
    gen: tuple[tuple[int, ...], ...]
    d: int | None = None

    def __post_init__(self):
        if len(self.gen) != self.k or any(len(r) != self.N for r in self.gen):
            raise InvalidParams("generator shape mismatch")
        for j in range(self.N):
            if all(row[j] == 0 for row in self.gen):
                raise InvalidParams("projective systems forbid zero columns")


def _cut_counts(F: Field, k: int, cols, budget: int) -> dict[int, int]:
    """{c: number of hyperplanes of PG(k-1, F) holding exactly c of cols}.

    Each column is reduced to its projective point, with a multiplicity since
    columns may repeat a point.  A point P with pivot i (P_i = 1) lies on the
    theta_{k-2}(|F|) hyperplanes w·x = 0 with w = f off coordinate i, for f
    a point of PG(k-2, F), and w_i = -f·P; each is visited from P and gains
    P's multiplicity.  The theta_{k-1}(|F|) hyperplanes never visited hold
    no column.  budget caps the visits at point-hyperplane incidences.
    """
    mult = Counter(normalize_point(F, col) for col in cols)
    needed = len(mult) * theta(k - 2, F.order) if k else 0
    if needed > budget:
        raise BudgetExceeded(needed, budget, "point-hyperplane incidences")
    fs = list(projective_points(F, k - 1, budget=budget)) if needed else []
    add, mul, neg = F.add, F.mul, F.neg
    cut: dict[tuple[int, ...], int] = {}
    for P, m in mult.items():
        i = P.index(1)
        rest = P[:i] + P[i + 1:]
        for f in fs:
            s = 0
            for x, y in zip(f, rest):
                if x and y:
                    s = add(s, mul(x, y))
            w = normalize_point(F, f[:i] + (neg(s),) + f[i:])
            cut[w] = cut.get(w, 0) + m
    hist = Counter(cut.values())
    hist[0] = theta(k - 1, F.order) - len(cut)
    return {c: count for c, count in hist.items() if count}


def projective_system_code(L: LinearSet, *,
                           budget: int = DEFAULT_SUBSPACE_BUDGET) -> HammingCode:
    """The [N, r] code over F_{q^n} whose columns are the points of L_U.

    N = |L_U| and the minimum distance is N - max_H |L ∩ H| over hyperplanes,
    the largest cut of _cut_counts; budget caps its N·theta_{r-2}(q^n)
    point-hyperplane incidences.
    """
    U = L.U
    tower, r = U.tower, U.r
    if not U.spans_ambient():
        raise NotSpanning("the linear set spans no frame; not a projective system")
    cols = sorted(L.points)
    N = len(cols)
    gen = tuple(tuple(col[i] for col in cols) for i in range(r))
    return HammingCode(tower.mid, r, N, gen,
                       d=N - max(_cut_counts(tower.mid, r, cols, budget)))


def weight_enumerator(C: HammingCode, convention: str = "projective", *,
                      budget: int = DEFAULT_SUBSPACE_BUDGET) -> dict[int, int]:
    """Weight -> coefficient map over all Q^k - 1 nonzero coefficient
    vectors, read off the hyperplane cuts of C's columns: the hyperplane
    holding c columns gives weight N - c.

    "projective" counts hyperplanes, one per projective class of coefficient
    vectors; "codeword" counts coefficient vectors, Q - 1 per hyperplane.
    Exact for every generator, rank-deficient ones included (their weight-0
    words are counted).  budget caps the point-hyperplane incidences.
    """
    if convention not in ("projective", "codeword"):
        raise InvalidParams(f"unknown convention {convention!r}")
    scale = C.field.order - 1 if convention == "codeword" else 1
    cuts = _cut_counts(C.field, C.k, zip(*C.gen), budget)
    return {C.N - c: count * scale for c, count in sorted(cuts.items(), reverse=True)}


def expected_weights(r: int, n: int, h: int, q: int) -> dict[int, int]:
    """Closed-form projective weight enumerator of the code of a maximum
    h-scattered linear set: weight w_i = theta_{k-1} - theta_{k-n+i-1} has
    coefficient t_i, for i = 0..h (thetas over q, k = rn/(h+1))."""
    k = r * n // (h + 1)
    out = {}
    for i in range(h + 1):
        w = theta(k - 1, q) - theta(k - n + i - 1, q)
        out[w] = out.get(w, 0) + ti_formula(r, n, h, q, i)
    return dict(sorted(out.items()))


def qsystem_code(U: FqSubspace, h: int | None = None, *,
                 budget: int = DEFAULT_SUBSPACE_BUDGET) -> HammingCode:
    """The length-rn/(h+1) code whose generator columns are an F_q-basis of a
    maximum h-scattered U; a column-deletion (up to column scalars) of the
    projective-system code.  budget caps the scatteredness check and the
    point-hyperplane incidences of the minimum distance."""
    r, n, k = U.r, U.tower.n, U.k
    h = _max_scattered_h(U, h)
    if n < h + 3:
        raise InvalidParams("the q-system reading needs n >= h+3")
    if not is_h_scattered(U, h, budget=budget):
        raise NotMaxScattered("U is not h-scattered")
    gen = tuple(tuple(v[i] for v in U.basis_mid) for i in range(r))
    return HammingCode(U.tower.mid, r, k, gen,
                       d=k - max(_cut_counts(U.tower.mid, r, U.basis_mid, budget)))
