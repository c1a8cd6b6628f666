"""Concrete code and subspace constructions: (twisted) Gabidulin codes, the
code-from-subspace map C_{U,G}, the MRD-to-subspace converse extraction, the
Gabidulin restriction example, pseudoregulus subspaces, and a randomized
search for scattered subspaces.

Linearized polynomials convert to matrices by evaluation on the fixed
polynomial basis of their field over F_q, so matrix equality is meaningful
across modules.  Matrices act on column coordinate vectors.

Every code of an evaluation map G : F_{q^n}^r -> F_q^m is C_{ker G, G} =
{G∘τ_v : v ∈ F_{q^n}^r}, built by the one Γ_v builder _cug_codewords: c_ug
with the canonical G, the converse's rebuilt code with the G of a right
F_{q^n}-basis, and the Gabidulin restriction with the G of its f_{j,i}.  The
builder reads each block of n codewords as the n windows of one product
with 2n - 1 columns.

C_{U,G} (U for the restriction) and the c = 0 (twisted) Gabidulin codes on
the mid field carry the subspace S whose point weights are their ranks
(RankCode.attach): S = U for C_{U,G}, and S = U^⊥' for the q-system U of a
Gabidulin code.  Both rank distributions then come from the one geometric
engine of rankcodes.
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    DivisibilityViolation,
    EtaConditionViolated,
    GcdViolation,
    IdealiserNotMaximal,
    InternalInvariantError,
    InvalidParams,
    IotaFull,
    KTooLarge,
    NotMRD,
    ParamMismatch,
)
from .fields import FieldTower, poly_eval
from .fqlinalg import (
    DEFAULT_SUBSPACE_BUDGET,
    Mat,
    RowReducer,
    basis_codes,
    kernel,
    mat_inverse,
    mat_mul,
    row_blocks,
    row_product,
    unpack_row,
)
from .rankcodes import (
    DEFAULT_CODEWORD_BUDGET,
    RankCode,
    mrd_weight_distribution,
    right_idealiser,
)
from .subspaces import (
    FqSubspace,
    excess_total,
    iota,
    is_h_scattered,
    ordinary_dual,
    random_subspace,
)


class LinearizedPoly(NamedTuple):
    """A q-polynomial sum a_i x^{q^i} over the mid or top field."""

    tower: FieldTower
    level: str
    coeffs: tuple[int, ...]

    @property
    def deg_over_base(self) -> int:
        return self.tower.degree_over_base(self.level)

    def evaluate(self, x: int) -> int:
        F = self.tower.field(self.level)
        acc = 0
        for i, a in enumerate(self.coeffs):
            if a:
                acc = F.add(acc, F.mul(a, self.tower.frob(self.level, x, i)))
        return acc

    def to_matrix(self) -> Mat:
        """Matrix of the induced F_q-linear map on the level field (columns)."""
        tower, level = self.tower, self.level
        N = self.deg_over_base
        to_vec = (tower.mid_to_base_vec if level == "mid" else tower.top_to_base_vec)
        cols = [to_vec(self.evaluate(b)) for b in basis_codes(tower.field(level), tower.base)]
        return Mat.from_rows(tower.base, cols, N).transpose()


def _resolve_level(tower: FieldTower, N: int) -> str:
    if N == tower.n:
        return "mid"
    if N == tower.n * tower.t:
        return "top"
    raise ParamMismatch(f"N={N} matches neither the mid nor the top field degree")


def gabidulin(tower: FieldTower, N: int, k: int, s: int) -> RankCode:
    """Generalized Gabidulin code G_{k,s} on F_{q^N}: MRD (N,N,q;N-k+1),
    the twisted code with eta = 0."""
    return _twisted_code(tower, N, k, s, 0, 0)


class TwistedGabidulin(NamedTuple):
    code: RankCode
    untwisted: bool


def twisted_gabidulin(tower: FieldTower, N: int, k: int, s: int,
                      eta: int, c: int) -> TwistedGabidulin:
    """Generalized twisted Gabidulin H_{k,s}(eta, c); MRD when the norm
    condition eta^{(q^N-1)/(q-1)} != (-1)^{Nk} holds (eta = 0 degenerates to
    the untwisted Gabidulin code and is allowed)."""
    return TwistedGabidulin(_twisted_code(tower, N, k, s, eta, c), untwisted=eta == 0)


def _twisted_code(tower: FieldTower, N: int, k: int, s: int,
                  eta: int, c: int) -> RankCode:
    """The code H_{k,s}(eta, c), spanned by gamma·x + gamma^{q^c}·eta·x^{q^{sk}}
    and gamma·x^{q^{si}} (0 < i < k) over an F_q-basis gamma of F_{q^N}.

    At c = 0 on the mid field it is left F_{q^N}-linear, the F_{q^N}-span of
    f_0 = x + eta·x^{q^{sk}} and f_i = x^{q^{si}}, with the q-system
    U = {(f_0(α), ..., f_{k-1}(α)) : α ∈ F_{q^N}} ⊂ F_{q^N}^k: the codeword
    of a ∈ F_{q^N}^k has rank N - dim(U ∩ a^⊥).  U is N-dimensional (at
    k >= 2 the coordinate α^{q^s} is injective, and at k = 1 the norm
    condition is exactly the injectivity of α -> α + eta·α^{q^s}), so
    dim(U ∩ a^⊥) is the weight of <a> in U^⊥' and the code carries
    S = U^⊥' (RankCode.attach, which checks dim U^⊥' = kN - N)."""
    level = _resolve_level(tower, N)
    if not 1 <= k < N:
        raise KTooLarge(f"need 1 <= k < N, got k={k}, N={N}")
    if math.gcd(s, N) != 1:
        raise GcdViolation(f"gcd(s, N) must be 1, got gcd({s},{N})={math.gcd(s, N)}")
    if not 1 <= s < N:
        raise InvalidParams(f"need 1 <= s < N, got s={s}")
    if not 0 <= c < N:
        raise InvalidParams(f"need 0 <= c < N, got c={c}")
    F = tower.field(level)
    if not 0 <= eta < F.order:
        raise InvalidParams(f"need 0 <= eta < q^N = {F.order}, got eta={eta}")
    sign = 1 if (N * k) % 2 == 0 else tower.base.neg(1)
    if tower.norm_to_base(level, eta) == sign:
        raise EtaConditionViolated(
            "eta^((q^N-1)/(q-1)) equals (-1)^(Nk); the twisted code is not MRD")
    gammas = basis_codes(F, tower.base)
    gens = []
    for gamma in gammas:
        # a_0-slice: x -> gamma x + gamma^{q^c} eta x^{q^{sk}}
        coeffs = [0] * (s * k % N + 1)
        coeffs[0] = gamma
        coeffs[s * k % N] = F.add(coeffs[s * k % N], F.mul(tower.frob(level, gamma, c), eta))
        gens.append(LinearizedPoly(tower, level, tuple(coeffs)).to_matrix())
    gens += [LinearizedPoly(tower, level, (0,) * (s * i % N) + (gamma,)).to_matrix()
             for i in range(1, k) for gamma in gammas]
    code = RankCode.from_generators(tower.base, N, N, gens)
    if code.dim != N * k:
        # the terms sit at the distinct exponents s·i mod N (gcd(s, N) = 1)
        # and the x coefficient gamma runs over a basis
        raise InternalInvariantError("Gabidulin generators were dependent")
    if c == 0 and level == "mid":
        # gens[i·N] is f_i (gamma = 1), and column j of its matrix is f_i(b_j)
        # for the F_q-basis b: stacked over i, u(b_j) = (f_0(b_j), ..., f_{k-1}(b_j))
        fs = [gens[i * N].data for i in range(k)]
        code.attach(ordinary_dual(FqSubspace.from_flat(
            tower, k, [[M[a][j] for M in fs for a in range(N)] for j in range(N)])))
    return code


def find_nonsquare(tower: FieldTower, level: str) -> int:
    """Smallest element code that is a non-square (odd characteristic only)."""
    F = tower.field(level)
    if F.order % 2 == 0:
        raise InvalidParams("every element of an even-order field is a square")
    half = (F.order - 1) // 2
    for ccode in range(2, F.order):
        if F.pow(ccode, half) != 1:
            return ccode
    raise InternalInvariantError("no non-square found")


# -- the C_{U,G} construction --------------------------------------------------


class CUGCode(NamedTuple):
    """The code {G∘τ_v : v in V} built from U with the canonical G.

    It is right F_{q^n}-linear by construction: Γ_{λv} = Γ_v∘m_λ, so its
    right idealiser contains the multiplication field F_{q^n}.  The order
    of the full idealiser (rankcodes.right_idealiser) stays the certificate.
    """

    U: FqSubspace
    G: Mat
    code: RankCode
    iota: int


def _canonical_projection(U: FqSubspace) -> Mat:
    """G as the projection along U onto the RREF complement; ker(G) = flat(U).

    Column c of G is the unit vector e_c reduced modulo flat(U), read at the
    non-pivot columns: row f of G is the null vector of flat(U) at its free
    column f (SubspaceBasis.null_vectors)."""
    return Mat.from_rows(U.flat.field, U.flat.null_vectors(), U.flat.ambient)


def _cug_codewords(tower: FieldTower, r: int, G: Mat) -> list[list[list[int]]]:
    """Matrices of Γ_v = G∘τ_v for v = g^j·e_i over the flat basis of V, the
    one builder of the codes of an evaluation map G: C_{U,G}, the converse's
    rebuilt code and the Gabidulin restriction.

    Column l of Γ_{g^j·e_i} is G·flat(g^{j+l}·e_i) = G_i·vec(g^{j+l}), G_i
    the i-th block of n columns of G.  So block i's n codewords are the n
    windows of n consecutive columns in G_i·[vec(g^0) | ... | vec(g^{2n-2})]:
    r products with an m x (2n - 1) matrix, not rn·n with the m x rn G."""
    mid, n = tower.mid, tower.n
    g = mid.gen if n > 1 else 1
    powers = Mat.from_rows(G.field, [tower.mid_to_base_vec(mid.pow(g, s))
                                     for s in range(2 * n - 1)], n).transpose()
    out = []
    for i in range(r):
        block = Mat.from_rows(G.field, [row[i * n:(i + 1) * n] for row in G.data], n)
        W = mat_mul(block, powers).data
        out += [[row[j:j + n] for row in W] for j in range(n)]
    return out


def c_ug(U: FqSubspace, *, budget: int = DEFAULT_SUBSPACE_BUDGET) -> CUGCode:
    """Build C_{U,G} with the canonical G; parameters (rn-k, n, q; n-iota).

    The kernel of Γ_v is {λ : λv ∈ U}, so rank Γ_v = n - w(<v>): the code
    carries U (RankCode.attach), and its rank distribution is read off the
    point weights of L_U, or a rankcodes scan where that is priced lower;
    the scans are its oracle in the tests.  iota is the largest weight, so
    iota = n - d, computed under budget.  Γ_v = 0 iff <v>_{F_{q^n}} ⊆ U, so
    a point of weight n (a full F_{q^n}-line in U) shows as dim C < rn and
    raises IotaFull.
    """
    tower, r, n = U.tower, U.r, U.tower.n
    G = _canonical_projection(U)
    if kernel(G) != U.flat:
        raise InternalInvariantError("canonical projection has wrong kernel")
    code = RankCode.from_generators(tower.base, r * n - U.k, n, _cug_codewords(tower, r, G))
    if code.dim != r * n:
        raise IotaFull("U contains a full F_{q^n}-line; C_{U,G} degenerates")
    code.attach(U)
    return CUGCode(U, G, code, n - code.min_distance(budget=budget))


def cug_mrd_weight_distribution(r: int, n: int, it: int, q: int) -> tuple[int, ...]:
    """Rank distribution (A_0, ..., A_n) of an MRD C_{U,G}: the MRD
    (rn/(iota+1), n, q; n-iota) distribution, for 0 <= iota < min(r, n)."""
    if not 0 <= it < min(r, n):
        raise InvalidParams(f"iota must lie in 0..min(r,n)-1, got {it}")
    if (r * n) % (it + 1):
        raise InvalidParams("(iota+1) must divide rn")
    return mrd_weight_distribution(r * n // (it + 1), n, q, n - it).A


def _mrd_criterion(U: FqSubspace, it: int) -> bool:
    """(iota+1) | rn and k·(iota+1) = iota·rn and k <= (r-1)n, for iota = it:
    the MRD criterion for C_{U,G}.

    The equivalence with the brute-force MRD test is guaranteed for
    k <= (r-1)n, where the code has at least n rows.  In the degenerate
    fringe k > (r-1)n the code is wider than tall and can still meet the
    transposed Singleton bound (exactly when k = (r-1)n + iota + 1 - r);
    the criterion is False there all the same.
    """
    n, rn = U.tower.n, U.r * U.tower.n
    return rn % (it + 1) == 0 and U.k * (it + 1) == it * rn and U.k <= rn - n


# -- converse: MRD code -> subspace ---------------------------------------------


class MrdSubspaceExtraction(NamedTuple):
    subspace: FqSubspace
    conjugated_code: RankCode
    reconstructed: RankCode
    iota: int


def mrd_to_subspace(C: RankCode, tower: FieldTower, *,
                    budget: int = DEFAULT_CODEWORD_BUDGET) -> MrdSubspaceExtraction:
    """Recover U with C ~ C_{U,G} from an MRD code with maximal right idealiser.

    Conjugates C so its right idealiser becomes the canonical multiplication
    field (the idealiser's generator -> its minimal polynomial -> a root in
    F_{q^n} -> basis-mapping isomorphism), reads U = ker G off the
    evaluation map G = [f_1 | ... | f_r] of a right F_{q^n}-basis, and rebuilds
    the code from (U, G) for the set-equality check.  budget caps the rank
    scans and the root scan over the q^n elements of F_{q^n}.
    """
    n = tower.n
    if C.n != n:
        raise ParamMismatch(f"code has {C.n} columns, tower mid degree is {n}")
    if C.m < n:
        raise ParamMismatch("the converse needs m >= n")
    if not C.is_mrd(budget=budget):
        raise NotMRD("the converse applies to MRD codes")
    R = right_idealiser(C)
    if R.order != C.q**n:
        raise IdealiserNotMaximal(
            f"right idealiser order {R.order} != q^n = {C.q**n}")
    if not R.is_field:
        raise IdealiserNotMaximal("right idealiser is not a field")
    base, mid = tower.base, tower.mid
    _, minpoly, powers = R.generator     # a field has one (rankcodes.Idealiser)
    if mid.order > budget:
        raise BudgetExceeded(mid.order, budget, "F_{q^n} elements")
    for gamma in mid.elements():
        if poly_eval(mid, minpoly, gamma) == 0:
            break
    else:
        raise InternalInvariantError("idealiser minimal polynomial has no root")
    # F_q[Y] is a field of degree n, so e_0 is cyclic for Y: column j is Y^j·e_0
    H = Mat.from_rows(base, [unpack_row(base, P, n * n)[::n] for P in powers], n).transpose()
    P = Mat.from_rows(base, [tower.mid_to_base_vec(mid.pow(gamma, j)) for j in range(n)],
                      n).transpose()
    conj = mat_mul(H, mat_inverse(P))
    conj_gens = [mat_mul(Mat.from_rows(base, M), conj) for M in C.basis_matrices()]
    Cprime = RankCode.from_generators(base, C.m, n, conj_gens)
    r = Cprime.dim // n      # C' is a vector space over its idealiser F_{q^n}
    # a greedy right F_q[Y]-basis M_i of C: M_i·conj is one of C' = C·conj
    # over F_{q^n}, as conj⁻¹·Y·conj = m_γ.  C·Y ⊆ C, so it cannot fall short
    split, product = row_blocks(base, n)[0], row_product(base, n)
    rr, fs, ys = RowReducer(base, C.m * n), [], [split(P, n) for P in powers[1:]]
    for M, word, f in zip(C.basis_matrices(), C.flat.stored, conj_gens):
        if rr.add(word):    # M·F_q[Y] is spanned by the M·Y^e
            fs.append(f)
            rr.add_all(product(M, Y) for Y in ys)
    if rr.rank != C.dim:
        raise InternalInvariantError("failed to build a right F_{q^n}-basis")
    G = _evaluation_map(fs)
    U = FqSubspace(tower, r, kernel(G))
    recon = RankCode.from_generators(base, C.m, n, _cug_codewords(tower, r, G))
    if recon != Cprime:
        raise InternalInvariantError("reconstructed C_{U,G} differs from C'")
    return MrdSubspaceExtraction(subspace=U, conjugated_code=Cprime, reconstructed=recon,
                                 iota=n - C.min_distance(budget=budget))


def _evaluation_map(fs: list[Mat]) -> Mat:
    """G = [f_1 | ... | f_r]: column j of f_i is f_i(g^j), so G·flat(ξ) =
    Σ_i f_i(ξ_i) and ker G is the subspace U of the codewords vanishing at 1."""
    return Mat.from_rows(fs[0].field, [[x for f in fs for x in f.data[rho]]
                                       for rho in range(fs[0].rows)])


# -- the Gabidulin restriction example -------------------------------------------


class GabidulinRestriction(NamedTuple):
    code: RankCode
    U: FqSubspace
    Udual: FqSubspace
    expected_dual: FqSubspace
    dual_matches: bool
    iota: int


def gabidulin_restriction(tower: FieldTower, nt: int, n: int, it: int) -> GabidulinRestriction:
    """Restrict G_{iota+1,1} on F_{q^{nt}} to the domain F_{q^n}: the MRD
    (nt, n, q; n-iota) punctured code C_{U,G} for the evaluation map G of the
    F_{q^n}-basis f_{j,i}: x -> xi^i x^{q^j} (j-major) and U = ker G, which
    the code carries (RankCode.attach, whose dimension check covers the
    generators).  The ordinary dual of U must coincide with the direct sum
    of t copies of {(y, y^{q^{n-1}}, ..., y^{q^{n-iota}})}.
    """
    if tower.n != n or tower.n * tower.t != nt:
        raise ParamMismatch("tower degrees do not match (nt, n)")
    if not 0 < it < n:
        raise InvalidParams("need 0 < iota < n")
    t, top = tower.t, tower.top
    r = t * (it + 1)
    mid_basis = basis_codes(tower.mid, tower.base)
    xi = top.gen if t > 1 else 1
    fji = [Mat.from_rows(tower.base, [
        tower.top_to_base_vec(top.mul(top.pow(xi, i), tower.frob("mid", b, j)))
        for b in mid_basis], nt).transpose() for j in range(it + 1) for i in range(t)]
    G = _evaluation_map(fji)
    U = FqSubspace(tower, r, kernel(G))
    code = RankCode.from_generators(tower.base, nt, n, _cug_codewords(tower, r, G))
    code.attach(U)
    Udual = ordinary_dual(U)
    expected_rows = []
    for i0 in range(t):
        for b in mid_basis:
            vec = [0] * r
            for j in range(it + 1):
                vec[j * t + i0] = tower.frob("mid", b, (n - j) % n)
            expected_rows.append(tuple(vec))
    expected = FqSubspace.from_mid_vectors(tower, r, expected_rows)
    return GabidulinRestriction(code, U, Udual, expected, Udual == expected, it)


# -- scattered subspace constructions ---------------------------------------------


def pseudoregulus_subspace(tower: FieldTower, r: int, n: int, h: int) -> FqSubspace:
    """Direct sum of r/(h+1) copies of {(z, z^q, ..., z^{q^h})}: an
    h-scattered subspace of F_{q^n}^r of dimension rn/(h+1)."""
    if tower.n != n:
        raise ParamMismatch("tower mid degree != n")
    if r < 1 or not 0 < h < n:
        raise InvalidParams(f"need r >= 1 and 0 < h < n, got r={r}, h={h}, n={n}")
    if r % (h + 1) != 0:
        raise DivisibilityViolation(f"(h+1)={h + 1} must divide r={r}")
    copies = r // (h + 1)
    vecs = []
    for cidx in range(copies):
        for b in basis_codes(tower.mid, tower.base):
            vec = [0] * r
            for j in range(h + 1):
                vec[cidx * (h + 1) + j] = tower.frob("mid", b, j)
            vecs.append(tuple(vec))
    return FqSubspace.from_mid_vectors(tower, r, vecs)


class SearchResult(NamedTuple):
    found: bool
    subspace: FqSubspace | None
    evaluations: int
    seed: int


def random_scattered_search(tower: FieldTower, r: int, h: int, k: int, *,
                            seed: int, max_evals: int = 200,
                            budget: int = DEFAULT_SUBSPACE_BUDGET,
                            time_budget: float | None = None) -> SearchResult:
    """Seeded hill-climbing search for a k-dim h-scattered subspace.

    The score of a candidate counts the total excess intersection over all
    h-dimensional F_{q^n}-subspaces (subspaces.excess_total; for h = 1 this
    is the sum of w(P) - 1 over the points of L_U, for h = r - 1 it is read
    off the point weights of the ordinary dual), plus a spanning penalty;
    replacement moves on single basis vectors are accepted when the score
    does not increase, with deterministic restarts.  A move replaces one row
    of the incumbent's canonical basis by a random vector
    (SubspaceBasis.replace_row, an RREF of the stored rows that stay and
    the new one), and a move whose candidate loses a dimension is not
    scored.  A move's excess is capped at the incumbent's score, and
    spanning is checked only for a move whose excess stays within it: a
    move whose excess alone exceeds the cap is rejected whatever its
    penalty, so every accept and reject is the full score's.  Any returned
    witness is re-verified with is_h_scattered before being reported.  A
    k below r returns not found with no evaluation: no such subspace spans.
    max_evals is the reproducible budget, never exceeded; time_budget
    (seconds, finite and >= 0) is an optional extra stop.
    """
    n = tower.n
    if not 1 <= h <= r - 1:
        raise InvalidParams(f"h must satisfy 1 <= h <= r-1, got h={h}, r={r}")
    if not 0 <= k * (h + 1) <= r * n:
        raise InvalidParams(f"k must satisfy 0 <= k <= rn/(h+1), got k={k}")
    if time_budget is not None and not (math.isfinite(time_budget) and time_budget >= 0):
        raise InvalidParams(f"time budget must be finite and >= 0, got {time_budget}")
    if k < r or max_evals < 1:
        # nothing may be scored; a subspace of dimension below r never
        # spans V(r, q^n), so it is never h-scattered
        return SearchResult(False, None, 0, seed)
    rng = random.Random(seed)
    rn = r * n
    order = tower.base.order

    def score(U: FqSubspace, cap: int | None = None) -> int | None:
        excess = excess_total(U, h, cap=cap, budget=budget)
        if excess is None:
            return None
        return excess + (0 if U.spans_ambient() else rn)

    # the deadline is read before every evaluation, the first included
    deadline = None if time_budget is None else time.monotonic() + time_budget
    evals = stall = 0
    best_score = None
    while best_score != 0 and evals < max_evals and (
            deadline is None or time.monotonic() < deadline):
        if best_score is None or stall > 5 * k:
            best = random_subspace(tower, r, k, rng)
            best_score = score(best)
            evals += 1
            stall = 0
            continue
        idx = rng.randrange(k)
        cand = FqSubspace(tower, r, best.flat.replace_row(
            idx, [rng.randrange(order) for _ in range(rn)]))
        if cand.k != k:
            stall += 1
            continue
        cand_score = score(cand, best_score)
        evals += 1
        if cand_score is not None and cand_score <= best_score:
            if cand_score < best_score:
                stall = 0
            best, best_score = cand, cand_score
        else:
            stall += 1
    if best_score == 0 and is_h_scattered(best, h, budget=budget):
        return SearchResult(True, best, evals, seed)
    return SearchResult(False, None, evals, seed)
