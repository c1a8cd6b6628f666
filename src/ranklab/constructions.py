"""Concrete code and subspace constructions: (twisted) Gabidulin codes, the
code-from-subspace map C_{U,G}, Sheekey codes, the MRD-to-subspace converse
extraction, the Gabidulin restriction example, pseudoregulus subspaces, and a
randomized search for scattered subspaces.

Linearized polynomials convert to matrices by evaluation on the fixed
polynomial basis of their field over F_q, so matrix equality is meaningful
across modules.  Matrices act on column coordinate vectors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (
    DivisibilityViolation,
    EtaConditionViolated,
    GcdViolation,
    IdealiserNotMaximal,
    InternalInvariantError,
    InvalidParams,
    IotaFull,
    KernelMismatch,
    KTooLarge,
    NotMRD,
    ParamMismatch,
    TowerMismatch,
)
from .fields import FieldTower, poly_eval
from .fqlinalg import (
    DEFAULT_SUBSPACE_BUDGET,
    Mat,
    RowReducer,
    kernel,
    mat_inverse,
    mat_mul,
    mat_vec,
    solve_right,
    vec_mat,
)
from .rankcodes import DEFAULT_CODEWORD_BUDGET, RankCode, right_idealiser
from .subspaces import (
    FqSubspace,
    excess_iter,
    flatten_vec,
    iota,
    is_h_scattered,
    ordinary_dual,
    random_subspace,
    unflatten_vec,
)


def base_basis_codes(tower: FieldTower, level: str) -> list[int]:
    """Element codes of the F_q-basis of a level, in flat-coordinate order."""
    q = tower.base.order
    if level == "base":
        return [1]
    if level == "mid":
        return [q**j for j in range(tower.n)]
    qn = q**tower.n
    return [q**j * qn**i for i in range(tower.t) for j in range(tower.n)]


def mult_matrix(tower: FieldTower, alpha: int) -> Mat:
    """Matrix of x -> alpha*x on F_{q^n} w.r.t. the canonical basis (columns)."""
    mid, n = tower.mid, tower.n
    cols = [tower.mid_to_base_vec(mid.mul(alpha, b)) for b in base_basis_codes(tower, "mid")]
    return Mat.from_rows(tower.base, cols, n).transpose()


@dataclass(frozen=True)
class LinearizedPoly:
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
        cols = [to_vec(self.evaluate(b)) for b in base_basis_codes(tower, level)]
        return Mat.from_rows(tower.base, cols, N).transpose()


def _resolve_level(tower: FieldTower, N: int) -> str:
    if N == tower.n:
        return "mid"
    if N == tower.n * tower.t:
        return "top"
    raise ParamMismatch(f"N={N} matches neither the mid nor the top field degree")


def gabidulin(tower: FieldTower, N: int, k: int, s: int) -> RankCode:
    """Generalized Gabidulin code G_{k,s} on F_{q^N}: MRD (N,N,q;N-k+1)."""
    level = _resolve_level(tower, N)
    if not 1 <= k < N:
        raise KTooLarge(f"need 1 <= k < N, got k={k}, N={N}")
    if math.gcd(s, N) != 1:
        raise GcdViolation(f"gcd(s, N) must be 1, got gcd({s},{N})={math.gcd(s, N)}")
    gens = [LinearizedPoly(tower, level, (0,) * (s * i % N) + (gamma,)).to_matrix()
            for i in range(k) for gamma in base_basis_codes(tower, level)]
    code = RankCode.from_generators(tower.base, N, N, gens)
    if code.dim != N * k:
        raise InternalInvariantError("Gabidulin generators were dependent")
    return code


@dataclass(frozen=True)
class TwistedGabidulin:
    code: RankCode
    untwisted: bool


def twisted_gabidulin(tower: FieldTower, N: int, k: int, s: int,
                      eta: int, c: int) -> TwistedGabidulin:
    """Generalized twisted Gabidulin H_{k,s}(eta, c); MRD when the norm
    condition eta^{(q^N-1)/(q-1)} != (-1)^{Nk} holds (eta = 0 degenerates to
    the untwisted Gabidulin code and is allowed)."""
    level = _resolve_level(tower, N)
    if not 1 <= k < N:
        raise KTooLarge(f"need 1 <= k < N, got k={k}, N={N}")
    if math.gcd(s, N) != 1:
        raise GcdViolation(f"gcd(s, N) must be 1")
    if not 0 <= c < N:
        raise InvalidParams(f"need 0 <= c < N, got c={c}")
    F = tower.field(level)
    norm = 1
    x = eta
    for _ in range(N):
        norm = F.mul(norm, x)
        x = tower.frob(level, x, 1)
    sign = 1 if (N * k) % 2 == 0 else tower.base.neg(1)
    if norm == sign:
        raise EtaConditionViolated(
            "eta^((q^N-1)/(q-1)) equals (-1)^(Nk); the twisted code is not MRD")
    gens = []
    for gamma in base_basis_codes(tower, level):
        # a_0-slice: x -> gamma x + gamma^{q^c} eta x^{q^{sk}}
        coeffs = [0] * (s * k % N + 1)
        coeffs[0] = gamma
        top_term = F.mul(tower.frob(level, gamma, c), eta)
        coeffs[s * k % N] = F.add(coeffs[s * k % N], top_term)
        gens.append(LinearizedPoly(tower, level, tuple(coeffs)).to_matrix())
    for i in range(1, k):
        for gamma in base_basis_codes(tower, level):
            gens.append(LinearizedPoly(
                tower, level, (0,) * (s * i % N) + (gamma,)).to_matrix())
    code = RankCode.from_generators(tower.base, N, N, gens)
    if code.dim != N * k:
        raise InvalidParams("twisted Gabidulin generators were dependent")
    return TwistedGabidulin(code, untwisted=eta == 0)


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


@dataclass
class CUGCode:
    """The code {G∘τ_v : v in V} built from U with the canonical G."""

    U: FqSubspace
    G: Mat
    code: RankCode
    iota: int


def _canonical_projection(U: FqSubspace) -> Mat:
    """G as the projection along U onto the RREF complement; ker(G) = flat(U)."""
    tower, rn = U.tower, U.r * U.tower.n
    base = tower.base
    pivset = set(U.flat.pivots)
    rows = [list(v) for v in U.flat.rows]
    comp = [j for j in range(rn) if j not in pivset]
    for j in comp:
        e = [0] * rn
        e[j] = 1
        rows.append(e)
    Binv = mat_inverse(Mat.from_rows(base, rows, rn))
    k = U.k
    g_rows = [[Binv.data[c][k + rho] for c in range(rn)] for rho in range(rn - k)]
    return Mat.from_rows(base, g_rows, rn)


def _cug_codewords(tower: FieldTower, r: int, G: Mat) -> list[list[list[int]]]:
    """Matrices of Γ_v = G∘τ_v for v running over the flat basis of V."""
    mid, n = tower.mid, tower.n
    g = mid.gen if n > 1 else 1
    out = []
    for i in range(r):
        for j in range(n):
            v = [0] * r
            v[i] = mid.pow(g, j)
            cols = []
            w = list(v)
            for _ in range(n):
                cols.append(mat_vec(G, flatten_vec(tower, w)))
                w = [mid.mul(g, c) for c in w]
            out.append(Mat.from_rows(G.field, cols, G.rows).transpose().data)
    return out


def c_ug(U: FqSubspace, *, budget: int = DEFAULT_SUBSPACE_BUDGET) -> CUGCode:
    """Build C_{U,G} with the canonical G; parameters (rn-k, n, q; n-iota)."""
    tower, r, n = U.tower, U.r, U.tower.n
    it = iota(U, budget=budget)
    if it >= n:
        raise IotaFull("U contains a full F_{q^n}-line; C_{U,G} degenerates")
    G = _canonical_projection(U)
    if kernel(G) != U.flat:
        raise InternalInvariantError("canonical projection has wrong kernel")
    gens = _cug_codewords(tower, r, G)
    code = RankCode.from_generators(tower.base, r * n - U.k, n, gens)
    if code.dim != r * n:
        raise InternalInvariantError("v -> Γ_v failed to be injective")
    return CUGCode(U, G, code, it)


def cug_mrd_weight_distribution(r: int, n: int, it: int, q: int) -> tuple[int, ...]:
    """Rank distribution of an MRD C_{U,G}: A_{n-s} for s = 0..iota via the
    alternating sum over q^{rn(iota-s-j+1)/(iota+1)} terms; A_0 = 1."""
    from .fqlinalg import qbinom

    if (r * n) % (it + 1):
        raise InvalidParams("(iota+1) must divide rn")
    if not 0 <= it < n:
        raise InvalidParams(f"iota must lie in 0..n-1, got {it}")
    A = [0] * (n + 1)
    A[0] = 1
    for s in range(it + 1):
        total = 0
        for j in range(it - s + 1):
            term = (qbinom(n - s, j, q) * q ** (j * (j - 1) // 2)
                    * (q ** (r * n * (it - s - j + 1) // (it + 1)) - 1))
            total += -term if j % 2 else term
        A[n - s] = qbinom(n, s, q) * total
    return tuple(A)


def c_ug_mrd_predicate(U: FqSubspace, *, budget: int = DEFAULT_SUBSPACE_BUDGET) -> bool:
    """MRD criterion for C_{U,G}: (iota+1) | rn and k = iota·rn/(iota+1) <= (r-1)n.

    The equivalence with the brute-force MRD test is guaranteed for
    k <= (r-1)n, where the code has at least n rows.  In the degenerate
    fringe k > (r-1)n the code is wider than tall and can still meet the
    transposed Singleton bound (exactly when k = (r-1)n + iota + 1 - r);
    this predicate keeps returning False there, reporting the stated
    criterion rather than the bound.
    """
    tower, r, n = U.tower, U.r, U.tower.n
    it = iota(U, budget=budget)
    if it >= n:
        raise IotaFull("iota = n")
    rn = r * n
    return rn % (it + 1) == 0 and U.k * (it + 1) == it * rn and U.k <= (r - 1) * n


def c_ug_g_independence(U: FqSubspace, G1: Mat, G2: Mat) -> Mat:
    """Invertible L with L∘C_{U,G1} = C_{U,G2}, built on a complement basis."""
    if kernel(G1) != U.flat or kernel(G2) != U.flat:
        raise KernelMismatch("both maps must have kernel flat(U)")
    tower, r, rn = U.tower, U.r, U.r * U.tower.n
    base = tower.base
    pivset = set(U.flat.pivots)
    comp = [j for j in range(rn) if j not in pivset]
    cols1, cols2 = [], []
    for j in comp:
        e = [0] * rn
        e[j] = 1
        cols1.append(mat_vec(G1, e))
        cols2.append(mat_vec(G2, e))
    W1 = Mat.from_rows(base, cols1, rn - U.k).transpose()
    W2 = Mat.from_rows(base, cols2, rn - U.k).transpose()
    L = mat_mul(W2, mat_inverse(W1))
    for M1, M2 in zip(_cug_codewords(tower, r, G1), _cug_codewords(tower, r, G2)):
        lhs = mat_mul(L, Mat.from_rows(base, M1, tower.n))
        if lhs.data != M2:
            raise InternalInvariantError("L∘C_{U,G1} != C_{U,G2}")
    return L


@dataclass(frozen=True)
class SheekeyCode:
    code: RankCode
    degenerate: bool


def sheekey_code(polys: list[LinearizedPoly]) -> SheekeyCode:
    """S_{f_1..f_r}: the span of all F_{q^n}-scalings of the f_i; its left
    idealiser contains the multiplication field."""
    if not polys:
        raise InvalidParams("need at least one q-polynomial")
    tower, level = polys[0].tower, polys[0].level
    if any(p.tower != tower or p.level != level for p in polys):
        raise TowerMismatch("all q-polynomials must live over one field")
    N = polys[0].deg_over_base
    F = tower.field(level)
    gens = []
    for f in polys:
        for gamma in base_basis_codes(tower, level):
            scaled = tuple(F.mul(gamma, a) for a in f.coeffs)
            gens.append(LinearizedPoly(tower, level, scaled).to_matrix())
    code = RankCode.from_generators(tower.base, N, N, gens)
    return SheekeyCode(code, degenerate=code.dim < len(polys) * N)


# -- converse: MRD code -> subspace ---------------------------------------------


@dataclass
class MrdSubspaceExtraction:
    subspace: FqSubspace
    conjugated_code: RankCode
    conjugation: Mat
    fn_basis: list[tuple[tuple[int, ...], ...]]
    g_map: Mat
    reconstructed: RankCode
    iota: int


def _span_elements(F, basis_mats, size):
    """All matrices in the F-span of basis_mats (lists of row lists)."""
    from .fqlinalg import iter_span_rows
    flat = [tuple(x for row in M for x in row) for M in basis_mats]
    for v in iter_span_rows(flat, F, include_zero=False):
        yield [list(v[i * size:(i + 1) * size]) for i in range(size)]


def _primitive_idealiser_element(tower: FieldTower, basis_mats, n: int) -> Mat:
    """First span element generating the Singer cycle (order q^n - 1)."""
    base = tower.base
    group_order = base.order**n - 1
    from .fields import prime_factors
    factors = prime_factors(group_order)
    ident = Mat.identity(base, n)
    for cand in _span_elements(base, basis_mats, n):
        M = Mat.from_rows(base, cand, n)
        if _mat_pow(M, group_order).data != ident.data:
            continue
        if all(_mat_pow(M, group_order // f).data != ident.data for f in factors):
            return M
    raise IdealiserNotMaximal("no Singer generator found in the idealiser")


def _mat_pow(M: Mat, e: int) -> Mat:
    R = Mat.identity(M.field, M.rows)
    B = M
    while e:
        if e & 1:
            R = mat_mul(R, B)
        B = mat_mul(B, B)
        e >>= 1
    return R


def _matrix_min_poly(tower: FieldTower, M: Mat) -> tuple[int, ...]:
    """Monic minimal polynomial of M over F_q via its flattened power sequence."""
    base = tower.base
    n = M.rows
    powers = [Mat.identity(base, n)]
    rr = RowReducer(base, n * n)
    flat = lambda A: [x for row in A.data for x in row]
    while rr.add(tuple(flat(powers[-1]))):
        powers.append(mat_mul(powers[-1], M))
    deg = len(powers) - 1
    cols = Mat.from_rows(base, [[flat(powers[i])[c] for i in range(deg)]
                                for c in range(n * n)], deg)
    target = [base.neg(x) for x in flat(powers[deg])]
    sol = solve_right(cols, target)
    if sol is None:
        raise InternalInvariantError("minimal polynomial solve failed")
    return tuple(sol) + (1,)


def mrd_to_subspace(C: RankCode, tower: FieldTower, *,
                    budget: int = DEFAULT_CODEWORD_BUDGET) -> MrdSubspaceExtraction:
    """Recover U with C ~ C_{U,G} from an MRD code with maximal right idealiser.

    Conjugates C so its right idealiser becomes the canonical multiplication
    field (Singer-cycle recipe: primitive idealiser element -> its minimal
    polynomial -> a root in F_{q^n} -> basis-mapping isomorphism), extracts
    the vanishing-at-1 subspace in coordinates over a right F_{q^n}-basis,
    and rebuilds the code from (U, f -> f(1)) for the set-equality check.
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
    base, mid = tower.base, tower.mid
    g1 = _primitive_idealiser_element(tower, [list(map(list, M)) for M in R.basis], n)
    minpoly = _matrix_min_poly(tower, g1)
    if len(minpoly) != n + 1:
        raise IdealiserNotMaximal("idealiser generator has degenerate minimal polynomial")
    for gamma in mid.elements():
        if poly_eval(mid, minpoly, gamma) == 0:
            break
    else:
        raise InternalInvariantError("idealiser minimal polynomial has no root")
    e0 = [1] + [0] * (n - 1)
    h_cols, acc = [], e0
    for _ in range(n):
        h_cols.append(acc)
        acc = mat_vec(g1, acc)
    H = Mat.from_rows(base, h_cols, n).transpose()
    p_cols = [tower.mid_to_base_vec(mid.pow(gamma, j)) for j in range(n)]
    P = Mat.from_rows(base, p_cols, n).transpose()
    conj = mat_mul(H, mat_inverse(P))
    conj_gens = [mat_mul(Mat.from_rows(base, [list(r) for r in M], n), conj).data
                 for M in C.basis_matrices()]
    Cprime = RankCode.from_generators(base, C.m, n, conj_gens)
    d = C.min_distance(budget=budget)
    return _extract_from_canonical(Cprime, tower, n - d, budget=budget,
                                   conjugation=conj)


def _extract_from_canonical(Cprime: RankCode, tower: FieldTower, it: int, *,
                            budget: int, conjugation: Mat) -> MrdSubspaceExtraction:
    """Extraction pipeline once R(C') is the canonical multiplication field."""
    base, n = tower.base, tower.n
    K = Cprime.dim
    if K % n != 0:
        raise ParamMismatch("dim(C) is not a multiple of n")
    r = K // n
    basis_mats = _basis_mats(Cprime)
    mult_mats = _power_mult_mats(tower)
    for M in basis_mats:
        if not Cprime.contains(mat_mul(M, mult_mats[1 % n]).data):
            raise IdealiserNotMaximal("conjugated code is not F_n-closed")
    # greedy right F_{q^n}-basis of C'
    rr = RowReducer(base, Cprime.m * n)
    fn_basis: list[Mat] = []
    for M in basis_mats:
        if len(fn_basis) == r:
            break
        flatM = tuple(x for row in M.data for x in row)
        if rr.clone().add(flatM):
            fn_basis.append(M)
            for j in range(n):
                rr.add(tuple(x for row in mat_mul(M, mult_mats[j]).data for x in row))
    if len(fn_basis) != r or rr.rank != K:
        raise IdealiserNotMaximal("failed to build a right F_{q^n}-basis")
    U = _vanishing_subspace(Cprime, tower, fn_basis, mult_mats)
    g_rows = [[0] * (r * n) for _ in range(Cprime.m)]
    for i, f in enumerate(fn_basis):
        for j in range(n):
            col = mat_mul(f, mult_mats[j])
            for rho in range(Cprime.m):
                g_rows[rho][i * n + j] = col.data[rho][0]
    G = Mat.from_rows(base, g_rows, r * n)
    if kernel(G) != U.flat:
        raise InternalInvariantError("f -> f(1) does not have kernel U")
    recon = RankCode.from_generators(base, Cprime.m, n, _cug_codewords(tower, r, G))
    if recon != Cprime:
        raise InternalInvariantError("reconstructed C_{U,G} differs from C'")
    return MrdSubspaceExtraction(
        subspace=U, conjugated_code=Cprime, conjugation=conjugation,
        fn_basis=[tuple(tuple(rw) for rw in f.data) for f in fn_basis],
        g_map=G, reconstructed=recon, iota=it)


# -- the Gabidulin restriction example -------------------------------------------


@dataclass
class GabidulinRestriction:
    code: RankCode
    U: FqSubspace
    Udual: FqSubspace
    expected_dual: FqSubspace
    dual_matches: bool
    iota: int


def gabidulin_restriction(tower: FieldTower, nt: int, n: int, it: int,
                          *, budget: int = DEFAULT_CODEWORD_BUDGET) -> GabidulinRestriction:
    """Restrict G_{iota+1,1} on F_{q^{nt}} to the domain F_{q^n}.

    Produces the MRD (nt, n, q; n-iota) punctured code, its vanishing-at-1
    subspace U in coordinates over the basis f_{j,i}: x -> xi^i x^{q^j}
    (j-major), and the ordinary dual of U, which must coincide with the
    direct sum of t copies of {(y, y^{q^{n-1}}, ..., y^{q^{n-iota}})}.
    """
    if tower.n != n or tower.n * tower.t != nt:
        raise ParamMismatch("tower degrees do not match (nt, n)")
    if not 0 < it < n:
        raise InvalidParams("need 0 < iota < n")
    t = tower.t
    base, top = tower.base, tower.top
    r = t * (it + 1)
    mid_basis = base_basis_codes(tower, "mid")
    xi = top.gen if t > 1 else 1
    # F_n-basis f_{j,i}, ordered j-major as in the coordinate display
    fji: list[Mat] = []
    for j in range(it + 1):
        for i in range(t):
            scal = top.pow(xi, i)
            cols = [tower.top_to_base_vec(top.mul(scal, tower.frob("mid", b, j)))
                    for b in mid_basis]
            fji.append(Mat.from_rows(base, cols, nt).transpose())
    gens = []
    for f in fji:
        for j in range(n):
            gens.append(mat_mul(f, mult_matrix(tower, mid_basis[j])).data)
    code = RankCode.from_generators(base, nt, n, gens)
    if code.dim != nt * (it + 1):
        raise InternalInvariantError("restricted generators were dependent")
    U = _vanishing_subspace(code, tower, fji, _power_mult_mats(tower))
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


def _basis_mats(code: RankCode) -> list[Mat]:
    return [Mat.from_rows(code.field, [list(rw) for rw in M], code.n)
            for M in code.basis_matrices()]


def _power_mult_mats(tower: FieldTower) -> list[Mat]:
    """Multiplication by g^j on F_{q^n} over F_q, for j = 0..n-1."""
    mid, n = tower.mid, tower.n
    return [mult_matrix(tower, mid.pow(mid.gen if n > 1 else 1, j)) for j in range(n)]


def _vanishing_subspace(code: RankCode, tower: FieldTower, fn_basis: list[Mat],
                        mult_mats: list[Mat]) -> FqSubspace:
    """The codewords f with f(1) = 0, in coordinates over the right
    F_{q^n}-basis fn_basis of the code: f(1) is the first column in canonical
    coordinates, and f = Σ_i fn_basis[i]·Σ_j ξ_ij·mult_mats[j] is solved for
    the mid-coordinate vector ξ."""
    base, n = tower.base, tower.n
    col_matrix = Mat.from_rows(base, [[row[0] for row in M] for M in code.basis_matrices()],
                               code.m).transpose()
    coeff_mat = Mat.from_rows(base, [list(v) for v in code.flat.rows], code.m * n)
    phi_cols = [[x for row in mat_mul(f, mult).data for x in row]
                for f in fn_basis for mult in mult_mats]
    Phi = Mat.from_rows(base, phi_cols, code.m * n).transpose()
    u_vectors = []
    for v in kernel(col_matrix).rows:
        xi = solve_right(Phi, vec_mat(list(v), coeff_mat))
        if xi is None:
            raise InternalInvariantError("U does not lie in the coordinate image")
        u_vectors.append(unflatten_vec(tower, xi))
    return FqSubspace.from_mid_vectors(tower, len(fn_basis), u_vectors)


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
        for b in base_basis_codes(tower, "mid"):
            vec = [0] * r
            for j in range(h + 1):
                vec[cidx * (h + 1) + j] = tower.frob("mid", b, j)
            vecs.append(tuple(vec))
    return FqSubspace.from_mid_vectors(tower, r, vecs)


@dataclass
class SearchResult:
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
    h-dimensional F_{q^n}-subspaces (subspaces.excess_iter; for h = 1 this is
    the sum of w(P) - 1 over the points of L_U), plus a spanning penalty;
    replacement moves on single basis vectors are accepted when the score
    does not increase, with deterministic restarts.  Any returned witness is
    re-verified with is_h_scattered before being reported.  max_evals is the
    reproducible budget; time_budget (seconds) is an optional extra stop.
    """
    import time

    n = tower.n
    if k * (h + 1) > r * n:
        raise InvalidParams("k exceeds the rn/(h+1) bound")
    if k == 0:
        # the zero subspace never spans, so it is never h-scattered
        return SearchResult(False, None, 0, seed)
    rng = random.Random(seed)
    rn = r * n
    order = tower.base.order

    def score(U: FqSubspace) -> int:
        s = 0 if U.spans_ambient() else rn
        return s + sum(excess_iter(U, h, budget=budget))

    deadline = None if time_budget is None else time.monotonic() + time_budget
    evals = 0
    best = random_subspace(tower, r, k, rng)
    best_score = score(best)
    evals += 1
    stall = 0
    while evals < max_evals and (deadline is None or time.monotonic() < deadline):
        if best_score == 0:
            if not is_h_scattered(best, h, budget=budget):
                return SearchResult(False, None, evals, seed)
            return SearchResult(True, best, evals, seed)
        if stall > 5 * k:
            best = random_subspace(tower, r, k, rng)
            best_score = score(best)
            evals += 1
            stall = 0
            continue
        rows = [list(v) for v in best.flat.rows]
        idx = rng.randrange(k)
        rows[idx] = [rng.randrange(order) for _ in range(rn)]
        cand = FqSubspace.from_flat(tower, r, rows)
        if cand.k != k:
            stall += 1
            continue
        cand_score = score(cand)
        evals += 1
        if cand_score <= best_score:
            if cand_score < best_score:
                stall = 0
            best, best_score = cand, cand_score
        else:
            stall += 1
    if best_score == 0 and is_h_scattered(best, h, budget=budget):
        return SearchResult(True, best, evals, seed)
    return SearchResult(False, None, evals, seed)
