"""Formulas that ranklab replaced with faster ones, kept as test oracles.

A code's base-q digits are c // q^j % q (code_digits), and digits d_j give
back the code Σ d_j·q^j (digits_code); fields.DigitCodec is the one
bijection ranklab keeps between a code and its stored block of digits.
The flat picture of a mid vector over F_q is its base-q digits, coordinate
after coordinate (flatten_vec, unflatten_vec); FqSubspace stores and reads
these digits through fqlinalg.store_digits and fqlinalg.digit_rows.  The
powers I, M, M^2, ... of a matrix are one mat_mul each (mat_mul_powers);
fqlinalg.matrix_powers builds them as stored rows.  The ordinary dual is
the null space of U's flat rows times D = blockdiag(T), T the Gram matrix
of the trace form (gram_dual); ordinary_dual reads it off U's RREF instead,
as U^⊥·D⁻¹.  The multiplication x -> αx of F_{q^n} is the matrix of a
one-term linearized polynomial (mult_matrix); the converse
constructions.mrd_to_subspace reads the right F_{q^n}-structure of a code
off its idealiser generator's powers instead."""

from ranklab.constructions import LinearizedPoly
from ranklab.fqlinalg import Mat, SubspaceBasis, kernel, mat_mul, vec_mat


def code_digits(c: int, q: int, deg: int) -> list[int]:
    """The deg base-q digits of c, least significant first."""
    return [c // q**j % q for j in range(deg)]


def digits_code(digits, q: int) -> int:
    """The code whose base-q digits, least significant first, are digits."""
    return sum(d * q**j for j, d in enumerate(digits))


def base_vec_to_mid(tower, v) -> int:
    """The mid code with coordinates v over (1, g, ..., g^{n-1})."""
    return digits_code(v, tower.q)


def mult_matrix(tower, alpha: int) -> Mat:
    """Matrix of x -> alpha*x on F_{q^n} w.r.t. the canonical basis (columns)."""
    return LinearizedPoly(tower, "mid", (alpha,)).to_matrix()


def mat_mul_powers(M, count: int) -> list:
    """I, M, ..., M^{count-1}, each power one mat_mul of the one before."""
    P, powers = Mat.identity(M.field, M.rows), []
    for _ in range(count):
        powers.append(P)
        P = mat_mul(P, M)
    return powers


def flatten_vec(tower, v) -> list[int]:
    """A mid vector's base-field codes (length r*n): the n base-q digits of
    each coordinate over (1, g, ..., g^{n-1}), in turn."""
    return [x for c in v for x in tower.mid_to_base_vec(c)]


def unflatten_vec(tower, row) -> tuple[int, ...]:
    """flatten_vec inverted."""
    n = tower.n
    return tuple(base_vec_to_mid(tower, row[i:i + n]) for i in range(0, len(row), n))


def trace_gram(tower) -> Mat:
    """T[j][l] = Tr_{q^n/q}(g^{j+l}), entry by entry."""
    mid, n = tower.mid, tower.n
    g = mid.gen if n > 1 else 1
    return Mat.from_rows(tower.base, [[tower.trace_to_base("mid", mid.pow(g, j + l))
                                       for l in range(n)] for j in range(n)], n)


def gram_dual(U) -> SubspaceBasis:
    """The flat basis of U^⊥' as the null space of the rows u·D, each
    n-block of u times T by vec_mat."""
    tower, r, n = U.tower, U.r, U.tower.n
    T = trace_gram(tower)
    rows = [[x for i in range(0, r * n, n) for x in vec_mat(u[i:i + n], T)]
            for u in U.flat.rows]
    return kernel(Mat.from_rows(tower.base, rows, r * n))
