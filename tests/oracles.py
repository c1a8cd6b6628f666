"""Formulas that ranklab replaced with faster ones, kept as test oracles.

The flat picture of a mid vector over F_q is its base-q digits, coordinate
after coordinate (flatten_vec, unflatten_vec); FqSubspace stores and reads
these digits through fqlinalg.store_digits and fqlinalg.digit_rows.  The
ordinary dual is the null space of U's flat rows times D = blockdiag(T),
T the Gram matrix of the trace form (gram_dual); ordinary_dual reads it off
U's RREF instead, as U^⊥·D⁻¹."""

from ranklab.fqlinalg import Mat, SubspaceBasis, kernel, vec_mat


def flatten_vec(tower, v) -> list[int]:
    """A mid vector's base-field codes (length r*n): the n base-q digits of
    each coordinate over (1, g, ..., g^{n-1}), in turn."""
    return [x for c in v for x in tower.mid_to_base_vec(c)]


def unflatten_vec(tower, row) -> tuple[int, ...]:
    """flatten_vec inverted."""
    n = tower.n
    return tuple(tower.base_vec_to_mid(row[i:i + n]) for i in range(0, len(row), n))


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
