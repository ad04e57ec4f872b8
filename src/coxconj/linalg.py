"""Small exact linear algebra helpers over Fraction vectors (tuples)."""

from fractions import Fraction

from .errors import VerificationFailed


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero_vec(a):
    return all(x == 0 for x in a)


def _eliminate(rows, ncols):
    """Gauss-Jordan elimination of augmented rows, coefficients in the first
    ncols entries and the right-hand side last.

    Returns (pivot columns, particular solution or None when the system is
    inconsistent, reduced rows); row i of the reduced rows carries the
    pivot of the i-th pivot column.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    piv = []
    for c in range(ncols):
        r = len(piv)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
    if any(row[ncols] != 0 for row in rows[len(piv):]):
        return piv, None, rows
    point = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        point[c] = rows[i][ncols]
    return piv, tuple(point), rows


def solve(columns, target):
    """Solve sum_j c_j * columns[j] == target exactly; None if inconsistent.

    Returns the coefficient tuple of the unique solution; raises
    VerificationFailed when the columns are linearly dependent.
    """
    n = len(columns)
    piv, sol, _ = _eliminate(
        [[col[i] for col in columns] + [t] for i, t in enumerate(target)], n)
    if len(piv) < n:
        raise VerificationFailed("dependent columns in solve()")
    return sol


def gram_solve(basis, pairings):
    """Coefficients c with dot(sum c_j basis_j, basis_i) == pairings[i]."""
    n = len(basis)
    gram = [tuple(dot(basis[i], basis[j]) for j in range(n)) for i in range(n)]
    cols = [tuple(gram[i][j] for i in range(n)) for j in range(n)]
    return solve(cols, tuple(pairings))


def orthogonal_projection(basis, v):
    """Orthogonal projection of v onto span(basis), basis independent."""
    if not basis:
        return tuple(Fraction(0) for _ in v)
    coeffs = gram_solve(basis, [dot(v, b) for b in basis])
    out = tuple(Fraction(0) for _ in v)
    for c, b in zip(coeffs, basis):
        out = vadd(out, vscale(c, b))
    return out


def affine_fixed_space(maps, dim):
    """Common fixed space of the affine maps x -> A x + b in maps.

    Each A is a tuple of row tuples acting on column vectors.  Returns
    (point, direction basis), or None when the maps fix no common point.
    """
    rows = [[A[i][j] - (1 if i == j else 0) for j in range(dim)] + [-b[i]]
            for A, b in maps for i in range(dim)]
    piv, point, rows = _eliminate(rows, dim)
    if point is None:
        return None
    dirs = []
    for fc in range(dim):
        if fc in piv:
            continue
        d = [Fraction(0)] * dim
        d[fc] = Fraction(1)
        for i, c in enumerate(piv):
            d[c] = -rows[i][fc]
        dirs.append(tuple(d))
    return point, tuple(dirs)
