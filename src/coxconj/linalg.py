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


def solve(columns, target):
    """Solve sum_j c_j * columns[j] == target exactly; None if inconsistent.

    Returns the coefficient tuple for the unique solution on the span (the
    columns are assumed linearly independent).
    """
    n = len(columns)
    if n == 0:
        return () if is_zero_vec(target) else None
    m = len(target)
    rows = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(target[i])]
            for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            raise VerificationFailed("dependent columns in solve()")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = rows[i][n]
    return tuple(sol)


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


def affine_fixed_space(A, b, dim):
    """Solve A x + b == x; returns (point, direction basis) or None.

    A is a tuple of row tuples acting on column vectors, b a vector.
    """
    rows = [[A[i][j] - (1 if i == j else 0) for j in range(dim)] + [-b[i]]
            for i in range(dim)]
    rows = [[Fraction(x) for x in row] for row in rows]
    piv = []
    r = 0
    for c in range(dim):
        p = next((i for i in range(r, dim) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    for i in range(r, dim):
        if rows[i][dim] != 0:
            return None
    point = [Fraction(0)] * dim
    for i, c in enumerate(piv):
        point[c] = rows[i][dim]
    free = [c for c in range(dim) if c not in piv]
    dirs = []
    for fc in free:
        d = [Fraction(0)] * dim
        d[fc] = Fraction(1)
        for i, c in enumerate(piv):
            d[c] = -rows[i][fc]
        dirs.append(tuple(d))
    return tuple(point), tuple(dirs)
