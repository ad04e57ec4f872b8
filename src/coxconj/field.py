"""Exact arithmetic in the real cyclotomic rings Z[2cos(pi/L)].

Every entry of the reflection representation of a Coxeter group with finite
off-diagonal labels m lies in the ring generated by the numbers
c_m = 2cos(pi/m) (with c_infinity := 2).  All of these live in the single
ring Z[w] with w = 2cos(pi/L), L the lcm of the finite labels, because
2cos(k*pi/L) is a Dickson polynomial in w.  Scalars are stored as integer
coordinate tuples in the power basis 1, w, ..., w^(d-1); no denominators
ever appear, so equality is exact and cheap.

Sign determination refines a rational interval enclosure of w by bisection
of its minimal polynomial until the enclosure of the evaluated scalar
excludes zero; exact zero testing happens first.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .errors import VerificationFailed

_SIGN_ITER_CAP = 20000


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divexact(p, q):
    """Exact division of integer polynomials (remainder must vanish)."""
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = p[i + len(q) - 1]
        if c % q[-1] != 0:
            raise VerificationFailed("non-exact polynomial division")
        c //= q[-1]
        out[i] = c
        if c:
            for j, b in enumerate(q):
                p[i + j] -= c * b
    if any(p):
        raise VerificationFailed("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = _poly_divexact(p, cyclotomic_polynomial(d))
    return tuple(_poly_trim(p))


@lru_cache(maxsize=None)
def minpoly_2cos(L):
    """Minimal polynomial over Q of 2cos(pi/L), monic, ascending, L >= 3.

    Uses Phi_{2L}(z) = z^d Psi(z + 1/z) with d = phi(2L)/2 and the Dickson
    basis z^k + z^-k = D_k(z + 1/z).
    """
    n = 2 * L
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    assert deg % 2 == 0
    d = deg // 2
    # Dickson polynomials D_0..D_d.
    dick = [[2], [0, 1]]
    for k in range(2, d + 1):
        prev, prev2 = dick[k - 1], dick[k - 2]
        nxt = [0] + list(prev)
        for i, c in enumerate(prev2):
            nxt[i] -= c
        dick.append(_poly_trim(nxt))
    # Phi is palindromic for n > 2: phi[d+k] == phi[d-k], so
    # Phi(z)/z^d = phi[d] + sum_k phi[d+k] (z^k + z^-k).
    poly = [phi[d]]
    for k in range(1, d + 1):
        term = [phi[d + k] * c for c in dick[k]]
        m = max(len(poly), len(term))
        poly = [
            (poly[i] if i < len(poly) else 0) + (term[i] if i < len(term) else 0)
            for i in range(m)
        ]
    poly = _poly_trim(poly)
    assert poly[-1] == 1, "minimal polynomial must be monic"
    return tuple(poly)


def _poly_eval_fraction(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


class RationalScalars:
    """Degree-1 scalar ring: plain Python integers."""

    degree = 1

    def __init__(self, L):
        self.L = L

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def sign(self, a):
        return (a > 0) - (a < 0)

    def to_float(self, a):
        return float(a)

    def two_cos_pi_over(self, m):
        # only labels with rational 2cos(pi/m): m in {1, 2, 3} and infinity
        if m == 0:
            return 2
        if m == 1:
            return -2
        if m == 2:
            return 0
        if m == 3:
            return 1
        raise ValueError("label %r not rational" % (m,))


class CyclotomicScalars:
    """Scalars as integer tuples in the power basis of Z[2cos(pi/L)]."""

    def __init__(self, L):
        self.L = L
        self.minpoly = minpoly_2cos(L)
        self.degree = len(self.minpoly) - 1
        d = self.degree
        # reduction rows for w^d .. w^(2d-2)
        rows = []
        cur = [-c for c in self.minpoly[:-1]]
        rows.append(tuple(cur))
        for _ in range(d - 2):
            shifted = [0] + cur[:-1]
            top = cur[-1]
            cur = [shifted[i] + top * rows[0][i] for i in range(d)]
            rows.append(tuple(cur))
        self._red = rows
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        self._enclosure = self._initial_enclosure()

    def _initial_enclosure(self):
        x = 2.0 * math.cos(math.pi / self.L)
        den = 1 << 42
        lo = Fraction(int(math.floor(x * den)) - 4, den)
        hi = Fraction(int(math.ceil(x * den)) + 4, den)
        plo = _poly_eval_fraction(self.minpoly, lo)
        phi = _poly_eval_fraction(self.minpoly, hi)
        if plo == 0 or phi == 0 or (plo > 0) == (phi > 0):
            raise VerificationFailed("failed to isolate 2cos(pi/%d)" % self.L)
        return (lo, hi)

    def _refine(self):
        lo, hi = self._enclosure
        mid = (lo + hi) / 2
        pm = _poly_eval_fraction(self.minpoly, mid)
        if pm == 0:
            # mid is rational root: cannot happen for degree > 1 minimal poly
            raise VerificationFailed("rational root of irreducible polynomial")
        plo = _poly_eval_fraction(self.minpoly, lo)
        if (plo > 0) != (pm > 0):
            self._enclosure = (lo, mid)
        else:
            self._enclosure = (mid, hi)

    def from_int(self, n):
        return (n,) + (0,) * (self.degree - 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = self._red[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return tuple(out)

    def is_zero(self, a):
        return not any(a)

    def sign(self, a):
        if not any(a):
            return 0
        for _ in range(_SIGN_ITER_CAP):
            lo, hi = self._enclosure
            vlo, vhi = self._interval_eval(a, lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            self._refine()
        raise VerificationFailed("sign determination did not converge")

    def _interval_eval(self, a, lo, hi):
        # Horner with interval arithmetic; coefficients are ints.
        vlo = Fraction(a[-1])
        vhi = Fraction(a[-1])
        for c in reversed(a[:-1]):
            cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(cands) + c, max(cands) + c
        return vlo, vhi

    def to_float(self, a):
        w = 2.0 * math.cos(math.pi / self.L)
        acc = 0.0
        for c in reversed(a):
            acc = acc * w + c
        return acc

    def two_cos_pi_over(self, m):
        """Coordinates of 2cos(pi/m) = D_{L/m}(w); m = 0 encodes infinity."""
        if m == 0:
            return self.from_int(2)
        if self.L % m != 0:
            raise ValueError("label %d does not divide L=%d" % (m, self.L))
        k = self.L // m
        # D_0 = 2, D_1 = w, D_{n+1} = w*D_n - D_{n-1}
        prev2 = self.from_int(2)
        if k == 0:
            return prev2
        w = (0, 1) + (0,) * (self.degree - 2) if self.degree >= 2 else None
        prev = w if w is not None else self.from_int(0)
        if k == 1:
            return prev
        for _ in range(k - 1):
            prev, prev2 = self.sub(self.mul(prev, w), prev2), prev
        return prev


def scalar_field(labels):
    """Field of scalars for a collection of finite Coxeter labels (>= 3).

    Labels equal to 0 encode infinity and impose nothing; labels 2 are
    rational.  Returns RationalScalars when everything is rational.
    """
    ls = sorted({m for m in labels if m not in (0, 1, 2, 3)})
    if not ls:
        return RationalScalars(3)
    L = 1
    for m in {m for m in labels if m not in (0, 1, 2)}:
        L = L * m // math.gcd(L, m)
    return CyclotomicScalars(L)
