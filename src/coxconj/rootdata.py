"""Rational realisations of the finite crystallographic root systems.

Simple roots follow the Bourbaki plates (types A through G), with exact
Fraction coordinates in a standard ambient space.  Everything downstream
(highest roots, marks, coweights, alcove walks, translation-induced diagram
automorphisms of the extended diagram) is derived from these tables, so the
numbering conventions are fixed in exactly one place.
"""

import functools
from fractions import Fraction

from .errors import NotAffine, VerificationFailed
from .linalg import dot, gram_solve, solve, vadd, vscale, vsub

F0 = Fraction(0)
F1 = Fraction(1)
FH = Fraction(1, 2)


def _e(i, dim):
    return tuple(F1 if j == i else F0 for j in range(dim))


def _simple_roots(letter, n):
    if letter == "A":
        dim = n + 1
        return tuple(vsub(_e(i, dim), _e(i + 1, dim)) for i in range(n))
    if letter == "B":
        return tuple(vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)) + (_e(n - 1, n),)
    if letter == "C":
        return tuple(vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)) + (
            vscale(2, _e(n - 1, n)),)
    if letter == "D":
        return tuple(vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)) + (
            vadd(_e(n - 2, n), _e(n - 1, n)),)
    if letter == "E":
        a1 = tuple([FH, -FH, -FH, -FH, -FH, -FH, -FH, FH])
        a2 = vadd(_e(0, 8), _e(1, 8))
        # alpha_3 = e2-e1, alpha_4 = e3-e2, ..., alpha_8 = e7-e6
        chain = [vsub(_e(i + 1, 8), _e(i, 8)) for i in range(6)]
        return tuple([a1, a2] + chain)[:n]
    if letter == "F":
        return (
            vsub(_e(1, 4), _e(2, 4)),
            vsub(_e(2, 4), _e(3, 4)),
            _e(3, 4),
            tuple([FH, -FH, -FH, -FH]),
        )
    if letter == "G":
        return (
            vsub(_e(0, 3), _e(1, 3)),
            vadd(vscale(-2, _e(0, 3)), vadd(_e(1, 3), _e(2, 3))),
        )
    raise ValueError("unknown crystallographic letter %r" % letter)


def coroot(alpha):
    return vscale(Fraction(2) / dot(alpha, alpha), alpha)


class FiniteRootSystem:
    """An irreducible crystallographic root system with exact coordinates,
    given by its simple roots."""

    def __init__(self, simple):
        self.simple = tuple(simple)
        self.rank = len(self.simple)
        self.dim = len(self.simple[0])
        self._positive = None
        self._theta = None
        self._marks = None
        self._coweights = None

    def reflect(self, v, alpha):
        return vsub(v, vscale(dot(v, alpha), coroot(alpha)))

    def cartan(self, i, j):
        """Integer <alpha_i^vee, alpha_j>."""
        x = dot(coroot(self.simple[i]), self.simple[j])
        if x.denominator != 1:
            raise VerificationFailed("non-integral Cartan entry")
        return int(x)

    def positive_roots(self):
        if self._positive is None:
            seen = set(self.simple)
            frontier = list(self.simple)
            while frontier:
                nxt = []
                for beta in frontier:
                    for alpha in self.simple:
                        g = self.reflect(beta, alpha)
                        if g not in seen and self.root_height(g) > 0:
                            seen.add(g)
                            nxt.append(g)
                frontier = nxt
            self._positive = tuple(sorted(seen))
        return self._positive

    def root_coords(self, beta):
        """Coefficients of beta in the simple-root basis (or None)."""
        return solve(self.simple, beta)

    def root_height(self, beta):
        c = self.root_coords(beta)
        return sum(c)

    def highest_root(self):
        if self._theta is None:
            self._theta = max(self.positive_roots(), key=self.root_height)
        return self._theta

    def marks(self):
        """Coefficients of the highest root in the simple basis (integers)."""
        if self._marks is None:
            c = self.root_coords(self.highest_root())
            self._marks = tuple(int(x) for x in c)
        return self._marks

    def fundamental_coweights(self):
        """Vectors w_j in span(simple) with <w_j, alpha_i> = delta_ij."""
        if self._coweights is None:
            out = []
            for j in range(self.rank):
                coeffs = gram_solve(
                    self.simple,
                    [F1 if i == j else F0 for i in range(self.rank)])
                v = tuple(F0 for _ in range(self.dim))
                for c, b in zip(coeffs, self.simple):
                    v = vadd(v, vscale(c, b))
                out.append(v)
            self._coweights = tuple(out)
        return self._coweights

    def special_nodes(self):
        """Kac indices (0..rank) of the special vertices of X^(1)."""
        return (0,) + tuple(j + 1 for j, m in enumerate(self.marks()) if m == 1)

    # affine geometry -----------------------------------------------------

    def alcove_vertices(self):
        """Vertices x_0..x_l of the fundamental alcove, x_j = w_j/mark_j."""
        verts = [tuple(F0 for _ in range(self.dim))]
        marks = self.marks()
        for j, w in enumerate(self.fundamental_coweights()):
            verts.append(vscale(Fraction(1, marks[j]), w))
        return tuple(verts)

    def affine_walk(self, point):
        """Walk a point into the closed fundamental alcove.

        Returns (letters, final) where letters are Kac indices of the affine
        simple reflections applied, in application order.
        """
        theta = self.highest_root()
        letters = []
        q = point
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                raise VerificationFailed("affine walk did not terminate")
            moved = False
            for i, alpha in enumerate(self.simple):
                c = dot(q, alpha)
                if c < 0:
                    q = vsub(q, vscale(c, coroot(alpha)))
                    letters.append(i + 1)
                    moved = True
                    break
            if moved:
                continue
            c = dot(q, theta)
            if c > 1:
                q = vsub(q, vscale(c - 1, coroot(theta)))
                letters.append(0)
                continue
            return letters, q

    def translation_perm(self, lam):
        """Diagram automorphism of the affine diagram induced by t_lam.

        lam must pair integrally with every root.  Returns a dict on Kac
        indices 0..rank, or raises if lam is not a coweight.
        """
        for alpha in self.simple:
            if dot(lam, alpha).denominator != 1:
                raise NotAffine("vector is not in the coweight lattice")
        verts = self.alcove_vertices()
        bary = tuple(sum(xs, F0) / len(verts) for xs in zip(*verts))
        letters, _ = self.affine_walk(vadd(bary, lam))
        theta = self.highest_root()

        def apply_walk(p):
            for i in letters:
                if i == 0:
                    c = dot(p, theta)
                    p = vsub(p, vscale(c - 1, coroot(theta)))
                else:
                    alpha = self.simple[i - 1]
                    p = vsub(p, vscale(dot(p, alpha), coroot(alpha)))
            return p

        perm = {}
        for i, x in enumerate(verts):
            img = apply_walk(vadd(x, lam))
            try:
                perm[i] = verts.index(img)
            except ValueError:
                raise VerificationFailed("translation does not permute alcove "
                                         "vertices")
        if sorted(perm.values()) != list(range(len(verts))):
            raise VerificationFailed("translation image is not a permutation")
        return perm

    def coweight_class_vertex(self, lam):
        """Special Kac vertex whose coweight class matches lam mod coroots.

        Returns j such that lam is congruent to the vertex x_j (a special
        vertex, x_0 = 0) modulo the coroot lattice.
        """
        coroots = tuple(coroot(a) for a in self.simple)
        verts = self.alcove_vertices()
        for j in self.special_nodes():
            c = solve(coroots, vsub(lam, verts[j]))
            if c is not None and all(x.denominator == 1 for x in c):
                return j
        raise VerificationFailed("coweight falls in no special class")


@functools.lru_cache(maxsize=None)
def finite_root_system(letter, rank):
    """The root system of type letter_rank in the Bourbaki realisation."""
    return FiniteRootSystem(_simple_roots(letter, rank))


@functools.lru_cache(maxsize=None)
def embedded_root_system(simple):
    """The root system spanned by the given simple roots (a tuple), which
    may lie in a larger ambient space, e.g. a parabolic subsystem."""
    return FiniteRootSystem(simple)


POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
    "H": lambda n: {2: 5, 3: 15, 4: 60}[n],
}


def positive_root_count(family, rank, label=None):
    if family == "I2":
        return label
    return POSITIVE_ROOT_COUNT[family](rank)
