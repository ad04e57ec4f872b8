"""Coxeter matrices, diagrams, type recognition and diagram automorphisms.

Conventions
-----------
* A Coxeter matrix entry of 0 encodes the label infinity; the diagonal is 1.
* Finite types carry the Bourbaki numbering, untwisted affine types the Kac
  numbering with the extension vertex 0; both are realised as reference
  matrices generated from the root-system tables in ``rootdata``.
* A type tag records a vertex correspondence: ``correspondence[k]`` is the
  generator index playing reference vertex ``k`` (1..n finite as positions
  0..n-1, 0..l affine as positions 0..l).  When several correspondences
  exist the lexicographically smallest is chosen.
"""

import functools
import json

from .errors import NonSpherical, NotAffine, UnsupportedShape
from .rootdata import finite_root_system, positive_root_count

INF = 0  # matrix entry encoding the label infinity


INTERN_CAP = 32  # systems kept by CoxeterSystem.interned, least recent out
_INTERNED = {}  # (matrix, generator names) -> CoxeterSystem, oldest first


def per_subset(fn):
    """Keep fn(sys, K, ...) on sys per subset K (default: all of S); the
    other arguments must follow from K."""
    @functools.wraps(fn)
    def cached_fn(sys, K=None, *rest):
        K = sys.full if K is None else frozenset(K)
        return sys.cached((fn.__name__, K), lambda: fn(sys, K, *rest))
    return cached_fn


class CoxeterSystem:
    """A Coxeter system given by its matrix.  It must not be mutated: one
    interned instance and its cached data serve every request of a process."""

    def __init__(self, matrix, names=None):
        n = len(matrix) if isinstance(matrix, (list, tuple)) else -1
        if n < 0 or not all(
                isinstance(row, (list, tuple)) and len(row) == n
                and all(type(x) is int for x in row) for row in matrix):
            raise UnsupportedShape("the Coxeter matrix must be a square "
                                   "matrix of integers")
        matrix = tuple(tuple(row) for row in matrix)
        for i in range(n):
            if matrix[i][i] != 1:
                raise UnsupportedShape("diagonal entries must be 1")
            for j in range(n):
                if matrix[i][j] != matrix[j][i]:
                    raise UnsupportedShape("Coxeter matrix must be symmetric")
                if i != j and matrix[i][j] != INF and matrix[i][j] < 2:
                    raise UnsupportedShape(
                        "off-diagonal entries must be 0 (infinity) or >= 2")
        if names is None:
            names = ["s%d" % i for i in range(n)]
        if not (isinstance(names, (list, tuple)) and len(names) == n
                and all(isinstance(x, str) for x in names)
                and len(set(names)) == n):
            raise UnsupportedShape("names must be %d distinct strings" % n)
        self.rank = n
        self.matrix = matrix
        self.generator_names = tuple(names)
        self.full = frozenset(range(n))
        self._cache = {}

    @classmethod
    def interned(cls, matrix, names=None):
        """The process-wide system for (matrix, names), checked before the
        lookup, so that a malformed system is refused and never kept."""
        fresh = cls(matrix, names)
        key = (fresh.matrix, fresh.generator_names)
        sys = _INTERNED.pop(key, fresh)
        _INTERNED[key] = sys
        if len(_INTERNED) > INTERN_CAP:
            del _INTERNED[next(iter(_INTERNED))]
        return sys

    def cached(self, key, build):
        """build(), computed once per system and kept under key."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def m(self, i, j):
        return self.matrix[i][j]

    def adjacent(self, i, j):
        return i != j and self.matrix[i][j] != 2

    def neighbours(self, i):
        return self.cached(("nb", i), lambda: tuple(
            j for j in range(self.rank) if self.adjacent(i, j)))

    def name_of(self, i):
        return self.generator_names[i]

    def __repr__(self):
        return "CoxeterSystem(rank=%d)" % self.rank

    @classmethod
    def from_json(cls, text):
        """Parse {"rank": n, "matrix": [[..]], "names": [..]}, 0 = infinity,
        into the interned system."""
        data = json.loads(text)
        if not isinstance(data, dict) or "matrix" not in data:
            raise UnsupportedShape('a system must be a JSON object with a '
                                   '"matrix"')
        matrix = data["matrix"]
        if (isinstance(matrix, list) and "rank" in data
                and data["rank"] != len(matrix)):
            raise UnsupportedShape("rank disagrees with matrix size")
        return cls.interned(matrix, data.get("names"))


class TypeTag:
    """Classification of one irreducible component."""

    __slots__ = ("kind", "family", "rank", "label", "correspondence", "special")

    def __init__(self, kind, family=None, rank=None, label=None,
                 correspondence=None, special=()):
        self.kind = kind            # "finite" | "affine" | "indefinite"
        self.family = family        # "A".."G", "H", "I2"
        self.rank = rank            # n for X_n, l for X_l^(1)
        self.label = label          # m for I2(m)
        self.correspondence = correspondence
        self.special = tuple(special)  # reference indices of special vertices

    @property
    def symbol(self):
        if self.kind == "indefinite":
            return "Indefinite"
        if self.family == "I2":
            base = "I2(%d)" % self.label
        else:
            base = "%s%d" % (self.family, self.rank)
        return base + ("(1)" if self.kind == "affine" else "")

    def __repr__(self):
        return "TypeTag(%s)" % self.symbol

    def __eq__(self, other):
        return (isinstance(other, TypeTag)
                and (self.kind, self.family, self.rank, self.label)
                == (other.kind, other.family, other.rank, other.label))

    def __hash__(self):
        return hash((self.kind, self.family, self.rank, self.label))


class DiagramAutomorphism:
    """A permutation of generator indices preserving the Coxeter matrix."""

    __slots__ = ("mapping", "domain", "_key")

    def __init__(self, mapping):
        self.mapping = dict(mapping)
        self.domain = frozenset(self.mapping)
        if set(self.mapping.values()) != set(self.domain):
            raise UnsupportedShape("not a permutation")
        self._key = tuple(sorted(self.mapping.items()))

    @classmethod
    def identity(cls, domain):
        return cls({i: i for i in domain})

    def __call__(self, i):
        return self.mapping[i]

    def apply_set(self, s):
        return frozenset(self.mapping[i] for i in s)

    def compose(self, other):
        """self after other (self(other(x)))."""
        return DiagramAutomorphism(
            {i: self.mapping[other.mapping[i]] for i in other.mapping})

    def inverse(self):
        return DiagramAutomorphism({v: k for k, v in self.mapping.items()})

    def is_identity(self):
        return all(k == v for k, v in self.mapping.items())

    def power(self, k):
        out = DiagramAutomorphism.identity(self.domain)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = base.compose(out)
        return out

    def stabilises(self, s):
        return self.apply_set(s) == frozenset(s)

    def invariant_closure(self, s):
        """The smallest invariant set containing s."""
        s = frozenset(s)
        while True:
            s2 = s | self.apply_set(s)
            if s2 == s:
                return s
            s = s2

    def __eq__(self, other):
        return isinstance(other, DiagramAutomorphism) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        cycles = []
        seen = set()
        for i in sorted(self.mapping):
            if i in seen or self.mapping[i] == i:
                continue
            cyc = [i]
            j = self.mapping[i]
            while j != i:
                cyc.append(j)
                j = self.mapping[j]
            seen.update(cyc)
            cycles.append("(" + ",".join(map(str, cyc)) + ")")
        return "DiagramAutomorphism(%s)" % ("".join(cycles) or "id")


def check_diagram_automorphism(sys, perm):
    for i in perm.domain:
        for j in perm.domain:
            if sys.m(i, j) != sys.m(perm(i), perm(j)):
                raise UnsupportedShape("permutation does not preserve labels")
    return perm


# ---------------------------------------------------------------------------
# components and reference diagrams


def components(sys, I):
    """Connected components of the induced diagram, by smallest index."""
    I = frozenset(I)
    remaining = set(I)
    out = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for u in sys.neighbours(v):
                if u in remaining and u not in comp:
                    comp.add(u)
                    frontier.append(u)
        remaining -= comp
        out.append(frozenset(comp))
    out.sort(key=min)
    return out


def _finite_reference_matrix(family, rank, label=None):
    """Coxeter matrix of the reference finite diagram, vertices 0..rank-1."""
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1

    def edge(i, j, lab=3):
        m[i][j] = m[j][i] = lab

    if family == "A":
        for i in range(rank - 1):
            edge(i, i + 1)
    elif family in ("B", "C"):
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, 4)
    elif family == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][:rank - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif family == "F":
        edge(0, 1), edge(1, 2, 4), edge(2, 3)
    elif family == "G":
        edge(0, 1, 6)
    elif family == "H":
        edge(0, 1, 5)
        for i in range(1, rank - 1):
            edge(i, i + 1)
    elif family == "I2":
        edge(0, 1, label)
    else:
        raise ValueError(family)
    return tuple(tuple(r) for r in m)


def _finite_reference_op(family, rank, label=None):
    """Opposition permutation on reference vertices 0..rank-1."""
    if family == "A":
        return {i: rank - 1 - i for i in range(rank)}
    if family == "D" and rank % 2 == 1:
        p = {i: i for i in range(rank)}
        p[rank - 2], p[rank - 1] = rank - 1, rank - 2
        return p
    if family == "E" and rank == 6:
        return {0: 5, 5: 0, 2: 4, 4: 2, 1: 1, 3: 3}
    if family == "I2" and label % 2 == 1:
        return {0: 1, 1: 0}
    return {i: i for i in range(rank)}


def _affine_reference(family, rank):
    """(coxeter matrix on Kac vertices 0..rank, special vertices)."""
    if family == "A" and rank == 1:
        return ((1, INF), (INF, 1)), (0, 1)
    rs = finite_root_system(family, rank)
    theta = rs.highest_root()
    from .linalg import dot
    n = rank + 1
    m = [[2] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    simple = [None] + list(rs.simple)

    def pairing(a, b):
        x = 2 * dot(a, b) / dot(a, a)
        return int(x)

    for i in range(1, n):
        for j in range(i + 1, n):
            p = pairing(simple[i], simple[j]) * pairing(simple[j], simple[i])
            m[i][j] = m[j][i] = {0: 2, 1: 3, 2: 4, 3: 6}.get(p, INF)
    for j in range(1, n):
        p = pairing(theta, simple[j]) * pairing(simple[j], theta)
        m[0][j] = m[j][0] = {0: 2, 1: 3, 2: 4, 3: 6}.get(p, INF)
    return tuple(tuple(r) for r in m), rs.special_nodes()


def _finite_candidates(n, labels):
    """Possible finite reference types for a rank-n component."""
    out = []
    if n == 1:
        return [("A", 1, None)]
    if n == 2:
        (lab,) = labels or {3}
        if lab == 3:
            return [("A", 2, None)]
        if lab == 4:
            return [("B", 2, None)]
        if lab == 6:
            return [("G", 2, None)]
        if lab >= 5:
            return [("I2", 2, lab)]
        return []
    if labels <= {3}:
        out.append(("A", n, None))
        if n >= 4:
            out.append(("D", n, None))
        if n in (6, 7, 8):
            out.append(("E", n, None))
    if labels == {3, 4}:
        out.append(("B", n, None))
        if n == 4:
            out.append(("F", 4, None))
    if labels == {3, 5} and n in (3, 4):
        out.append(("H", n, None))
    return out


def _affine_candidates(n, labels):
    """Possible untwisted affine reference types for rank-n components."""
    out = []
    l = n - 1
    if n == 2 and labels == {INF}:
        return [("A", 1)]
    if labels <= {3}:
        if l >= 2:
            out.append(("A", l))
        if l >= 4:
            out.append(("D", l))
        if l in (6, 7, 8):
            out.append(("E", l))
    if labels == {3, 4}:
        if l >= 3:
            out.append(("B", l))
        if l >= 3:
            out.append(("C", l))
        if l == 4:
            out.append(("F", 4))
    if labels == {4} and l == 2:
        out.append(("C", 2))
    if labels == {3, 6} and l == 2:
        out.append(("G", 2))
    return out


def _match(sys, verts, ref_matrix):
    """Lexicographically least graph isomorphism ref -> verts, or None."""
    n = len(ref_matrix)
    verts = sorted(verts)
    if len(verts) != n:
        return None
    ref_deg = [sum(1 for j in range(n) if ref_matrix[i][j] not in (1, 2))
               for i in range(n)]
    deg = {v: sum(1 for u in verts if u != v and sys.m(u, v) != 2)
           for v in verts}
    assignment = [None] * n
    used = set()

    def feasible(k, v):
        if deg[v] != ref_deg[k]:
            return False
        for k2 in range(k):
            if sys.m(assignment[k2], v) != ref_matrix[k2][k]:
                return False
        return True

    def backtrack(k):
        if k == n:
            return True
        for v in verts:
            if v in used or not feasible(k, v):
                continue
            assignment[k] = v
            used.add(v)
            if backtrack(k + 1):
                return True
            used.discard(v)
            assignment[k] = None
        return False

    return tuple(assignment) if backtrack(0) else None


def classify_component(sys, comp):
    """TypeTag for one connected component of the diagram."""
    comp = frozenset(comp)
    n = len(comp)
    labels = {sys.m(i, j) for i in comp for j in comp
              if i < j and sys.m(i, j) != 2}
    for family, rank, label in _finite_candidates(n, labels):
        ref = _finite_reference_matrix(family, rank, label)
        corr = _match(sys, comp, ref)
        if corr is not None:
            return TypeTag("finite", family, rank, label, corr)
    for family, l in _affine_candidates(n, labels):
        ref, special = _affine_reference(family, l)
        corr = _match(sys, comp, ref)
        if corr is not None:
            return TypeTag("affine", family, l, None, corr, special)
    return TypeTag("indefinite", correspondence=tuple(sorted(comp)))


@per_subset
def classify(sys, I=None):
    """Classify each component of I; returns [(component, TypeTag)]."""
    return tuple(
        (comp, classify_component(sys, comp)) for comp in components(sys, I))


def is_spherical(sys, I):
    return all(tag.kind == "finite" for _, tag in classify(sys, I))


def spherical_root_count(sys, I):
    """Number of positive roots of the finite parabolic W_I."""
    total = 0
    for _, tag in classify(sys, I):
        if tag.kind != "finite":
            raise NonSpherical("subset is not spherical")
        total += positive_root_count(tag.family, tag.rank, tag.label)
    return total


@per_subset
def opposition(sys, K):
    """The diagram automorphism op_K of a spherical subset K."""
    mapping = {}
    for comp, tag in classify(sys, K):
        if tag.kind != "finite":
            raise NonSpherical("opposition needs a spherical subset")
        ref_op = _finite_reference_op(tag.family, tag.rank, tag.label)
        corr = tag.correspondence
        for k, v in ref_op.items():
            mapping[corr[k]] = corr[v]
    return check_diagram_automorphism(sys, DiagramAutomorphism(mapping))


def generate_group(gens, domain):
    """The group of permutations of domain generated by the automorphisms
    gens (a small group), sorted by mapping."""
    group = {DiagramAutomorphism.identity(domain)}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        if g in group:
            continue
        group.add(g)
        for h in list(group):
            for p in (g.compose(h), h.compose(g)):
                if p not in group:
                    frontier.append(p)
    return sorted(group, key=lambda a: a._key)


# ---------------------------------------------------------------------------
# extended affine diagram automorphisms


@per_subset
def omega_group(sys, comp, tag):
    """All elements of the extended-diagram group W~/W of one affine component.

    Derived from the coweight lattice: for each special vertex j != 0 the
    translation by the fundamental coweight w_j induces the unique element
    mapping vertex 0 to vertex j.
    """
    if tag.kind != "affine":
        raise NotAffine("component is not of affine type")
    corr = tag.correspondence
    if tag.family == "A" and tag.rank == 1:
        a, b = corr[0], corr[1]
        gens = [DiagramAutomorphism({a: b, b: a})]
    else:
        rs = finite_root_system(tag.family, tag.rank)
        gens = []
        for j in tag.special:
            if j == 0:
                continue
            perm = rs.translation_perm(rs.fundamental_coweights()[j - 1])
            gens.append(DiagramAutomorphism(
                {corr[k]: corr[v] for k, v in perm.items()}))
    group = generate_group(gens, comp)
    for g in group:
        check_diagram_automorphism(sys, g)
    return group


def extended_autgroup(sys, comp, tag):
    """Generators of W~/W for an irreducible affine component.

    The returned generators are the lattice-derived elements moving the
    extension vertex as in the classical description: one rotation for
    A_l, the special-vertex swap for B/C/E_7, a 4-cycle for D_l odd, two
    double transpositions for D_l even, a 3-cycle for E_6, nothing for
    E_8, F_4, G_2.
    """
    if tag.kind != "affine":
        raise NotAffine("extended_autgroup needs an affine component")
    group = omega_group(sys, comp, tag)
    corr = tag.correspondence
    v0 = corr[0]

    def element_sending_zero_to(j):
        target = corr[j]
        for g in group:
            if g(v0) == target:
                return g
        raise NotAffine("no extended automorphism with 0 -> %d" % j)

    fam, l = tag.family, tag.rank
    if fam == "A":
        return [element_sending_zero_to(1)]
    if fam == "B":
        return [element_sending_zero_to(1)]
    if fam == "C":
        return [element_sending_zero_to(l)]
    if fam == "D":
        if l % 2 == 1:
            return [element_sending_zero_to(l - 1)]
        return [element_sending_zero_to(1), element_sending_zero_to(l - 1)]
    if fam == "E" and l == 6:
        return [element_sending_zero_to(1)]
    if fam == "E" and l == 7:
        return [element_sending_zero_to(7)]
    return []


def sigma_s(sys, comp, tag, tau, s):
    """The extended-diagram automorphism of one component mapping tau to s.

    Identity when s is not a special vertex of the component.  tau must be
    special (it is the extension vertex of a transversal component).
    """
    specials = {tag.correspondence[j] for j in tag.special}
    if tau not in specials:
        raise NotAffine("tau is not a special vertex")
    if s not in specials:
        return DiagramAutomorphism.identity(comp)
    for g in omega_group(sys, comp, tag):
        if g(tau) == s:
            return g
    raise NotAffine("no extended automorphism moves tau to s")
