"""Finite-order machinery: the K_delta graph, the twisted Deodhar walk, and
structural conjugation graphs of finite-order (twisted) elements.

The graph K_delta has the delta-invariant spherical subsets of S as
vertices and an edge I -K-> J whenever K contains I and J = op_K(I).  Its
construction is purely diagrammatic; the group enters only when vertex
representatives are replayed by K-conjugations.
"""

import itertools

from . import coxmat, cycshift, element
from .errors import (
    InfiniteOrder,
    NonSpherical,
    NotCyclicallyReduced,
    PreconditionViolated,
)
from .graph import ConjGraph, subset_key


def _delta_orbits(delta, pool):
    orbits = []
    remaining = set(pool)
    while remaining:
        seed = min(remaining)
        orb = {seed}
        cur = delta(seed)
        while cur != seed:
            orb.add(cur)
            cur = delta(cur)
        remaining -= orb
        orbits.append(frozenset(orb))
    return orbits


def invariant_spherical_supersets(sys, delta, I, within=None):
    """All delta-invariant spherical K with I <= K <= within."""
    within = sys.full if within is None else frozenset(within)
    I = frozenset(I)
    orbits = _delta_orbits(delta, within - I)
    out = []
    for r in range(len(orbits) + 1):
        for chosen in itertools.combinations(orbits, r):
            K = I.union(*chosen) if chosen else I
            if coxmat.is_spherical(sys, K):
                out.append(K)
    out.sort(key=subset_key)
    return tuple(out)


def kdelta_component(sys, delta, I0, within=None):
    """Connected component of I0 in K_delta, as a ConjGraph.

    Vertices are the delta-invariant spherical subsets reachable from I0;
    each edge keeps its ShortLex-least label plus the full label set.
    ``within`` restricts the ambient diagram to a subset of the generators
    (used when the transversal generators are a subset of S).
    """
    I0 = frozenset(I0)
    if not delta.stabilises(I0):
        raise PreconditionViolated("base subset is not delta-invariant")
    if not coxmat.is_spherical(sys, I0):
        raise NonSpherical("base subset is not spherical")
    seen = {I0}
    frontier = [I0]
    edges = {}
    while frontier:
        frontier.sort(key=subset_key)
        nxt = []
        for I in frontier:
            for K in invariant_spherical_supersets(sys, delta, I, within):
                op = coxmat.opposition(sys, K)
                J = op.apply_set(I)
                if J == I:
                    continue
                key = tuple(sorted((subset_key(I), subset_key(J))))
                edges.setdefault(key, set()).add(K)
                if J not in seen:
                    seen.add(J)
                    nxt.append(J)
        frontier = nxt
    edge_list = [(frozenset(a), frozenset(b), labels)
                 for (a, b), labels in edges.items()]
    return ConjGraph(sys.generator_names, seen, edge_list, I0)


def deodhar_path(sys, delta, J, K, w):
    """The twisted Deodhar walk from J to K along w.

    Preconditions: delta(w) = w, w of minimal length in W_K w W_J, and
    w Pi_J = Pi_K, with J, K delta-invariant and spherical.  Returns the
    list of steps (J_prev, nu_i, J_next) with nu_i = w0(J_prev u T_i) *
    w0(J_prev); the product of the nu_i in reverse order is w and the
    lengths add.
    """
    J, K = frozenset(J), frozenset(K)
    for X in (J, K):
        if not delta.stabilises(X) or not coxmat.is_spherical(sys, X):
            raise PreconditionViolated("subsets must be invariant spherical")
    if element.permute_element(delta, w) != w:
        raise PreconditionViolated("w is not delta-invariant")
    if element.min_coset_rep(w, K, "double", J=J) != w:
        raise PreconditionViolated("w is not minimal in its double coset")
    if not element.maps_simples_onto(w, J, K):
        raise PreconditionViolated("w Pi_J != Pi_K")
    R = w.R
    steps = []
    cur = w
    Jc = J
    while not cur.is_identity():
        s1 = min(s for s in range(sys.rank) if cur.is_right_descent(s))
        T = set()
        t = s1
        while t not in T:
            T.add(t)
            t = delta(t)
        KT = Jc | T
        if not coxmat.is_spherical(sys, KT):
            raise PreconditionViolated("encountered a non-spherical step")
        nu = element.longest_element(sys, KT) * element.longest_element(sys, Jc)
        mapping = {}
        for s in Jc:
            img = nu.apply(R.basis_vector(s))
            (u,) = R.vec_supp(img)
            mapping[s] = u
        Jn = frozenset(mapping.values())
        steps.append((Jc, nu, Jn))
        cur = cur * nu.inverse()
        Jc = Jn
    if Jc != K:
        raise PreconditionViolated("walk did not end at K")
    total = w.R.identity()
    lengths = 0
    for (_, nu, _) in reversed(steps):
        total = total * nu
        lengths += nu.length()
    if total != w or lengths != w.length():
        raise PreconditionViolated("Deodhar factorisation failed to verify")
    return steps


def same_cyc_class_finite(u, v):
    """Support criterion for cyclic-shift classes of finite-order elements.

    Both arguments must be cyclically reduced, finite order and conjugate;
    then Cyc(u) == Cyc(v) iff supp(u) == supp(v).
    """
    for w in (u, v):
        tw = element.as_twisted(w)
        if not coxmat.is_spherical(w.sys, tw.supp()):
            raise NotCyclicallyReduced("support is not spherical")
        if not cycshift.is_cyclically_reduced(w):
            raise NotCyclicallyReduced("input is not cyclically reduced")
    return element.as_twisted(u).supp() == element.as_twisted(v).supp()


@coxmat.per_subset
def enumerate_parabolic(sys, K):
    """All elements of the finite standard parabolic W_K."""
    if not coxmat.is_spherical(sys, K):
        raise NonSpherical("cannot enumerate an infinite parabolic")
    out = {element.identity(sys)}
    frontier = [element.identity(sys)]
    while frontier:
        w = frontier.pop()
        for s in K:
            v = w.right_mul_gen(s)
            if v not in out:
                out.add(v)
                frontier.append(v)
    return frozenset(out)


def twisted_conjugate_bruteforce(u, v, delta, K):
    """Decide delta-conjugacy of u, v inside the finite W_K, with witness.

    Enumerates {x^-1 u delta(x) : x in W_K}; returns (True, x) or
    (False, None).  delta may be a partial diagram automorphism defined on
    K only.
    """
    sys = u.sys
    for x in sorted(enumerate_parabolic(sys, K), key=lambda e: e.sort_key()):
        if x.inverse() * u * element.twist_element(delta, x) == v:
            return True, x
    return False, None


def finite_structural_graph(w):
    """Structural conjugation graph of a cyclically reduced finite-order w.

    Realises the graph as the K_delta component of supp(w) and attaches one
    representative per vertex by replaying K-conjugations along a BFS tree.
    """
    tw = element.as_twisted(w)
    sys = tw.sys
    supp = tw.supp()
    if not coxmat.is_spherical(sys, supp):
        raise InfiniteOrder("support is not spherical")
    if element.order(w) is None:
        raise InfiniteOrder("element has infinite order")
    g = kdelta_component(sys, tw.twist, supp)
    reps = {g.base: {"word": list(tw.word)}}
    rep_elt = {g.base: tw}
    for i, j, K in g.bfs_tree():
        out = cycshift.k_conjugate(rep_elt[i], K)
        if element.as_twisted(out).supp() != g.vertices[j]:
            raise PreconditionViolated("replayed representative has the "
                                       "wrong support")
        rep_elt[j] = out
        reps[j] = {"word": list(out.word), "conjugated_by": sorted(K)}
    g.representatives = reps
    return FiniteGraphResult(graph=g, delta=tw.twist, support=supp,
                             representatives=rep_elt)


class FiniteGraphResult:
    def __init__(self, graph, delta, support, representatives):
        self.graph = graph
        self.delta = delta
        self.support = support
        self.representatives = representatives

    def __repr__(self):
        return "FiniteGraphResult(%r)" % (self.graph,)


def finite_order_conjugate(u, v, length_cap=None):
    """Conjugacy test for cyclically reduced finite-order twisted elements.

    Searches for x with delta(x) = x mapping Pi_supp(u) onto Pi_supp(v) and
    applies the support criterion to the transported element.  For an
    infinite ambient group the search runs over elements of length at most
    length_cap (default: a small multiple of the support sizes).
    """
    tu, tv = element.as_twisted(u), element.as_twisted(v)
    if tu.twist != tv.twist:
        return False
    delta = tu.twist
    sys = tu.sys
    Iu, Iv = tu.supp(), tv.supp()
    if len(Iu) != len(Iv):
        return False
    if coxmat.is_spherical(sys, sys.full):
        candidates = sorted(enumerate_parabolic(sys, sys.full),
                            key=lambda e: e.sort_key())
    else:
        if length_cap is None:
            length_cap = 4 * (len(Iu) + 2)
        candidates = element.length_ball(sys, length_cap)
    for x in candidates:
        if element.permute_element(delta, x) != x:
            continue
        if not element.maps_simples_onto(x, Iu, Iv):
            continue
        moved = element.conjugate(tv, x)
        if element.as_twisted(moved).supp() == Iu:
            if same_cyc_class_finite(tu, moved):
                return True
    return False
