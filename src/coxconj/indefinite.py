"""Conjugacy-class structure for irreducible indefinite-type systems.

Pipeline for w with full parabolic closure: find the largest spherical
standard parabolic normalised by a conjugate in the shift class, split off
the torsion part, extract the atomic core, compute the centraliser degree,
and assemble the structural conjugation graph as a quotient of the
K_delta component of the transversal support.
"""

from . import coxmat, cycshift, element, finord, graph
from .errors import (
    NotCyclicallyReduced,
    NotFullClosure,
    NotStandard,
    VerificationFailed,
)


def is_straight(w, k_max=6):
    """Sampled straightness test: l(w^k) = k l(w) for k <= k_max."""
    base = w.length()
    acc = w
    for k in range(2, k_max + 1):
        acc = acc * w
        if acc.length() != k * base:
            return False
    return True


def msn(w):
    """Largest spherical subset I with w W_I w^-1 = W_I.

    Step (1): I_s = supp(w s w^-1) is the support of the root w(e_s);
    step (2): close each {s} under s -> I_s; the union of the spherical
    closures is the answer.
    """
    sys = w.sys
    R = w.R
    supports = []
    for s in range(sys.rank):
        supports.append(R.vec_supp(w.apply(R.basis_vector(s))))
    out = set()
    for s in range(sys.rank):
        J = {s}
        while True:
            J2 = set()
            for t in J:
                J2 |= supports[t]
            if J2 == J:
                break
            J = J | J2
        if coxmat.is_spherical(sys, frozenset(J)):
            out |= J
    I = frozenset(out)
    if I and not coxmat.is_spherical(sys, I):
        # guaranteed spherical when Pc(w) = W; a violation means the
        # precondition failed
        raise NotFullClosure("union of spherical orbit closures is not "
                             "spherical; is Pc(w) = W?")
    return I


def mn(w):
    """First element of Cyc(w) whose normalised spherical parabolic is
    maximal; returns (v, I, conj) with v = conj^-1 w conj."""
    order, pred = cycshift.cyc_class(w)
    if order[-1].length() < w.length() or any(
            v.length() < w.length() for v in order):
        raise NotCyclicallyReduced("mn needs a cyclically reduced element")
    best = None
    for v in order:
        I = msn(v)
        if best is None or len(I) > len(best[1]):
            best = (v, I)
    v, I = best
    a = w.R.from_word(cycshift.witness_path(pred, v))
    if element.conjugate(w, a) != v:
        raise VerificationFailed("witness path does not conjugate onto v")
    return v, I, a


def _divisors(k):
    out = [d for d in range(1, k + 1) if k % d == 0]
    return out


def _prefixes_of_length(w, d):
    """All elements x with l(x) = d and l(x) + l(x^-1 w) = l(w)."""
    level = {w.R.identity(): w}
    for _ in range(d):
        nxt = {}
        for x, rest in level.items():
            for s in rest.left_descents():
                nxt[x.right_mul_gen(s)] = rest.left_mul_gen(s)
        level = nxt
    return level


def root_decomp(w):
    """Maximal (n, x) with w = x^n and l(w) = n l(x); (1, w) if none."""
    k = w.length()
    if k == 0:
        return 1, w
    for d in _divisors(k)[:-1]:
        n = k // d
        for x in sorted(_prefixes_of_length(w, d), key=lambda e: e.sort_key()):
            if x ** n == w:
                return n, x
    return 1, w


class CoreSplitting:
    """The factorisation w = a * core^n with atomic core.

    a and core live in the caller's frame (so w == a * core**n exactly);
    standardizer conjugates w to the standard representative v used for
    the verified minimality checks: v = standardizer^-1 w standardizer,
    v = std_a * std_core**n with std_a in W_I and std_core of minimal
    length in W_I std_core.
    """

    def __init__(self, a, core, n, standardizer, subset, std_a, std_core):
        self.a = a
        self.core = core
        self.n = n
        self.standardizer = standardizer
        self.subset = subset
        self.std_a = std_a
        self.std_core = std_core

    def __repr__(self):
        return "CoreSplitting(n=%d, |I|=%d)" % (self.n, len(self.subset))


def _straight_representative(n_I, I_size):
    """Element u in Cyc_min(n_I) that is P-reduced with standard P^max.

    Returns (u, J, conj) with u = conj^-1 n_I conj, J = msn(u) of size
    I_size and u of minimal length in W_J u.
    """
    u1, c1 = cycshift.cyclically_reduce(n_I)
    order, pred = cycshift.cyc_class(u1)
    for u in order:
        J = msn(u)
        if len(J) != I_size:
            continue
        if any(u.is_left_descent(s) for s in J):
            continue
        c2 = cycshift.witness_path(pred, u)
        return u, J, tuple(c1) + c2
    raise VerificationFailed("no P-reduced standard representative found "
                             "in the shift class")


def core_splitting(w):
    """Core splitting of a cyclically reduced w with Pc(w) = W."""
    v, I, a0 = mn(w)
    w_I, n_I = element.normalizer_split(v, I)
    if n_I.is_identity():
        # torsion-only element cannot have full closure in indefinite type
        raise NotFullClosure("element lies in a spherical parabolic")
    u, J, cw = _straight_representative(n_I, len(I))
    c = w.R.from_word(cw)
    n, x = root_decomp(u)
    x_red = element.min_coset_rep(x, J, "left")
    if x_red ** n != u:
        raise VerificationFailed("stripped root does not recover the "
                                 "straight representative")
    w_c = c * x_red * c.inverse()
    if w_c ** n != n_I:
        raise VerificationFailed("core power does not reproduce n_I")
    if not element.normalizes(w_c, I):
        raise VerificationFailed("core does not normalise W_I")
    if any(w_c.is_left_descent(s) for s in I):
        raise VerificationFailed("core is not minimal in its W_I coset")
    _check_atomic(w_c, len(I))
    a = a0 * w_I * a0.inverse()
    core = a0 * w_c * a0.inverse()
    if a * core ** n != w:
        raise VerificationFailed("core splitting does not multiply back")
    return CoreSplitting(a, core, n, a0, I, w_I, w_c)


def _check_atomic(w_c, I_size):
    """Weak indivisibility of every P-reduced standard shift representative."""
    red, _ = cycshift.cyclically_reduce(w_c)
    order, _pred = cycshift.cyc_class(red)
    for y in order:
        J = msn(y)
        if len(J) != I_size or any(y.is_left_descent(s) for s in J):
            continue
        ny, _ = root_decomp(y)
        if ny != 1:
            raise VerificationFailed("core has a weakly divisible standard "
                                     "representative")


def is_core_splitting(w, n, a, x):
    """The ICS check: is w = a x^n the core splitting of w?"""
    if a * x ** n != w:
        return False
    v, I, _ = mn(w)
    if v != w:
        return False
    if not a.supp() <= I:
        return False
    if any(x.is_left_descent(s) for s in I):
        return False
    red, _ = cycshift.cyclically_reduce(x)
    order, _ = cycshift.cyc_class(red)
    for y in order:
        if root_decomp(y)[0] != 1:
            return False
    return True


def delta_and_Iw_indefinite(v, I=None):
    """(delta_w, I_w) for a standard element v with P_v^max = W_I."""
    if I is None:
        v2, I, _ = mn(v)
        if v2 != v:
            raise NotStandard("element is not standard")
    w_I, n_I = element.normalizer_split(v, I)
    delta_w = element.twist_of_normalizer(n_I, I)
    I_w = delta_w.invariant_closure(w_I.supp())
    return delta_w, I_w


def centraliser_degree(split):
    """The centraliser degree n_w from a core splitting (standard frame).

    n_w is the least n >= 1 such that delta^n(a) is delta^m-conjugate to a
    in the finite W_I, delta the conjugation by the core.
    """
    I = split.subset
    a = split.std_a
    m = split.n
    delta = element.twist_of_normalizer(split.std_core, I)
    # least o with delta^o(a) == a, then the least m' >= 1 congruent to m
    o = 1
    img = element.twist_element(delta, a)
    while img != a:
        img = element.twist_element(delta, img)
        o += 1
        if o > 10000:
            raise VerificationFailed("runaway twist orbit")
    mp = m % o
    if mp == 0:
        mp = o
    delta_m = delta.power(m)
    for d in _divisors(mp):
        lhs = a
        for _ in range(d):
            lhs = element.twist_element(delta, lhs)
        ok, _ = finord.twisted_conjugate_bruteforce(lhs, a, delta_m, I)
        if ok:
            return d
    raise VerificationFailed("no divisor of m' realises the centraliser "
                             "degree")


class IndefiniteGraphResult:
    def __init__(self, graph, kgraph, delta_w, I_w, xi_w, split, n_w,
                 representatives, rep_elements, standard, conjugator):
        self.graph = graph            # the quotient: K_Ow itself
        self.kgraph = kgraph          # unquotiented K_delta component
        self.delta_w = delta_w
        self.I_w = I_w
        self.xi_w = xi_w              # list of automorphisms of I
        self.split = split
        self.n_w = n_w
        self.representatives = representatives
        self.rep_elements = rep_elements  # vertex subset -> Element
        self.standard = standard
        self.conjugator = conjugator

    def __repr__(self):
        return "IndefiniteGraphResult(%r)" % (self.graph,)


def structural_graph_indefinite(w):
    """Run the full indefinite pipeline on w (cyclically reduces first)."""
    w1, conj0 = cycshift.cyclically_reduce(w)
    sys = w.sys
    if w1.supp() != sys.full:
        raise NotFullClosure("parabolic closure is a proper parabolic")
    split = core_splitting(w1)
    v = split.standardizer.inverse() * w1 * split.standardizer
    I = split.subset
    delta_c = element.twist_of_normalizer(split.std_core, I)
    delta_w = delta_c.power(split.n)
    I_w = delta_w.invariant_closure(split.std_a.supp())
    kgraph = finord.kdelta_component(sys, delta_w, I_w, within=I)
    n_w = centraliser_degree(split)
    gen = delta_c.power(n_w)
    xi_w = coxmat.generate_group([gen], gen.domain)
    if not all(x.compose(delta_w) == delta_w.compose(x) for x in xi_w):
        raise VerificationFailed("Xi_w does not commute with delta_w")
    quot = graph.quotient(kgraph, [gen])
    reps, elts = _replay_representatives(kgraph, v)
    # class representatives in the quotient are vertices of the component,
    # all of which carry a replayed element
    quot.representatives = {quot.vertex_index(qv): reps[qv]
                            for qv in quot.vertices}
    return IndefiniteGraphResult(
        graph=quot, kgraph=kgraph, delta_w=delta_w, I_w=I_w, xi_w=xi_w,
        split=split, n_w=n_w, representatives=reps, rep_elements=elts,
        standard=v, conjugator=w.R.from_word(conj0) * split.standardizer)


def _replay_representatives(kgraph, v):
    """One element per K_delta vertex, by K-conjugation along a BFS tree."""
    elts = {kgraph.base: v}
    paths = {kgraph.base: []}
    for i, j, K in kgraph.bfs_tree():
        elts[j] = cycshift.k_conjugate(elts[i], K)
        paths[j] = paths[i] + [sorted(K)]
    reps = {kgraph.vertices[i]: {"word": list(e.word), "path": paths[i]}
            for i, e in elts.items()}
    return reps, {kgraph.vertices[i]: e for i, e in elts.items()}
