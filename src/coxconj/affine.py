"""The affine pipeline: exact affine action, transversal Coxeter system,
standard splitting, Xi_eta, and the structural conjugation graph.

An irreducible untwisted affine system acts on the rational realisation of
its finite root system; all geometry (translation vectors, fixed spaces,
alcove walks, orthogonal projections) is exact over Fraction.  The
transversal system (W^eta, S^eta) is materialised both abstractly (its own
Coxeter system, where cyclic reduction of the finite-order transversal
element is cheap) and concretely (each transversal generator as an element
of W).
"""

from fractions import Fraction

from . import coxmat, cycshift, element, finord, graph
from .coxmat import CoxeterSystem, DiagramAutomorphism, generate_group
from .errors import (
    FiniteOrder,
    InternalMismatch,
    NotAffine,
    NotStandard,
    SearchBudgetExceeded,
    UnsupportedShape,
    VerificationFailed,
)
from .linalg import (
    affine_fixed_space,
    dot,
    is_zero_vec,
    orthogonal_projection,
    vadd,
    vscale,
    vsub,
)
from .rootdata import coroot, embedded_root_system, finite_root_system

F0 = Fraction(0)
F1 = Fraction(1)

# Largest plateau the representative searches of structural_graph_affine
# visit before raising, so that their memory stays bounded.
PLATEAU_CAP = 200000

HIGHEST_ROOT_HEIGHT = {"A": lambda n: n, "B": lambda n: 2 * n - 1,
                       "C": lambda n: 2 * n - 1, "D": lambda n: 2 * n - 3,
                       "E": lambda n: {6: 11, 7: 17, 8: 29}[n],
                       "F": lambda n: 11, "G": lambda n: 5}

PARABOLIC_ORDER = {"A": lambda n: _fact(n + 1),
                   "B": lambda n: (1 << n) * _fact(n),
                   "C": lambda n: (1 << n) * _fact(n),
                   "D": lambda n: (1 << (n - 1)) * _fact(n),
                   "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
                   "F": lambda n: 1152, "G": lambda n: 12,
                   "H": lambda n: {2: 10, 3: 120, 4: 14400}[n]}


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def parabolic_order(sys, K):
    """|W_K| for spherical K, from the classification tables."""
    out = 1
    for _, tag in coxmat.classify(sys, K):
        if tag.family == "I2":
            out *= 2 * tag.label
        else:
            out *= PARABOLIC_ORDER[tag.family](tag.rank)
    return out


class AffineSystem:
    """An irreducible untwisted affine system with its exact realisation."""

    def __init__(self, sys):
        tags = coxmat.classify(sys)
        if len(tags) != 1 or tags[0][1].kind != "affine":
            raise NotAffine("system is not irreducible untwisted affine")
        _, tag = tags[0]
        self.sys = sys
        self.tag = tag
        self.kac_to_gen = tag.correspondence
        self.gen_to_kac = {g: k for k, g in enumerate(tag.correspondence)}
        self.rs = finite_root_system(tag.family, tag.rank)
        self.rank = tag.rank          # l, so the system has l+1 generators
        self.dim = self.rs.dim
        self.theta = self.rs.highest_root()
        # generator -> (alpha, alpha^vee, c) of its reflection
        # x -> x - (<alpha, x> - c) alpha^vee, the roots as sparse (index,
        # coordinate) pairs; s_0 has alpha = theta and c = 1
        self._reflections = {}
        for k in range(self.rank + 1):
            alpha = self.theta if k == 0 else self.rs.simple[k - 1]
            self._reflections[self.kac_to_gen[k]] = (
                _sparse(alpha), _sparse(coroot(alpha)), F1 if k == 0 else F0)

    # -- affine maps --------------------------------------------------------

    def word_map(self, word):
        """Affine map (A, b), x -> A x + b, of the element with the given
        generator word.

        Composing with a reflection on the right is the rank-one update
        A -= (A alpha^vee) alpha^T, b += c A alpha^vee.
        """
        n = self.dim
        A = [list(row) for row in _identity(n)]
        b = [F0] * n
        for g in word:
            alpha, alpha_v, c = self._reflections[g]
            for i, row in enumerate(A):
                u = sum(row[j] * x for j, x in alpha_v)
                if u:
                    for j, x in alpha:
                        row[j] -= u * x
                    b[i] += c * u
        return tuple(map(tuple, A)), tuple(b)

    def element_map(self, w):
        return self.word_map(w.word)

    def linear_order(self, A, cap=10000):
        """Order of the linear part (an element of the finite Weyl group)."""
        cur = A
        k = 1
        ident = _identity(self.dim)
        while cur != ident:
            cur = mat_mul_frac(cur, A)
            k += 1
            if k > cap:
                raise VerificationFailed("runaway linear order")
        return k

    def translation_vector(self, w):
        """mu with w^k = t_{k mu}, k the order of the linear part of w."""
        A, b = self.element_map(w)
        k = self.linear_order(A)
        total = b
        power = A
        for _ in range(k - 1):
            total = vadd(total, mat_vec_frac(power, b))
            power = mat_mul_frac(power, A)
        return vscale(Fraction(1, k), total), k

    def is_translation(self, w):
        A, _ = self.element_map(w)
        return A == _identity(self.dim)

    def affine_action(self, w, x):
        A, b = self.element_map(w)
        return vadd(mat_vec_frac(A, x), b)

    def element_from_affine_map(self, target):
        """The element of W realising the given affine map, via an alcove
        walk; raises if the map does not belong to W."""
        verts = self.rs.alcove_vertices()
        bary = tuple(sum(xs, F0) / len(verts) for xs in zip(*verts))
        q = vadd(mat_vec_frac(target[0], bary), target[1])
        letters, _ = self.rs.affine_walk(q)
        word = tuple(self.kac_to_gen[k] for k in letters)
        w = element.reduce(self.sys, word)
        if self.element_map(w) != target:
            raise UnsupportedShape("affine map is not realised by W")
        return w


def compose_affine(f, g):
    """f after g: x -> f(g(x))."""
    A, b = f
    C, d = g
    return mat_mul_frac(A, C), vadd(mat_vec_frac(A, d), b)


def _identity(n):
    return tuple(tuple(F1 if i == j else F0 for j in range(n))
                 for i in range(n))


def _sparse(v):
    return tuple((j, x) for j, x in enumerate(v) if x)


def mat_mul_frac(A, B):
    n = len(A)
    Bc = list(zip(*B))
    return tuple(tuple(sum((A[i][k] * Bc[j][k] for k in range(n)), F0)
                       for j in range(n)) for i in range(n))


def mat_vec_frac(A, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), F0) for row in A)


def affine_system(sys):
    return sys.cached("affine-system", lambda: AffineSystem(sys))


def affine_action(sys, word_or_element, x):
    """Evaluate the affine action on a rational vector, exactly."""
    asys = affine_system(sys)
    if isinstance(word_or_element, element.Element):
        return asys.affine_action(word_or_element, x)
    A, b = asys.word_map(tuple(word_or_element))
    return vadd(mat_vec_frac(A, x), b)


def is_translation(w):
    return affine_system(w.sys).is_translation(w)


# ---------------------------------------------------------------------------
# affine reflection words (roots alpha + n delta as pairs (alpha, n))


def affine_reflection_word(asys, alpha, n):
    """Word of the reflection with positive affine root alpha + n delta.

    Descends by the height-maximal drop, smallest Kac index on ties, and
    returns the palindrome word in ambient generator indices.
    """
    rs = asys.rs
    theta = asys.theta

    def pairings(a, m):
        out = []
        for k in range(rs.rank + 1):
            if k == 0:
                out.append(-dot(a, coroot(theta)))
            else:
                out.append(dot(a, coroot(rs.simple[k - 1])))
        return out

    def apply_gen(k, a, m):
        if k == 0:
            c = dot(a, coroot(theta))
            return vsub(a, vscale(c, theta)), m + c
        alpha_k = rs.simple[k - 1]
        return vsub(a, vscale(dot(a, coroot(alpha_k)), alpha_k)), m

    def is_simple(a, m):
        if m == 0:
            for k in range(1, rs.rank + 1):
                if a == rs.simple[k - 1]:
                    return k
        if m == 1 and a == vscale(-1, theta):
            return 0
        return None

    cur_a, cur_n = alpha, Fraction(n)
    letters = []
    for _ in range(100000):
        j = is_simple(cur_a, cur_n)
        if j is not None:
            word = tuple(asys.kac_to_gen[k] for k in letters)
            mid = asys.kac_to_gen[j]
            return word + (mid,) + tuple(reversed(word))
        ps = pairings(cur_a, cur_n)
        best, best_drop = None, None
        for k in range(rs.rank + 1):
            if ps[k] <= 0:
                continue
            if best is None or ps[k] > best_drop:
                best, best_drop = k, ps[k]
        if best is None:
            raise VerificationFailed("affine root descent stalled")
        cur_a, cur_n = apply_gen(best, cur_a, cur_n)
        letters.append(best)
    raise VerificationFailed("affine root descent did not terminate")


# ---------------------------------------------------------------------------
# transversal system


class TransversalSystem:
    """(W^eta, S^eta) for a standard direction with fixer W_{I_eta}.

    Local indices list the generators of I_eta by ambient index, then the
    extension reflections tau_1..tau_r (components ordered by smallest
    ambient index).  The abstract Coxeter system carries the classification
    of the extended components; the embedding sends each local generator to
    an explicit element of W.
    """

    def __init__(self, asys, I_eta):
        sys = asys.sys
        rs = asys.rs
        I_eta = frozenset(I_eta)
        s0 = asys.kac_to_gen[0]
        if s0 in I_eta:
            raise NotStandard("I_eta must avoid the extension vertex")
        if len(I_eta) >= asys.rank:
            raise NotStandard("I_eta must be a proper subset of the finite "
                              "part")
        self.asys = asys
        self.I_eta = I_eta
        comps = coxmat.components(sys, I_eta)
        self.components_ambient = comps
        self.locals_I = sorted(I_eta)
        r = len(comps)
        self.n_local = len(self.locals_I) + r
        names = [sys.generator_names[g] for g in self.locals_I]
        taus = ["tau%d" % (i + 1) for i in range(r)]
        while set(taus) & set(names):  # local names must stay distinct
            taus = [t + "'" for t in taus]
        self.local_names = tuple(names + taus)
        local_of_gen = {g: i for i, g in enumerate(self.locals_I)}
        self.tau_local = tuple(len(self.locals_I) + i for i in range(r))
        # highest roots and tau elements
        self.theta_I = []
        self.tau_elements = []
        embeds = []
        for comp in comps:
            simple = tuple(rs.simple[asys.gen_to_kac[g] - 1]
                           for g in sorted(comp))
            sub = embedded_root_system(simple)
            theta_c = sub.highest_root()
            self.theta_I.append(theta_c)
            word = affine_reflection_word(asys, vscale(-1, theta_c), 1)
            self.tau_elements.append(element.reduce(sys, word))
            embeds.append(sub)
        self.embedded = tuple(embeds)
        # embedding of every local generator
        self.embedding = []
        for g in self.locals_I:
            self.embedding.append(element.generator(sys, g))
        self.embedding.extend(self.tau_elements)
        self.embedding = tuple(self.embedding)
        # abstract Coxeter matrix from orders of products of the reflections
        n = self.n_local
        m = [[2] * n for _ in range(n)]
        maps = [asys.element_map(e) for e in self.embedding]
        for i in range(n):
            m[i][i] = 1
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = _product_order(
                    compose_affine(maps[i], maps[j]), asys.dim)
        self.abstract = CoxeterSystem(m, self.local_names)
        # classification of the extended components, with consistency checks
        self.component_tags = []
        for ci, comp in enumerate(comps):
            local = frozenset([local_of_gen[g] for g in sorted(comp)]
                              + [self.tau_local[ci]])
            [(c2, tag)] = coxmat.classify(self.abstract, local)
            if tag.kind != "affine":
                raise InternalMismatch("extended component is not affine")
            [( _, finite_tag)] = coxmat.classify(sys, comp)
            if (tag.family, tag.rank) != (finite_tag.family, finite_tag.rank):
                # B2 == C2 as Coxeter types; accept the pair
                if not ({tag.family, finite_tag.family} <= {"B", "C"}
                        and tag.rank == finite_tag.rank):
                    raise InternalMismatch(
                        "extension %s does not extend %s"
                        % (tag.symbol, finite_tag.symbol))
            expected_h = HIGHEST_ROOT_HEIGHT[finite_tag.family](
                finite_tag.rank) if finite_tag.family != "I2" else None
            sub = self.embedded[ci]
            if expected_h is not None:
                if sub.root_height(sub.highest_root()) != expected_h:
                    raise InternalMismatch("highest-root height mismatch")
            self.component_tags.append(tag)

    def embed(self, local_word):
        """Element of W for a word in local transversal indices."""
        out = element.identity(self.asys.sys)
        for i in local_word:
            out = out * self.embedding[i]
        return out

    def abstract_reduce(self, local_word):
        return element.reduce(self.abstract, local_word)


def _product_order(fmap, dim):
    # a product of two reflections of an affine Weyl group has order 1, 2,
    # 3, 4, 6 or infinity
    ident = (_identity(dim), tuple(F0 for _ in range(dim)))
    cur = fmap
    for k in range(1, 7):
        if cur == ident:
            return k
        cur = compose_affine(cur, fmap)
    return 0  # infinity


@coxmat.per_subset
def transversal_system(sys, I_eta):
    return TransversalSystem(affine_system(sys), I_eta)


# ---------------------------------------------------------------------------
# standardisation


def _dominant_walk(asys, v):
    """Walk v into the closed dominant cone of the finite part.

    Returns (letters, v_dom) with letters the Kac indices applied in order.
    """
    rs = asys.rs
    letters = []
    guard = 0
    while True:
        guard += 1
        if guard > 100000:
            raise VerificationFailed("dominant walk did not terminate")
        for k in range(1, rs.rank + 1):
            c = dot(v, rs.simple[k - 1])
            if c < 0:
                v = vsub(v, vscale(c, coroot(rs.simple[k - 1])))
                letters.append(k)
                break
        else:
            return letters, v


def is_cyclically_reduced_sufficient(w):
    """Sufficient criterion: the elliptic part of w lies in W and is
    cyclically reduced (then w is cyclically reduced)."""
    asys = affine_system(w.sys)
    A, b = asys.element_map(w)
    mu, _ = asys.translation_vector(w)
    u_map = (A, vsub(b, mu))
    fixed = affine_fixed_space([u_map], asys.dim)
    if fixed is None:
        return False
    try:
        u = asys.element_from_affine_map(u_map)
    except UnsupportedShape:
        return False
    if u.length() == 0:
        return True
    red, _ = cycshift.cyclically_reduce(u)
    return red.length() == u.length()


def p_w_infty_standardize(w, assume_cyclically_reduced=False):
    """(a_w, I_eta, v): v = a_w^-1 w a_w has standard direction fixer.

    The input is cyclically reduced first (cheap sufficient criterion, then
    the shift search) unless assume_cyclically_reduced is set.
    """
    asys = affine_system(w.sys)
    mu, _k = asys.translation_vector(w)
    if is_zero_vec(mu):
        raise FiniteOrder("element has finite order")
    prefix = element.identity(w.sys)
    if not assume_cyclically_reduced:
        if not is_cyclically_reduced_sufficient(w):
            w2, conj = cycshift.cyclically_reduce(w)
            if w2 != w:
                prefix = element.reduce(w.sys, conj)
                w = w2
                mu, _k = asys.translation_vector(w)
    a_w, I_eta, v = _direction_standardize(asys, w, mu)
    return prefix * a_w, I_eta, v


def _direction_standardize(asys, w, mu):
    letters, mu_dom = _dominant_walk(asys, mu)
    word = tuple(asys.kac_to_gen[k] for k in letters)
    a_w = element.reduce(asys.sys, word)
    I_eta = frozenset(asys.kac_to_gen[k] for k in range(1, asys.rank + 1)
                      if dot(mu_dom, asys.rs.simple[k - 1]) == 0)
    a_w = element.min_coset_rep(a_w, I_eta, "right")
    v = element.conjugate(w, a_w)
    mu_v, _ = asys.translation_vector(v)
    if mu_v != mu_dom:
        raise VerificationFailed("standardised direction mismatch")
    return a_w, I_eta, v


# ---------------------------------------------------------------------------
# transversal action (pi_eta)


def _projection_basis(asys, tsys):
    return [asys.rs.simple[asys.gen_to_kac[g] - 1] for g in tsys.locals_I]


def _transversal_interior_point(asys, tsys):
    """A rational interior point of the fundamental transversal alcove."""
    p = tuple(F0 for _ in range(asys.dim))
    for ci, comp in enumerate(tsys.components_ambient):
        sub = tsys.embedded[ci]
        h = sub.root_height(sub.highest_root())
        scale = Fraction(1, int(h) + 1)
        for wv in sub.fundamental_coweights():
            p = vadd(p, vscale(scale, wv))
    return p


def _transversal_walk(asys, tsys, q):
    """Walk q into the closed fundamental transversal alcove.

    Returns (letters, final) with letters local transversal indices in
    application order.
    """
    letters = []
    guard = 0
    while True:
        guard += 1
        if guard > 100000:
            raise VerificationFailed("transversal walk did not terminate")
        moved = False
        for i, g in enumerate(tsys.locals_I):
            alpha = asys.rs.simple[asys.gen_to_kac[g] - 1]
            c = dot(q, alpha)
            if c < 0:
                q = vsub(q, vscale(c, coroot(alpha)))
                letters.append(i)
                moved = True
                break
        if moved:
            continue
        for ci in range(len(tsys.components_ambient)):
            theta_c = tsys.theta_I[ci]
            c = dot(q, theta_c)
            if c > 1:
                q = vsub(q, vscale(c - 1, coroot(theta_c)))
                letters.append(tsys.tau_local[ci])
                moved = True
                break
        if not moved:
            return letters, q


def transversal_action(asys, tsys, v):
    """pi_eta(v) as a twisted element of the abstract transversal system.

    Returns (y_word, delta) with pi_eta(v) = y * delta, y in W^eta given by
    a local word and delta a diagram automorphism of the local indices,
    realised by conjugation: (iota(y)^-1 v) iota(s) (iota(y)^-1 v)^-1 =
    iota(delta(s)).
    """
    p = _transversal_interior_point(asys, tsys)
    A, b = asys.element_map(v)
    basis = _projection_basis(asys, tsys)
    q = orthogonal_projection(basis, vadd(mat_vec_frac(A, p), b))
    letters, _ = _transversal_walk(asys, tsys, q)
    # applying s_{l_1}, ..., s_{l_k} to q returns it to the base alcove, so
    # pi_eta(v) = y * delta with y the product s_{l_1} ... s_{l_k}
    y_word = tuple(letters)
    y = tsys.embed(y_word)
    d = y.inverse() * v
    mapping = {}
    targets = {tsys.embedding[j]: j for j in range(tsys.n_local)}
    for i in range(tsys.n_local):
        img = d * tsys.embedding[i] * d.inverse()
        j = targets.get(img)
        if j is None:
            raise InternalMismatch("pi_eta(v) does not permute the "
                                   "transversal walls")
        mapping[i] = j
    delta = DiagramAutomorphism(mapping)
    coxmat.check_diagram_automorphism(tsys.abstract, delta)
    return y_word, delta


# ---------------------------------------------------------------------------
# standard splitting in W


def standard_splitting(w):
    """(w0, winf): the torsion/straight factorisation along P_w^min.

    w0 generates the pointwise fixer of Min(w) together with its
    conjugators: w0 in P_w^min = v W_I v^-1, winf = w0^-1 w is
    P_w^min-reduced.
    """
    asys = affine_system(w.sys)
    rs = asys.rs
    A, b = asys.element_map(w)
    mu, _k = asys.translation_vector(w)
    if is_zero_vec(mu):
        raise FiniteOrder("standard splitting needs an infinite order input")
    fixed = affine_fixed_space([(A, vsub(b, mu))], asys.dim)
    if fixed is None:
        raise VerificationFailed("elliptic part has empty fixed space")
    p0, dirs = fixed
    walls = _walls_containing(asys, p0, dirs)
    p = _generic_point(asys, p0, dirs, walls)
    letters, q = rs.affine_walk(p)
    word = tuple(asys.kac_to_gen[k] for k in letters)
    v = element.reduce(asys.sys, word)
    K = _cotype(asys, q)
    v = element.min_coset_rep(v, K, "right")
    m = element.conjugate(w, v)
    w_I, _n = element.normalizer_split(m, K)
    w0 = v * w_I * v.inverse()
    winf = w0.inverse() * w
    check = element.conjugate(winf, v)
    if any(check.is_left_descent(s) for s in K):
        raise VerificationFailed("straight part is not P-reduced")
    if w0 * winf != w:
        raise VerificationFailed("standard splitting does not multiply back")
    return w0, winf


def _walls_containing(asys, p0, dirs):
    """All affine walls (alpha, k) containing the affine subspace."""
    out = []
    for alpha in asys.rs.positive_roots():
        if any(dot(d, alpha) != 0 for d in dirs):
            continue
        c = dot(p0, alpha)
        if c.denominator == 1:
            out.append((alpha, c))
    return tuple(out)


def _generic_point(asys, p0, dirs, walls):
    """Point of the subspace lying on exactly the walls containing it."""
    primes = [101, 103, 107, 109, 113, 127, 131, 137]
    for scale in range(1, 40):
        p = p0
        for i, d in enumerate(dirs):
            p = vadd(p, vscale(Fraction(1, primes[i % len(primes)] * scale),
                               d))
        extra = False
        for alpha in asys.rs.positive_roots():
            c = dot(p, alpha)
            if c.denominator == 1 and (alpha, c) not in walls:
                extra = True
                break
        if not extra:
            return p
    raise VerificationFailed("failed to find a generic point")


def _cotype(asys, q):
    """Generators whose wall contains the walked point q of the closed
    fundamental alcove."""
    K = set()
    for k in range(1, asys.rank + 1):
        if dot(q, asys.rs.simple[k - 1]) == 0:
            K.add(asys.kac_to_gen[k])
    if dot(q, asys.theta) == 1:
        K.add(asys.kac_to_gen[0])
    return frozenset(K)


def delta_and_Iw_affine(v, I_eta=None):
    """(delta_w, I_w) of a standard element via its standard splitting.

    delta_w is a diagram automorphism of the local transversal indices,
    I_w the smallest delta_w-invariant local subset containing the
    transversal support of the torsion part.
    """
    asys = affine_system(v.sys)
    if I_eta is None:
        _, I_eta, v2 = p_w_infty_standardize(v, assume_cyclically_reduced=True)
        if v2 != v:
            raise NotStandard("element is not standard")
    tsys = transversal_system(asys.sys, I_eta)
    w0, winf = standard_splitting(v)
    # delta_w: conjugation by winf permutes the transversal reflections
    targets = {tsys.embedding[j]: j for j in range(tsys.n_local)}
    mapping = {}
    for i in range(tsys.n_local):
        img = winf * tsys.embedding[i] * winf.inverse()
        j = targets.get(img)
        if j is None:
            raise NotStandard("straight part does not normalise S^eta")
        mapping[i] = j
    delta_w = DiagramAutomorphism(mapping)
    # w0 in W^eta: rewrite over S^eta by the transversal walk
    y_word, d0 = transversal_action(asys, tsys, w0)
    if not d0.is_identity():
        raise InternalMismatch("torsion part is not in W^eta")
    if tsys.embed(y_word) != w0:
        raise InternalMismatch("transversal rewrite of w0 failed")
    supp = tsys.abstract_reduce(y_word).supp()
    I_w = delta_w.invariant_closure(supp)
    return delta_w, I_w


# ---------------------------------------------------------------------------
# Xi_eta


@coxmat.per_subset
def xi_eta(sys, I_eta):
    """Generators of Xi_eta as automorphisms of the transversal indices.

    Xi_eta is the image of the direction stabiliser in the automorphism
    group of the transversal diagram.  The stabiliser is generated by its
    point stabiliser, which lies in W^eta and so acts trivially, and the
    translations; hence the transversal classes of the simple-coroot
    translations t_{alpha_k^vee} generate Xi_eta in every type.  Returns
    the nontrivial classes as a tuple, kept on the interned system.
    """
    tsys = transversal_system(sys, I_eta)
    asys = tsys.asys
    ident = _identity(asys.dim)
    gens = []
    for alpha in asys.rs.simple:
        t = asys.element_from_affine_map((ident, coroot(alpha)))
        _, delta = transversal_action(asys, tsys, t)
        if not delta.is_identity():
            gens.append(delta)
    return tuple(gens)


# ---------------------------------------------------------------------------
# the full pipeline


class AffineGraphResult:
    def __init__(self, graph_, kgraph, tsys, delta_w, I_w, xi_eta_elements,
                 xi_w, standard, conjugator, representatives, rep_elements,
                 I_eta, weta_word):
        self.graph = graph_          # quotient = the structural graph
        self.kgraph = kgraph         # K_delta component, unquotiented
        self.tsys = tsys
        self.delta_w = delta_w
        self.I_w = I_w
        self.xi_eta = xi_eta_elements
        self.xi_w = xi_w
        self.standard = standard     # the standardised element v
        self.conjugator = conjugator  # v = conjugator^-1 w conjugator
        self.representatives = representatives
        self.rep_elements = rep_elements
        self.I_eta = I_eta
        self.weta_word = weta_word   # local word of the W^eta part of v_eta

    def __repr__(self):
        return "AffineGraphResult(%r)" % (self.graph,)


def structural_graph_affine(w):
    """Run the affine pipeline on an infinite-order element.

    Standardises the direction, makes the transversal element cyclically
    reduced (a computation inside finite parabolics of the transversal
    system), reads delta_w and I_w off its transversal action, builds the
    K_delta component, the Xi groups, the quotient, and one representative
    per class, found by shift searches capped at PLATEAU_CAP elements per
    plateau.
    """
    asys = affine_system(w.sys)
    a_w, I_eta, v = p_w_infty_standardize(w)
    conjugator = a_w
    if not I_eta:
        # trivial transversal system: single class
        tsys = None
        red, extra = cycshift.cyclically_reduce(v, plateau_cap=PLATEAU_CAP)
        g = graph.ConjGraph((), [frozenset()], [], frozenset())
        g.representatives = {0: {"word": list(red.word)}}
        n0 = DiagramAutomorphism.identity(frozenset())
        return AffineGraphResult(
            g, g, None, n0, frozenset(), [n0], [n0], v,
            conjugator * element.reduce(w.sys, extra), g.representatives,
            {frozenset(): red}, I_eta, ())
    tsys = transversal_system(asys.sys, I_eta)
    # make v_eta cyclically reduced by transversal shifts
    for _ in range(2):
        y_word, delta = transversal_action(asys, tsys, v)
        t = element.TwistedElement(tsys.abstract_reduce(y_word), delta)
        red, conj = cycshift.cyclically_reduce(t)
        if red.length() == t.length():
            break
        step = tsys.embed(conj)
        v = element.conjugate(v, step)
        conjugator = conjugator * step
    else:
        raise VerificationFailed("transversal reduction did not stabilise")
    weta = element.TwistedElement(tsys.abstract_reduce(y_word), delta)
    delta_w = delta
    I_w = weta.supp()
    kgraph = finord.kdelta_component(tsys.abstract, delta_w, I_w)
    xi_eta_elements = generate_group(xi_eta(asys.sys, I_eta),
                                     range(tsys.n_local))
    vertex_set = set(kgraph.vertices)
    xi_w = [s for s in xi_eta_elements if s.apply_set(I_w) in vertex_set]
    quot_w = graph.quotient(kgraph, xi_w)
    reps, elts = _affine_representatives(tsys, kgraph, quot_w, v)
    quot_w.representatives = reps
    return AffineGraphResult(
        quot_w, kgraph, tsys, delta_w, I_w, xi_eta_elements, xi_w, v,
        conjugator, reps, elts, I_eta, tuple(weta.body.word))


def _affine_representatives(tsys, kgraph, quot, v):
    """One element of the minimal stratum per quotient class.

    Follows a BFS path I_w = J_0 -L_1-> ... -L_m-> J_m in the component,
    conjugates v by u_i = w0(L_1)...w0(L_i) expanded into W, and descends
    to the minimal stratum of the shift class.
    """
    paths = {kgraph.base: []}
    for i, j, K in kgraph.bfs_tree():
        paths[j] = paths[i] + [K]
    reps = {}
    elts = {}
    for qi, qv in enumerate(quot.vertices):
        ki = kgraph.vertex_index(qv)
        labels = paths[ki]
        u = element.identity(v.sys)
        for L in labels:
            w0_local = element.longest_element(tsys.abstract, L)
            u = u * tsys.embed(w0_local.word)
        cand = element.conjugate(v, u)
        red, witness = cycshift.cyclically_reduce(cand,
                                                  plateau_cap=PLATEAU_CAP)
        reps[qi] = {
            "word": list(red.word),
            "path": [sorted(L) for L in labels],
            "shift_witness": list(witness),
        }
        elts[qv] = red
    return reps, elts


def k_conj_certificate(v, L, tsys, budget=20000, full_check_cap=16):
    """Find (a, K) with W^eta_L = a W_K a^-1, a minimal in a W_K, and
    a^-1 v a cyclically reduced.

    Searches candidates a = minimal representative of (p a0 n) W_K over
    p in the finite reflection subgroup P = <iota(L)> and n in a growing
    ball of Pi_K-stabilising minimal representatives; cyclic reducedness is
    certified by the translation criterion or, for short conjugates, the
    shift search.  Raises SearchBudgetExceeded past the budget.
    """
    asys = tsys.asys
    sys = asys.sys
    gens = [tsys.embedding[i] for i in sorted(L)]
    P = _reflection_subgroup(sys, gens, cap=200000)
    a0, K = _standardize_reflection_subgroup(asys, gens)
    order_target = parabolic_order(sys, K)
    if len(P) != order_target:
        raise InternalMismatch("reflection subgroup has order %d, expected "
                               "%d" % (len(P), order_target))
    tried = 0
    for n in element.length_ball(sys, 24):
        # n Pi_K = Pi_K makes n minimal in both n W_K and W_K n
        if not element.maps_simples_onto(n, K, K):
            continue
        seen_a = set()
        for p in sorted(P, key=lambda e: e.sort_key()):
            a = element.min_coset_rep(p * a0 * n, K, "right")
            if a in seen_a:
                continue
            seen_a.add(a)
            tried += 1
            if tried > budget:
                raise SearchBudgetExceeded("no certificate within budget")
            cand = element.conjugate(v, a)
            if _certified_cyclically_reduced(cand, full_check_cap):
                return a, K, cand
    raise SearchBudgetExceeded("stabilising stream exhausted")


def _certified_cyclically_reduced(w, full_check_cap):
    if is_cyclically_reduced_sufficient(w):
        return True
    if w.length() <= full_check_cap:
        red, _ = cycshift.cyclically_reduce(w)
        return red.length() == w.length()
    return False


def _reflection_subgroup(sys, gens, cap):
    out = {element.identity(sys)}
    frontier = [element.identity(sys)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g
            if y not in out:
                out.add(y)
                frontier.append(y)
                if len(out) > cap:
                    raise SearchBudgetExceeded("reflection subgroup too big")
    return out


def _standardize_reflection_subgroup(asys, gens):
    """(a0, K) with <gens> = a0 W_K a0^-1, a0 minimal in a0 W_K."""
    fixed = affine_fixed_space([asys.element_map(g) for g in gens], asys.dim)
    if fixed is None:
        raise InternalMismatch("reflection subgroup has no fixed point")
    point, dirs = fixed
    walls = _walls_containing(asys, point, dirs)
    p = _generic_point(asys, point, dirs, walls)
    letters, q = asys.rs.affine_walk(p)
    word = tuple(asys.kac_to_gen[k] for k in letters)
    a0 = element.reduce(asys.sys, word)
    K = _cotype(asys, q)
    a0 = element.min_coset_rep(a0, K, "right")
    for g in gens:
        inside = a0.inverse() * g * a0
        if not inside.supp() <= K:
            raise InternalMismatch("walk did not standardise the subgroup")
    return a0, K
