"""Independent brute-force reconstructions used to validate the pipelines.

The oracles share with the production pipelines only the element
arithmetic, the root systems of ``rootdata`` (embedded subsystems
included) and the rational linear algebra of ``linalg``: the structural
graph is rebuilt from first principles (bounded conjugate enumeration,
shift-class partition, exhaustive edge search), Xi_eta is recomputed
lattice-theoretically, and finite groups are enumerated outright.
"""

import itertools

from . import coxmat, cycshift, element, finord
from .errors import BudgetTooSmall, TooLarge
from .linalg import dot, orthogonal_projection
from .rootdata import coroot, embedded_root_system


def default_budget(sys):
    """2 * max length of w_0(K) over spherical subsets K (documented bound)."""
    best = 0
    for r in range(1, sys.rank + 1):
        for K in itertools.combinations(range(sys.rank), r):
            K = frozenset(K)
            if coxmat.is_spherical(sys, K):
                best = max(best, coxmat.spherical_root_count(sys, K))
    return 2 * best


def bfs_structural_oracle(w, budget=None):
    """Structural conjugation graph rebuilt by bounded shift search.

    Explores conjugates v -> svs keeping l(v) <= l_min + budget, collects
    the minimal stratum, partitions it into shift classes, and adds an
    edge between classes whenever some member and some spherical K realise
    a K-conjugation between them.  Vertices are labelled by the class of
    the ShortLex-least member; the graph names are synthetic.
    """
    sys = w.sys
    computed_default = default_budget(sys)
    if budget is None:
        budget = computed_default
    R = w.R
    left, right, sign = R.left_mul_gen, R.right_mul_gen, R.col_sign
    rank = sys.rank
    # raw BFS over (mat, inv) pairs with incremental lengths
    seen = {w.mat: (w.inv_mat, w.length())}
    frontier = [w.mat]
    best = w.length()
    cut = False
    while frontier:
        nxt = []
        for mat in frontier:
            inv, ln = seen[mat]
            for s in range(rank):
                l1 = ln + (-1 if sign(inv, s) < 0 else 1)
                m1 = left(s, mat)
                l2 = l1 + (-1 if sign(m1, s) < 0 else 1)
                if l2 > best + budget:
                    cut = True
                    continue
                m2 = right(m1, s)
                if m2 in seen:
                    continue
                i1 = right(inv, s)
                i2 = left(s, i1)
                seen[m2] = (i2, l2)
                nxt.append(m2)
                if l2 < best:
                    best = l2
        frontier = nxt
    if cut and budget < computed_default:
        raise BudgetTooSmall("boundary shifts were cut below the documented "
                             "sufficiency bound")
    stratum = sorted(
        (element.Element(R, mat, inv, length=ln)
         for mat, (inv, ln) in seen.items() if ln == best),
        key=lambda e: e.sort_key())
    classes = []
    assigned = {}
    for v in stratum:
        if v in assigned:
            continue
        cls, _ = cycshift.cyc_class(v)
        cls = frozenset(cls)
        idx = len(classes)
        classes.append(cls)
        for u in cls:
            assigned[u] = idx
    # edges: exhaustive (member, spherical K) search with certificates
    edges = set()
    certificates = {}
    spherical = [frozenset(K) for r in range(1, sys.rank + 1)
                 for K in itertools.combinations(range(sys.rank), r)
                 if coxmat.is_spherical(sys, frozenset(K))]
    for i, cls in enumerate(classes):
        for u in sorted(cls, key=lambda e: e.sort_key()):
            for K in spherical:
                if not element.normalizes(u, K):
                    continue
                out = cycshift.k_conjugate(u, K)
                j = assigned.get(out)
                if j is not None and j != i:
                    key = (min(i, j), max(i, j))
                    if key not in edges:
                        edges.add(key)
                        certificates[key] = (u, K, out)
    return OracleGraph(classes, edges, certificates, assigned.get(w, 0))


class OracleGraph:
    """Shift-class partition of the minimal stratum with K-conjugation edges."""

    def __init__(self, classes, edges, certificates, base):
        self.classes = classes
        self.edges = edges
        self.certificates = certificates
        self.base = base

    def class_of(self, v):
        for i, cls in enumerate(self.classes):
            if v in cls:
                return i
        return None

    def n_vertices(self):
        return len(self.classes)

    def n_edges(self):
        return len(self.edges)

    def verify_certificates(self):
        for (i, j), (u, K, out) in self.certificates.items():
            assert u in self.classes[i] or u in self.classes[j]
            assert cycshift.k_conjugate(u, K) == out
        return True

    def __repr__(self):
        return "OracleGraph(%d classes, %d edges)" % (
            len(self.classes), len(self.edges))


def matches_pipeline(oracle_graph, pipeline_graph, rep_elements):
    """Compare an oracle graph with a pipeline ConjGraph via representatives.

    rep_elements maps pipeline vertex subsets to elements of the minimal
    stratum.  Returns True when the vertex partitions correspond
    bijectively and the edge relations agree.
    """
    mapping = {}
    for i, vtx in enumerate(pipeline_graph.vertices):
        el = rep_elements[vtx]
        cls = oracle_graph.class_of(el)
        if cls is None:
            return False
        mapping[i] = cls
    if sorted(mapping.values()) != list(range(len(oracle_graph.classes))):
        return False
    pipeline_edges = {(min(mapping[i], mapping[j]), max(mapping[i], mapping[j]))
                      for (i, j) in pipeline_graph.edge_labels}
    return pipeline_edges == set(oracle_graph.edges)


# ---------------------------------------------------------------------------
# finite-group class enumeration


def finite_conjugacy_oracle(sys, K=None, delta=None, cap=2000000):
    """Full delta-conjugacy partition of a finite W_K with min strata.

    Returns a list of dicts: {"elements", "min_stratum", "shift_classes",
    "supports"}; shift classes refine the minimal stratum.
    """
    K = sys.full if K is None else frozenset(K)
    if not coxmat.is_spherical(sys, K):
        raise TooLarge("cannot enumerate an infinite group")
    group = finord.enumerate_parabolic(sys, K)
    if len(group) > cap:
        raise TooLarge("group order %d exceeds cap" % len(group))
    if delta is None:
        delta = coxmat.DiagramAutomorphism.identity(sys.full)
    classes = []
    assigned = set()
    for g in sorted(group, key=lambda e: e.sort_key()):
        if g in assigned:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            v = frontier.pop()
            for s in K:
                x = element.generator(sys, s)
                u = x * v * element.permute_element(delta, x)
                if u not in orbit:
                    orbit.add(u)
                    frontier.append(u)
        assigned |= orbit
        m = min(v.length() for v in orbit)
        stratum = {v for v in orbit if v.length() == m}
        twisted = {element.TwistedElement(v, delta) for v in stratum}
        shift_classes = []
        left = set(twisted)
        while left:
            seed = min(left, key=lambda e: e.sort_key())
            cls, _ = cycshift.cyc_class(seed)
            cls = frozenset(cls)
            shift_classes.append(cls)
            left -= cls
        classes.append({
            "elements": frozenset(orbit),
            "min_stratum": frozenset(twisted),
            "shift_classes": shift_classes,
            "supports": [next(iter(c)).supp() for c in shift_classes],
        })
    return classes


# ---------------------------------------------------------------------------
# lattice-theoretic Xi_eta oracle


def xi_eta_oracle(rs, I_bar):
    """Xi_eta recomputed from the coroot lattice.

    rs is the ambient finite root system (type X_l of the affine system
    X_l^(1)); I_bar is a set of Bourbaki indices 1..l, a proper subset.
    Each coroot generator of the translation lattice is orthogonally
    projected onto the span of Phi_I; its class in the coweight lattice of
    each component picks out a special-vertex automorphism of the extended
    component diagram.  Returns the generated subgroup as a frozenset of
    tuples of (component position, special Kac vertex of the component).

    The encoding is lattice-level; ``affine.xi_eta`` output is converted to
    the same encoding for comparison by the caller.
    """
    comp_data = transversal_components(rs, I_bar)
    gens = set()
    for j in range(rs.rank):
        lam = coroot(rs.simple[j])
        gens.add(project_translation_class(rs, comp_data, lam))
    # generate the subgroup under componentwise class addition
    group = set()
    frontier = set(gens)
    identity = tuple(0 for _ in comp_data)
    group.add(identity)
    while frontier:
        g = frontier.pop()
        if g in group:
            continue
        group.add(g)
        for h in list(group):
            s = _add_classes(rs, comp_data, g, h)
            if s not in group:
                frontier.add(s)
    return frozenset(group)


def xi_encoding(tsys, sigma):
    """Encode a transversal diagram automorphism in the lattice encoding.

    Per component, the image of tau_i under sigma is either tau_i (class 0)
    or an I-generator, reported as its local Kac vertex (position within
    the sorted component, one-based).  Only elements of the extended
    groups, e.g. Xi_eta members, are encodable.
    """
    out = []
    for ci, comp in enumerate(tsys.components_ambient):
        tau = tsys.tau_local[ci]
        img = sigma(tau)
        if img == tau:
            out.append(0)
        else:
            gen = tsys.locals_I[img]
            out.append(sorted(comp).index(gen) + 1)
    return tuple(out)


def transversal_components(rs, I_bar):
    """Per-component data of Phi_I: (indices, simple roots, special map)."""
    I_bar = sorted(I_bar)
    adj = {i: set() for i in I_bar}
    for a in I_bar:
        for b in I_bar:
            if a != b and dot(rs.simple[a - 1], rs.simple[b - 1]) != 0:
                adj[a].add(b)
    comps = []
    left = set(I_bar)
    while left:
        seed = min(left)
        comp = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        left -= comp
        comps.append(sorted(comp))
    out = []
    for comp in comps:
        simple = [rs.simple[i - 1] for i in comp]
        out.append((tuple(comp), tuple(simple)))
    return tuple(out)


def _add_classes(rs, comp_data, g, h):
    out = []
    for (comp, simple), a, b in zip(comp_data, g, h):
        sub = embedded_root_system(simple)
        verts = sub.alcove_vertices()
        lam = tuple(x + y for x, y in zip(verts[a], verts[b]))
        out.append(sub.coweight_class_vertex(lam))
    return tuple(out)


def project_translation_class(rs, comp_data, lam):
    out = []
    for (comp, simple) in comp_data:
        mu = orthogonal_projection(list(simple), lam)
        sub = embedded_root_system(simple)
        out.append(sub.coweight_class_vertex(mu))
    return tuple(out)
