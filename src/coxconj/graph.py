"""The ConjGraph container: quotients, tight closure, serialization.

Vertices are subsets of an abstract generator index space (labelled by
names); edges carry a distinguished K-label (the ShortLex-least of all
labels realising the edge) plus the full label multiset.  Vertex order is
by the sorted-tuple key, so DOT and JSON output are stable across runs.
"""

import json

from .errors import NotStable, UnsupportedShape


def subset_key(s):
    return tuple(sorted(s))


class ConjGraph:
    """A labelled simple graph over subsets of an index space."""

    def __init__(self, names, vertices, edges, base, representatives=None):
        """edges: iterable of (u, v, labels) with u, v vertex subsets and
        labels a collection of subset labels."""
        self.names = tuple(names)
        self.vertices = tuple(sorted({frozenset(v) for v in vertices},
                                     key=subset_key))
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if frozenset(base) not in self._index:
            raise UnsupportedShape("base vertex missing from the graph")
        self.base = self._index[frozenset(base)]
        edge_map = {}
        for (u, v, labels) in edges:
            iu, iv = self._index[frozenset(u)], self._index[frozenset(v)]
            if iu == iv:
                continue
            key = (min(iu, iv), max(iu, iv))
            edge_map.setdefault(key, set()).update(frozenset(l) for l in labels)
        self.edge_labels = {k: tuple(sorted(v, key=subset_key))
                            for k, v in sorted(edge_map.items())}
        self.edges = tuple(
            (i, j, labels[0] if labels else frozenset())
            for (i, j), labels in self.edge_labels.items())
        self.representatives = dict(representatives or {})

    def vertex_index(self, v):
        return self._index[frozenset(v)]

    def neighbours(self, i):
        out = []
        for (a, b), _ in self.edge_labels.items():
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(set(out))

    def edge_between(self, i, j):
        key = (min(i, j), max(i, j))
        return self.edge_labels.get(key)

    def n_vertices(self):
        return len(self.vertices)

    def n_edges(self):
        return len(self.edges)

    def bfs_tree(self):
        """Edges (parent, child, K) of the BFS tree from the base vertex.

        Each frontier is visited in vertex order and each vertex's
        neighbours in ascending order; K is the distinguished label of the
        tree edge.  Edges come in discovery order, so every parent appears
        before its children.
        """
        tree = []
        seen = {self.base}
        frontier = [self.base]
        while frontier:
            nxt = []
            for i in sorted(frontier):
                for j in self.neighbours(i):
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
                        labels = self.edge_between(i, j) or (frozenset(),)
                        tree.append((i, j, labels[0]))
            frontier = nxt
        return tree

    def is_connected(self):
        return len(self.bfs_tree()) == len(self.vertices) - 1

    def diameter(self):
        best = 0
        for src in range(len(self.vertices)):
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in self.neighbours(v):
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            nxt.append(u)
                frontier = nxt
            if len(dist) != len(self.vertices):
                raise UnsupportedShape("diameter of a disconnected graph")
            best = max(best, max(dist.values()))
        return best

    def is_complete(self):
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def subset_name(self, s):
        return "{%s}" % ",".join(self.names[i] for i in sorted(s))

    def __eq__(self, other):
        return (isinstance(other, ConjGraph)
                and self.names == other.names
                and self.vertices == other.vertices
                and self.edge_labels == other.edge_labels
                and self.base == other.base
                and self.representatives == other.representatives)

    def __repr__(self):
        return "ConjGraph(%d vertices, %d edges)" % (
            len(self.vertices), len(self.edges))


def quotient(g, gens):
    """Quotient of g by the group generated by diagram automorphisms.

    Vertex classes are orbits; the class representative is the subset-key
    least member.  Raises NotStable if a generator moves a vertex outside
    the vertex set.
    """
    verts = set(g.vertices)
    for gen in gens:
        for v in verts:
            if gen.apply_set(v) not in verts:
                raise NotStable("automorphism does not stabilise the vertices")
    orbit_of = {}
    for v in g.vertices:
        if v in orbit_of:
            continue
        orbit = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for gen in gens:
                for img in (gen.apply_set(u), gen.inverse().apply_set(u)):
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
        rep = min(orbit, key=subset_key)
        for u in orbit:
            orbit_of[u] = rep
    edges = []
    for (i, j), labels in g.edge_labels.items():
        u = orbit_of[g.vertices[i]]
        v = orbit_of[g.vertices[j]]
        if u != v:
            edges.append((u, v, labels))
    reps = {}
    for i, data in g.representatives.items():
        rep = orbit_of[g.vertices[i]]
        reps.setdefault(rep, data)
    out_vertices = sorted(set(orbit_of.values()), key=subset_key)
    out = ConjGraph(g.names, out_vertices, edges,
                    orbit_of[g.vertices[g.base]])
    out.representatives = {out.vertex_index(v): d for v, d in reps.items()}
    return out


def tight_closure(g, ambient, is_spherical=None):
    """Add an edge for every spherical path of g.

    A path I_0 -K_1-> ... -K_k-> I_k is spherical when the union of its
    labels is spherical (delta-invariance of the union is automatic).  The
    search prunes on the running union and caps path length at the vertex
    count.
    """
    if is_spherical is None:
        from . import coxmat
        is_spherical = lambda K: coxmat.is_spherical(ambient, K)
    n = len(g.vertices)
    new_edges = set()
    for start in range(n):
        # DFS over (vertex, union of labels) states
        stack = [(start, frozenset(), 0)]
        seen_states = set()
        while stack:
            v, union, depth = stack.pop()
            if depth >= n:
                continue
            for (a, b), labels in g.edge_labels.items():
                if a != v and b != v:
                    continue
                u = b if a == v else a
                for lab in labels:
                    union2 = union | lab
                    if not is_spherical(union2):
                        continue
                    if u != start:
                        new_edges.add((min(start, u), max(start, u)))
                    state = (u, union2)
                    if state not in seen_states:
                        seen_states.add(state)
                        stack.append((u, union2, depth + 1))
    edges = [(g.vertices[i], g.vertices[j], labels)
             for (i, j), labels in g.edge_labels.items()]
    for (i, j) in new_edges:
        if (i, j) not in g.edge_labels:
            edges.append((g.vertices[i], g.vertices[j], ()))
    out = ConjGraph(g.names, g.vertices, edges, g.vertices[g.base])
    out.representatives = dict(g.representatives)
    return out


# ---------------------------------------------------------------------------
# serialization


def to_dict(g):
    """The JSON-able form of g that to_json serialises."""
    data = {
        "names": list(g.names),
        "vertices": [],
        "edges": [],
        "base": g.base,
    }
    for i, v in enumerate(g.vertices):
        entry = {"subset": sorted(v)}
        if i in g.representatives:
            entry.update(g.representatives[i])
        data["vertices"].append(entry)
    for (i, j), labels in g.edge_labels.items():
        data["edges"].append({
            "from": i,
            "to": j,
            "label": sorted(labels[0]) if labels else [],
            "labels": [sorted(l) for l in labels],
        })
    return data


def to_json(g):
    return json.dumps(to_dict(g), indent=2, sort_keys=True)


def from_json(text):
    data = json.loads(text)
    names = data["names"]
    vertices = [frozenset(v["subset"]) for v in data["vertices"]]
    reps = {}
    for i, v in enumerate(data["vertices"]):
        extra = {k: val for k, val in v.items() if k != "subset"}
        if extra:
            reps[i] = extra
    edges = []
    for e in data["edges"]:
        labels = [frozenset(l) for l in e["labels"]]
        edges.append((vertices[e["from"]], vertices[e["to"]], labels))
    g = ConjGraph(names, vertices, edges, vertices[data["base"]])
    g.representatives = {
        g.vertex_index(vertices[i]): extra for i, extra in reps.items()}
    return g


def to_dot(g):
    lines = ["graph conj {"]
    for i, v in enumerate(g.vertices):
        shape = ", shape=box" if i == g.base else ""
        lines.append('  v%d [label="%s"%s];' % (i, g.subset_name(v), shape))
    for (i, j), labels in g.edge_labels.items():
        if labels:
            lines.append('  v%d -- v%d [label="%s"];'
                         % (i, j, g.subset_name(labels[0])))
        else:
            lines.append('  v%d -- v%d;' % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def export(g, fmt):
    if fmt == "json":
        return to_json(g)
    if fmt == "dot":
        return to_dot(g)
    raise UnsupportedShape("unknown export format %r" % fmt)
