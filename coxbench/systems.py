"""Coxeter matrices and worked classes used as benchmark inputs.

Matrices are built here from their Dynkin diagrams (0 encodes infinity),
so inputs reach coxconj only as JSON text, as they would from a user.
"""


def _matrix(n, edges):
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for a, b, lab in edges:
        m[a][b] = m[b][a] = lab
    return m


def _chain(nodes, lab=3):
    return [(a, b, lab) for a, b in zip(nodes, nodes[1:])]


def finite(family, rank, label=None):
    if family == "A":
        edges = _chain(range(rank))
    elif family == "B":
        edges = _chain(range(rank - 1)) + [(rank - 2, rank - 1, 4)]
    elif family == "D":
        edges = _chain(range(rank - 1)) + [(rank - 3, rank - 1, 3)]
    elif family == "E":
        edges = _chain([0, 2, 3, 4, 5, 6, 7][:rank - 1]) + [(1, 3, 3)]
    elif family == "F":
        edges = [(0, 1, 3), (1, 2, 4), (2, 3, 3)]
    elif family == "H":
        edges = [(0, 1, 5)] + _chain(range(1, rank))
    elif family == "I2":
        edges = [(0, 1, label)]
    else:
        raise ValueError(family)
    return _matrix(rank, edges)


def affine(family, l):
    """Affine diagram X_l^(1) on l + 1 vertices, vertex 0 the extra node."""
    n = l + 1
    if family == "A":
        edges = _chain(range(n)) + [(l, 0, 3)]
    elif family == "B":
        edges = [(0, 2, 3)] + _chain(range(1, l)) + [(l - 1, l, 4)]
    elif family == "C":
        edges = [(0, 1, 4)] + _chain(range(1, l)) + [(l - 1, l, 4)]
    elif family == "D":
        edges = [(0, 2, 3)] + _chain(range(1, l)) + [(l - 2, l, 3)]
    elif family == "F":
        edges = [(0, 1, 3), (1, 2, 3), (2, 3, 4), (3, 4, 3)]
    elif family == "G":
        edges = [(0, 1, 3), (1, 2, 6)]
    else:
        raise ValueError(family)
    return _matrix(n, edges)


_D7 = affine("D", 7)
_E7 = _matrix(8, _chain([0, 1, 3, 4, 5, 6, 7]) + [(2, 4, 3)])
_FAN5 = _matrix(5, [(a, b, 3) for a in (0, 1) for b in (2, 3, 4)])
_CHAIN7 = _matrix(7, _chain(range(5)) + [(5, 3, 3), (6, 2, 3)])


def diagram_automorphisms(matrix):
    """All permutations of the vertices that preserve the Coxeter matrix."""
    n = len(matrix)
    found = []

    def extend(perm):
        i = len(perm)
        if i == n:
            found.append(tuple(perm))
            return
        for image in range(n):
            if image not in perm and all(
                    matrix[i][j] == matrix[image][perm[j]] for j in range(i)):
                extend(perm + [image])

    extend([])
    return found


def _worked(system, matrix, word, vertices, edges):
    return system, matrix, tuple(int(x) for x in word.split()), vertices, edges


# The worked classes of coxconj's built-in examples: class name -> (system
# name, Coxeter matrix, word, vertex count, edge count of the structural
# graph).
WORKED = {
    "d7-1": _worked(
        "D7~", _D7, "0 1 2 1 3 2 1 4 3 2 5 4 3 6 5 4 7 5 4 3 2 1 6 5 4 3 2",
        4, 4),
    "d7-1-case1": _worked(
        "D7~", _D7, "0 2 1 3 2 1 4 3 2 5 4 3 6 5 4 7 5 4 3 2 1 6 5 4 3 2",
        2, 1),
    "e7-1-case1": _worked(
        "E7~", _E7, "0 1 3 4 2 3 5 4 3 1 6 5 4 2 3 4 5 6 7 6 5 4 2 3 4 5 6",
        1, 0),
    "a5-1": _worked(
        "A5~", affine("A", 5), "0 1 0 2 4 5 0 1 4 3 2 5 0 1 4 3 2 5 4 3",
        3, 3),
    "ind-337": _worked(
        "T337", [[1, 3, 3], [3, 1, 7], [3, 7, 1]], "0 1 2 1 0 2", 1, 0),
    "ind-rank5": _worked(
        "fan5", _FAN5,
        "0 2 0 1 2 3 0 1 3 4 0 1 2 4 0 1 2 3 0 1 3 4 0 1 4", 1, 0),
    "ind-rank7": _worked(
        "chain7", _CHAIN7,
        "0 2 6 2 1 0 3 2 1 4 3 2 6 2 1 0 3 2 1 4 3 2 5 3 4 6 2 1 0 3 2 1 5 3"
        " 2 4 3 5 6 2 1 0 3 2 1 4 3 2 6 2 1 0 3 2 1 4 3 2 5 3 4 6 2 1 0 3 2"
        " 1 5 3 2 4 3 5", 4, 6),
}
