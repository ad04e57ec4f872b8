"""The three benchmark workloads: seeded request lists and output checks.

A workload is a round of requests, each one coxconj command line on a
system given by its Coxeter matrix; the benchmark repeats whole rounds.

The cost of a request depends mostly on the conjugacy class of its word,
and random classes differ in cost by a factor of 100.  So the classes of a
round are drawn once, from the fixed POOL_SEED, and --seed only picks the
words that stand for them: a random conjugate x^-1 w x, or a cyclic
rotation of w relabelled by a diagram automorphism.  Two seeds thus send
different words that do the same work, and the round's make-up (systems,
lengths, classes, repeats) never changes.
"""

import json
import random

from checkers import TitsGroup
from systems import WORKED, affine, diagram_automorphisms, finite

POOL_SEED = 20201211

# Length of the random conjugator x in the conjugates x^-1 w x.
CONJ_LEN = 3

# infinite-order: (system, matrix, number of base words, their lengths);
# each base word is sent as CONJUGATES different conjugates.
LIGHT_SYSTEMS = [
    ("A2~", affine("A", 2), 24, (6, 9, 12)),
    ("C2~", affine("C", 2), 24, (6, 9, 12)),
    ("G2~", affine("G", 2), 12, (5, 8, 11)),
    ("A3~", affine("A", 3), 12, (6, 9, 12)),
    ("D4~", affine("D", 4), 10, (6, 9, 12)),
    ("B3~", affine("B", 3), 8, (6, 9, 12)),
    ("C3~", affine("C", 3), 4, (6, 9, 12)),
    ("A4~", affine("A", 4), 2, (6, 9, 12)),
    ("D5~", affine("D", 5), 2, (6, 9, 12)),
]
CONJUGATES = 2

# finite-sweep: FINITE_PER_LENGTH words of each length 0..MAX_FINITE_LEN
# per system; half the systems are simply laced.
FINITE_SYSTEMS = [
    ("A6", finite("A", 6)), ("D6", finite("D", 6)), ("E6", finite("E", 6)),
    ("E7", finite("E", 7)), ("E8", finite("E", 8)),
    ("B5", finite("B", 5)), ("F4", finite("F", 4)), ("H3", finite("H", 3)),
    ("H4", finite("H", 4)), ("I2(7)", finite("I2", 2, 7)),
]
MAX_FINITE_LEN = 24
FINITE_PER_LENGTH = 1

# oracle-check: (system, matrix, words per length 1..MAX_ORACLE_LEN).
ORACLE_SYSTEMS = [
    ("A2~", affine("A", 2), 6),
    ("C2~", affine("C", 2), 6),
    ("G2~", affine("G", 2), 5),
    ("A3~", affine("A", 3), 5),
    ("B3~", affine("B", 3), 1),
    ("T337", [[1, 3, 3], [3, 1, 7], [3, 7, 1]], 1),
]
MAX_ORACLE_LEN = 10


def random_word(rng, rank, length):
    """A word without two equal adjacent letters."""
    word = []
    while len(word) < length:
        s = rng.randrange(rank)
        if not word or word[-1] != s:
            word.append(s)
    return word


def conjugate_word(x, w):
    """A word for x^-1 w x."""
    return list(reversed(x)) + list(w) + list(x)


def disguise(rng, autos, w):
    """A random cyclic rotation of w, relabelled by a random automorphism.

    The rotation is a conjugate of w; the relabelling is the image of that
    conjugate under a symmetry of the diagram.
    """
    r = rng.randrange(len(w)) if w else 0
    perm = rng.choice(autos)
    return [perm[s] for s in w[r:] + w[:r]]


def _infinite_order_word(rng, group, rank, length):
    # Short words in affine groups are mostly of finite order, and some
    # lengths have no word of infinite order at all: step the length up.
    while True:
        for _ in range(200):
            w = random_word(rng, rank, length)
            if not group.has_finite_order(w):
                return w
        length += 1


class Workload:
    """Requests of one round plus the systems and warm-up requests."""

    def __init__(self, name, command):
        self.name = name
        self.command = command
        self.systems = {}
        self.requests = []

    def add_system(self, name, matrix):
        self.systems[name] = matrix

    def add(self, system, word, cls=None, expect=None):
        self.requests.append({
            "system": system, "word": list(word), "command": self.command,
            "class": cls, "expect": expect,
        })

    def warmups(self):
        """One cheap request per system, on the word s0 s1."""
        return [{"system": name, "word": [0, 1], "command": self.command}
                for name in self.systems]


def infinite_order(seed):
    pool, rng = random.Random(POOL_SEED), random.Random(seed)
    wl = Workload("infinite-order", "graph")
    for name, (system, matrix, word, nv, ne) in WORKED.items():
        wl.add_system(system, matrix)
        x = random_word(rng, len(matrix), CONJ_LEN)
        wl.add(system, conjugate_word(x, word), cls=name, expect=(nv, ne))
    for name, matrix, count, lengths in LIGHT_SYSTEMS:
        wl.add_system(name, matrix)
        group = TitsGroup(matrix)
        for k in range(count):
            base = _infinite_order_word(pool, group, len(matrix),
                                        lengths[k % len(lengths)])
            for _ in range(CONJUGATES):
                x = random_word(rng, len(matrix), CONJ_LEN)
                wl.add(name, conjugate_word(x, base), cls="%s#%d" % (name, k))
    return wl


def finite_sweep(seed):
    pool, rng = random.Random(POOL_SEED), random.Random(seed)
    wl = Workload("finite-sweep", "graph")
    for name, matrix in FINITE_SYSTEMS:
        wl.add_system(name, matrix)
        autos = diagram_automorphisms(matrix)
        for length in range(MAX_FINITE_LEN + 1):
            for _ in range(FINITE_PER_LENGTH):
                base = random_word(pool, len(matrix), length)
                wl.add(name, disguise(rng, autos, base))
    return wl


def oracle_check(seed):
    pool, rng = random.Random(POOL_SEED), random.Random(seed)
    wl = Workload("oracle-check", "check")
    for name, matrix, per_length in ORACLE_SYSTEMS:
        wl.add_system(name, matrix)
        autos = diagram_automorphisms(matrix)
        for length in range(1, MAX_ORACLE_LEN + 1):
            for _ in range(per_length):
                base = random_word(pool, len(matrix), length)
                wl.add(name, disguise(rng, autos, base))
    return wl


WORKLOADS = {
    "infinite-order": infinite_order,
    "finite-sweep": finite_sweep,
    "oracle-check": oracle_check,
}


# ---------------------------------------------------------------------------
# output checks


def _check_graph_report(group, word, report, finite_vertices):
    """Problems with one `graph` report, as a list of strings."""
    problems = []
    g = report["graph"]
    n = len(g["vertices"])
    if not _connected(n, [(e["from"], e["to"]) for e in g["edges"]]):
        problems.append("graph not connected")
    reps = [v["word"] for v in g["vertices"] if "word" in v]
    if len(reps) != n:
        problems.append("a vertex has no representative")
    lengths = set()
    for rep in reps:
        ln = group.length(rep)
        lengths.add(ln)
        if ln != len(rep):
            problems.append("representative word %s not reduced" % rep)
        if not group.is_shift_minimal(rep):
            problems.append("representative %s shortened by a shift" % rep)
        if not group.same_charpoly(rep, word):
            problems.append("representative %s not conjugate to the input"
                            % rep)
    if len(lengths) > 1:
        problems.append("representatives of lengths %s" % sorted(lengths))
    if finite_vertices:
        for v in g["vertices"]:
            if sorted(set(v.get("word", []))) != v["subset"]:
                problems.append("vertex %s is not its representative's "
                                "support" % v["subset"])
    return problems


def _connected(n, edges):
    if n == 0:
        return False
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    todo = [0]
    while todo:
        for j in adj[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == n


def check_outputs(wl, outputs, graph_outputs, completed):
    """Problems found in the outputs of one round, as a list of strings.

    outputs[i] is the standard output of request i; graph_outputs[i] is the
    output of `graph` on the same input (equal to outputs[i] for `graph`
    workloads).  Only the requests listed in completed are checked.
    """
    problems = []
    groups = {name: TitsGroup(m) for name, m in wl.systems.items()}
    counts_by_class = {}
    for i in completed:
        req = wl.requests[i]
        where = "request %d (%s %s)" % (i, req["system"], req["word"])
        if req["command"] == "check" and outputs[i].strip() != "MATCH":
            problems.append("%s: oracle verdict %r" % (where,
                                                       outputs[i].strip()))
        report = json.loads(graph_outputs[i])
        found = _check_graph_report(groups[req["system"]], req["word"],
                                    report, wl.name == "finite-sweep")
        g = report["graph"]
        counts = (len(g["vertices"]), len(g["edges"]))
        if wl.name == "infinite-order" and report["pipeline"] == "finite-order":
            found.append("finite-order pipeline on an infinite-order input")
        if req["expect"] is not None and counts != tuple(req["expect"]):
            found.append("counts %s, expected %s" % (counts,
                                                     tuple(req["expect"])))
        if req["class"] is not None:
            seen = counts_by_class.setdefault(req["class"], counts)
            if seen != counts:
                found.append("counts %s differ from %s for another conjugate"
                             % (counts, seen))
        problems.extend("%s: %s" % (where, p) for p in found)
    return problems
