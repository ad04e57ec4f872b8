"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 asserts the classical description of the A_{4n+1} family
verbatim.  For n = 2 that description omits the two-component
K-conjugations (an explicit length-preserving certificate is exhibited in
test_affine.py::test_a9_cross_component_conjugation_certificate), so the
computed quotient carries chord edges and the assertion fails; see the
decisions ledger.  The failure is left in place deliberately.
"""

import itertools
import random
import time
import zlib
from fractions import Fraction

import pytest

from coxconj import (
    affine,
    coxmat,
    cycshift,
    element,
    finord,
    graph,
    indefinite,
    oracle,
)
from coxconj.coxmat import CoxeterSystem, classify, extended_autgroup
from coxconj.element import generator, longest_element, reduce
from coxconj.errors import FiniteOrder
from coxconj.linalg import vscale
from coxconj.rootdata import finite_root_system

from tests_util import (
    affine_system as make_affine,
    assert_affine_cross_checks,
    path_system,
    random_word,
)


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %02d %s %s" % (num, status, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def d7_ut(case):
    d7 = make_affine("D", 7)
    x = reduce(d7, (2, 1, 3, 2, 4, 3, 5, 4, 6, 5))
    t = generator(d7, 0) * (x * generator(d7, 7) * x.inverse())
    u = reduce(d7, (1, 3, 4, 5, 6) if case == 2 else (3, 4, 5, 6))
    return d7, u * t


def test_criterion_01_d7_case2():
    t0 = time.time()
    d7, w = d7_ut(2)
    res = affine.structural_graph_affine(w)
    names = res.tsys.local_names
    ok = (len(res.xi_w) == 1
          and res.delta_w.is_identity()
          and {names[i] for i in res.I_w} == {"s1", "s3", "s4", "s5", "s6"}
          and res.graph.n_vertices() == 4
          and res.graph.n_edges() == 4
          and all(len(res.graph.neighbours(i)) == 2 for i in range(4)))
    labels = {frozenset(names[i] for i in lv[0])
              for lv in res.graph.edge_labels.values()}
    ok = ok and labels == {
        frozenset({"s1", "s3", "s4", "s5", "s6", "s7"}),
        frozenset({"s1", "tau2", "s3", "s4", "s5", "s6"}),
        frozenset({"s1", "tau2", "s3", "s4", "s5", "s7"}),
        frozenset({"s1", "tau2", "s4", "s5", "s6", "s7"}),
    }
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10,
           "4-cycle with figure labels, %.1fs" % elapsed)


def test_criterion_02_d7_case1():
    d7, w = d7_ut(1)
    res = affine.structural_graph_affine(w)
    ok = (res.kgraph.n_vertices() == 4
          and res.graph.n_vertices() == 2
          and len(res.xi_eta) == 2
          and len(res.xi_w) == 2)
    report(2, ok, "4-vertex K graph, 2-vertex quotient")


def test_criterion_03_e7_suite():
    t0 = time.time()
    e7 = make_affine("E", 7)
    x = (generator(e7, 0) * longest_element(e7, {1, 2, 3, 4, 5})
         * longest_element(e7, {2, 3, 4, 5, 6, 7}) * generator(e7, 7))
    J = frozenset({2, 3, 4, 5, 7})
    ok = element.normalizes(x, J)
    ok = ok and affine.is_translation(x * x)
    _, I_eta, _ = affine.p_w_infty_standardize(
        x, assume_cyclically_reduced=True)
    ok = ok and I_eta == frozenset({1, 2, 3, 4, 5, 7})
    gens = affine.xi_eta(e7, I_eta)
    tsys = affine.transversal_system(e7, I_eta)
    group = affine.generate_group(gens, range(tsys.n_local))
    ok = ok and len(group) == 4  # <sigma_{s2} sigma_{s7}>, cyclic of order 4
    res1 = affine.structural_graph_affine(generator(e7, 4) * x)
    ok = ok and res1.graph.n_vertices() == 1
    res3 = affine.structural_graph_affine(reduce(e7, (1, 4, 5)) * x * x)
    ok = ok and res3.kgraph.n_vertices() == 8 and res3.graph.n_vertices() == 2
    res4 = affine.structural_graph_affine(reduce(e7, (1, 4, 5, 7)) * x * x)
    ok = ok and res4.graph.n_vertices() == 4
    closed = graph.quotient(
        graph.tight_closure(res4.kgraph, res4.tsys.abstract),
        res4.xi_w)
    ok = ok and closed.is_complete()
    elapsed = time.time() - t0
    report(3, ok and elapsed < 60, "E7 suite, %.1fs" % elapsed)


def test_criterion_04_a_family():
    results = []
    for n in (1, 2):
        l = 4 * n + 1
        sysA = make_affine("A", l)
        asys = affine.affine_system(sysA)
        lam = vscale(2, asys.rs.fundamental_coweights()[2 * n])
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(asys.dim))
                      for i in range(asys.dim))
        t = asys.element_from_affine_map((ident, lam))
        u = reduce(sysA, tuple(range(1, 2 * n))
                   + tuple(range(2 * n + 2, 4 * n + 1)))
        res = affine.structural_graph_affine(u * t)
        q = res.graph
        closed = graph.quotient(
            graph.tight_closure(res.kgraph, res.tsys.abstract),
            res.xi_w)
        is_cycle = (q.n_vertices() == 2 * n + 1
                    and q.n_edges() == 2 * n + 1
                    and all(len(q.neighbours(i)) == 2
                            for i in range(q.n_vertices())))
        tight_equal = closed.edge_labels.keys() == q.edge_labels.keys()
        diam = q.diameter()
        results.append((n, is_cycle, tight_equal, diam))
    ok = all(is_cycle and tight_equal and diam == n
             for (n, is_cycle, tight_equal, diam) in results)
    report(4, ok, "A_{4n+1} quotients: %s (chord certificate: see "
                  "test_affine.py and the decisions ledger)" % (results,))


EXPECTED_SPECIAL_PERMS = {
    ("A", 1): [{0: 1, 1: 0}],
    ("B", None): [{0: 1, 1: 0}],
    ("C", None): ["zero-to-l"],
    ("E", 6): [{0: 1, 1: 6, 6: 0}],
    ("E", 7): [{0: 7, 7: 0}],
    ("E", 8): [],
    ("F", 4): [],
    ("G", 2): [],
}


def test_criterion_05_extended_autgroups():
    ok = True
    details = []
    for family, ranks in [("A", range(1, 9)), ("B", range(3, 9)),
                          ("C", range(2, 9)), ("D", range(4, 9)),
                          ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))]:
        for l in ranks:
            sysA = make_affine(family, l)
            [(comp, tag)] = classify(sysA)
            gens = extended_autgroup(sysA, comp, tag)
            corr = tag.correspondence
            got = [{k: g(corr[k]) for k in tag.special} for g in gens]
            if family == "A":
                expect = [{k: (k + 1) % (l + 1) for k in range(l + 1)}]
            elif family == "B":
                expect = [{0: 1, 1: 0}]
            elif family == "C":
                expect = [{0: l, l: 0}]
            elif family == "D" and l % 2 == 1:
                expect = [{0: l - 1, l - 1: 1, 1: l, l: 0}]
            elif family == "D":
                expect = [{0: 1, 1: 0, l - 1: l, l: l - 1},
                          {0: l - 1, l - 1: 0, 1: l, l: 1}]
            elif (family, l) == ("E", 6):
                expect = [{0: 1, 1: 6, 6: 0}]
            elif (family, l) == ("E", 7):
                expect = [{0: 7, 7: 0}]
            else:
                expect = []
            if got != expect:
                ok = False
                details.append((family, l, got, expect))
    report(5, ok, "all nine affine families, ranks <= 8 %s" % (details,))


def test_criterion_06_xi_eta_sweep():
    t0 = time.time()
    types = ([("A", l) for l in range(1, 7)] + [("B", l) for l in (3, 4, 5, 6)]
             + [("C", l) for l in (2, 3, 4, 5, 6)]
             + [("D", l) for l in (4, 5, 6)]
             + [("E", 6), ("F", 4), ("G", 2)])
    count = 0
    for family, l in types:
        sysA = make_affine(family, l)
        asys = affine.affine_system(sysA)
        rs = finite_root_system(family, l)
        for rtotal in range(0, l):
            for I_bar in itertools.combinations(range(1, l + 1), rtotal):
                I_bar = set(I_bar)
                I = frozenset(asys.kac_to_gen[k] for k in I_bar)
                tsys = affine.transversal_system(sysA, I)
                group = affine.generate_group(
                    affine.xi_eta(sysA, I), range(tsys.n_local))
                got = {oracle.xi_encoding(tsys, g) for g in group}
                expect = oracle.xi_eta_oracle(rs, I_bar)
                assert got == expect, (family, l, sorted(I_bar))
                count += 1
    elapsed = time.time() - t0
    report(6, elapsed < 600, "%d subsets checked, %.0fs" % (count, elapsed))


def test_criterion_07_affine_oracle_equivalence():
    t0 = time.time()
    ok = True
    total = 0
    for family, l in [("A", 2), ("C", 2), ("G", 2), ("A", 3)]:
        sysA = make_affine(family, l)
        rng = random.Random(zlib.crc32(("%s%d" % (family, l)).encode()))
        done = 0
        while done < 50:
            w = reduce(sysA, random_word(rng, l + 1, rng.randint(1, 8)))
            try:
                res = affine.structural_graph_affine(w)
            except FiniteOrder:
                continue
            assert_affine_cross_checks(res)
            og = oracle.bfs_structural_oracle(w)
            if not oracle.matches_pipeline(og, res.graph, res.rep_elements):
                ok = False
                print("  mismatch:", family, l, w.word)
            done += 1
            total += 1
    elapsed = time.time() - t0
    report(7, ok and elapsed < 600, "%d words, %.0fs" % (total, elapsed))


def _d4_system():
    m = [[2] * 4 for _ in range(4)]
    for i in range(4):
        m[i][i] = 1
    for j in (0, 2, 3):
        m[1][j] = m[j][1] = 3
    return CoxeterSystem(m)


def test_criterion_08_finite_oracle_equivalence():
    t0 = time.time()
    systems = [
        ("A1", path_system([])), ("A2", path_system([3])),
        ("A3", path_system([3, 3])), ("A4", path_system([3, 3, 3])),
        ("B2", path_system([4])), ("B3", path_system([4, 3])),
        ("B4", path_system([4, 3, 3])), ("D4", _d4_system()),
        ("F4", path_system([3, 4, 3])), ("G2", path_system([6])),
        ("H3", path_system([5, 3])), ("H4", path_system([5, 3, 3])),
        ("I2(5)", path_system([5])), ("I2(7)", path_system([7])),
        ("I2(8)", path_system([8])),
    ]
    ok = True
    for name, sysF in systems:
        classes = oracle.finite_conjugacy_oracle(sysF)
        for c in classes:
            reps = [next(iter(cl)) for cl in c["shift_classes"]]
            supports = {r.supp() for r in reps}
            if len(supports) != len(reps):
                ok = False
                print("  support criterion failed in", name)
            res = finord.finite_structural_graph(reps[0])
            if res.graph.n_vertices() != len(c["shift_classes"]):
                ok = False
                print("  class count mismatch in", name, reps[0].word)
                continue
            got_vertices = set(res.graph.vertices)
            if got_vertices != supports:
                ok = False
                print("  vertex mismatch in", name)
            # edge agreement against the exhaustive search
            og_edges = set()
            assigned = {}
            for i, cl in enumerate(c["shift_classes"]):
                for v in cl:
                    assigned[v] = i
            spherical = [frozenset(K)
                         for r in range(1, sysF.rank + 1)
                         for K in itertools.combinations(range(sysF.rank), r)
                         if coxmat.is_spherical(sysF, frozenset(K))]
            for i, cl in enumerate(c["shift_classes"]):
                for u in cl:
                    for K in spherical:
                        if not u.twist.stabilises(K):
                            continue
                        if not element.normalizes(u, K):
                            continue
                        out = cycshift.k_conjugate(u, K)
                        j = assigned.get(out)
                        if j is not None and j != i:
                            og_edges.add(
                                (min(i, j), max(i, j)))
            index_of = {}
            for i, cl in enumerate(c["shift_classes"]):
                index_of[res.graph.vertex_index(next(iter(cl)).supp())] = i
            got_edges = {(min(index_of[a], index_of[b]),
                          max(index_of[a], index_of[b]))
                         for (a, b) in res.graph.edge_labels}
            if got_edges != og_edges:
                ok = False
                print("  edge mismatch in", name, reps[0].word)
        print("  %s: %d classes ok (%.0fs)" % (name, len(classes),
                                               time.time() - t0))
    report(8, ok, "all irreducible finite types of rank <= 4")


def test_criterion_09_indefinite_oracle():
    t0 = time.time()
    tri = CoxeterSystem([[1, 3, 3], [3, 1, 7], [3, 7, 1]])
    m = [[2] * 5 for _ in range(5)]
    for i in range(5):
        m[i][i] = 1
    for j in (2, 3, 4):
        m[0][j] = m[j][0] = 3
        m[1][j] = m[j][1] = 3
    fan = CoxeterSystem(m)
    # core splitting round-trips on the designed element
    x = reduce(fan, (2, 0, 1, 2, 3, 0, 1, 3, 4, 0, 1, 4))
    w = generator(fan, 0) * x * x
    split = indefinite.core_splitting(w)
    ok = (split.a * split.core ** split.n == w and split.n == 2
          and split.std_core == x)
    ok = ok and indefinite.is_core_splitting(
        split.standardizer.inverse() * w * split.standardizer,
        split.n, split.std_a, split.std_core)
    # oracle agreement on 20 random words across the two systems
    checked = 0
    for sysI, target, lengths in ((tri, 12, (4, 10)), (fan, 20, (5, 8))):
        rng = random.Random(sysI.rank)
        while checked < target:
            word = random_word(rng, sysI.rank, rng.randint(*lengths))
            v = reduce(sysI, word)
            v, _ = cycshift.cyclically_reduce(v)
            if v.supp() != sysI.full or v.length() == 0:
                continue
            res = indefinite.structural_graph_indefinite(v)
            og = oracle.bfs_structural_oracle(v)
            if not oracle.matches_pipeline(og, res.graph, res.rep_elements):
                ok = False
                print("  mismatch:", word)
            checked += 1
    elapsed = time.time() - t0
    report(9, ok, "%d oracle comparisons, %.0fs" % (checked, elapsed))


def test_criterion_10_element_layer():
    t0 = time.time()
    systems = [path_system([3, 3]), path_system([4, 3]),
               make_affine("A", 2), make_affine("C", 2),
               CoxeterSystem([[1, 3, 3], [3, 1, 7], [3, 7, 1]])]
    rng = random.Random(99)
    ok = True
    # Matsumoto roundtrips: 10^4 random word pairs per system
    for sysX in systems:
        for _ in range(10000):
            word = random_word(rng, sysX.rank, rng.randint(0, 10))
            w = reduce(sysX, word)
            again = reduce(sysX, w.word)
            if again != w or again.word != w.word:
                ok = False
                break
    # normalizer_split length additivity on accepted inputs
    b3 = path_system([4, 3])
    for _ in range(200):
        w = reduce(b3, random_word(rng, 3, rng.randint(0, 9)))
        for K in ({0}, {1}, {0, 1}, {1, 2}, {0, 1, 2}):
            if element.normalizes(w, K):
                w_I, n_I = element.normalizer_split(w, K)
                if w_I.length() + n_I.length() != w.length():
                    ok = False
    # w0(K) involution and op_K compatibility
    d5 = path_system([3, 3, 3, 3])
    for K in [frozenset({0, 1}), frozenset({1, 2, 3}), d5.full]:
        w0 = longest_element(d5, K)
        if not (w0 * w0).is_identity():
            ok = False
        op = coxmat.opposition(d5, K)
        for s in K:
            if w0 * generator(d5, s) * w0 != generator(d5, op(s)):
                ok = False
    # straightness criterion on sampled affine elements
    c2t = make_affine("C", 2)
    asys = affine.affine_system(c2t)
    sampled = 0
    tries = 0
    while sampled < 100 and tries < 3000:
        tries += 1
        w = reduce(c2t, random_word(rng, 3, rng.randint(1, 8)))
        A, _ = asys.element_map(w)
        k = asys.linear_order(A)
        wn = w ** k
        if not affine.is_translation(wn) or w.length() == 0:
            continue
        sampled += 1
        if wn.length() == k * w.length():
            for mm in (2, 3):
                if (w ** mm).length() != mm * w.length():
                    ok = False
        else:
            if indefinite.is_straight(w, 4):
                ok = False
    elapsed = time.time() - t0
    report(10, ok and sampled >= 100,
           "matsumoto/split/w0/straightness, %.0fs" % elapsed)
