import random

import pytest

from coxconj import affine, cycshift, element, finord, oracle
from coxconj.coxmat import CoxeterSystem, DiagramAutomorphism
from coxconj.element import generator, reduce
from coxconj.errors import BudgetTooSmall, TooLarge
from coxconj.rootdata import finite_root_system

from tests_util import affine_system as make_affine, path_system, random_word


def test_default_budget():
    a3 = path_system([3, 3])
    assert oracle.default_budget(a3) == 12  # 2 * l(w0(A3))
    tri = CoxeterSystem([[1, 3, 3], [3, 1, 7], [3, 7, 1]])
    assert oracle.default_budget(tri) == 14  # 2 * l(w0(I2(7)))


def test_bfs_oracle_translation_single_class():
    a2t = make_affine("A", 2)
    w = reduce(a2t, (0, 1, 2, 0, 1, 2))  # glide reflection squared
    og = oracle.bfs_structural_oracle(w)
    assert og.n_vertices() == 1 and og.n_edges() == 0


def test_bfs_oracle_finite_agreement():
    a3 = path_system([3, 3])
    w = reduce(a3, (0, 2))
    og = oracle.bfs_structural_oracle(w)
    res = finord.finite_structural_graph(w)
    assert og.n_vertices() == res.graph.n_vertices()
    assert og.n_edges() == res.graph.n_edges()
    # generators: two classes {s0},{s2} vs {s1} in A3
    og = oracle.bfs_structural_oracle(generator(a3, 0))
    assert og.n_vertices() == 3 and og.verify_certificates()


def test_budget_too_small():
    c2t = make_affine("C", 2)
    w = reduce(c2t, (0, 1, 2, 1, 0, 2, 1, 2))
    with pytest.raises(BudgetTooSmall):
        oracle.bfs_structural_oracle(w, budget=0)


def test_finite_conjugacy_oracle_a2():
    a2 = path_system([3])
    classes = oracle.finite_conjugacy_oracle(a2)
    assert len(classes) == 3
    for c in classes:
        # every minimal stratum with full support is one shift class
        full = [cl for cl in c["shift_classes"]
                if next(iter(cl)).supp() == a2.full]
        if full:
            assert len(c["shift_classes"]) == len(c["supports"])
        supports = c["supports"]
        assert len(set(supports)) == len(supports)


def test_finite_conjugacy_oracle_b3_full_support():
    b3 = path_system([4, 3])
    for c in oracle.finite_conjugacy_oracle(b3):
        full = [cl for cl in c["shift_classes"]
                if next(iter(cl)).supp() == b3.full]
        assert len(full) <= 1  # cuspidal strata never split


def test_finite_conjugacy_oracle_twisted():
    a3 = path_system([3, 3])
    flip = DiagramAutomorphism({0: 2, 1: 1, 2: 0})
    classes = oracle.finite_conjugacy_oracle(a3, delta=flip)
    total = sum(len(c["elements"]) for c in classes)
    assert total == 24
    for c in classes:
        for cls in c["shift_classes"]:
            w = next(iter(cls))
            assert w.twist == flip


def test_finite_conjugacy_oracle_too_large():
    a2t = make_affine("A", 2)
    with pytest.raises(TooLarge):
        oracle.finite_conjugacy_oracle(a2t)


def test_xi_eta_oracle_empty_and_spot():
    rs = finite_root_system("D", 7)
    assert oracle.xi_eta_oracle(rs, set()) == {()}
    got = oracle.xi_eta_oracle(rs, {1, 3, 4, 5, 6, 7})
    assert len(got) == 2
    rs = finite_root_system("A", 5)
    got = oracle.xi_eta_oracle(rs, {1, 2, 4, 5})
    assert len(got) == 3


def test_xi_eta_oracle_matches_table_samples():
    cases = [
        ("A", 4, {1, 3}), ("A", 5, {1, 2, 4, 5}), ("B", 3, {1, 2}),
        ("B", 4, {1, 3, 4}), ("C", 3, {1, 3}), ("C", 4, {1, 2, 3}),
        ("D", 4, {1, 3, 4}), ("D", 5, {1, 2, 4, 5}), ("D", 6, {2, 4, 5, 6}),
        ("E", 6, {1, 3, 5, 6}), ("E", 6, {1, 2, 3, 5, 6}),
        ("E", 7, {2, 3, 4, 5, 7}), ("E", 7, {2, 3, 4, 5, 6, 7}),
        ("F", 4, {1, 2}), ("G", 2, {1}),
    ]
    for family, l, I_bar in cases:
        sysA = make_affine(family, l)
        asys = affine.affine_system(sysA)
        I = frozenset(asys.kac_to_gen[k] for k in I_bar)
        tsys = affine.transversal_system(sysA, I)
        gens = affine.xi_eta(sysA, I)
        group = affine.generate_group(gens, range(tsys.n_local))
        got = {oracle.xi_encoding(tsys, g) for g in group}
        rs = finite_root_system(family, l)
        expect = oracle.xi_eta_oracle(rs, I_bar)
        assert got == expect, (family, l, sorted(I_bar), got, expect)


def test_xi_eta_exceptional_gap_subsets():
    # subsets where the classical case analysis over-counts Xi_eta; the
    # component through s_4 is of type A entered away from an end
    cases = [("E", 6, {1, 3, 4, 5, 6}, 2), ("E", 7, {2, 4, 5, 6, 7}, 3)]
    for family, l, I_bar, order in cases:
        sysA = make_affine(family, l)
        asys = affine.affine_system(sysA)
        I = frozenset(asys.kac_to_gen[k] for k in I_bar)
        tsys = affine.transversal_system(sysA, I)
        group = affine.generate_group(affine.xi_eta(sysA, I),
                                      range(tsys.n_local))
        assert len(group) == order
        got = {oracle.xi_encoding(tsys, g) for g in group}
        rs = finite_root_system(family, l)
        assert got == oracle.xi_eta_oracle(rs, I_bar)


def test_matches_pipeline_negative():
    a3 = path_system([3, 3])
    og = oracle.bfs_structural_oracle(generator(a3, 0))
    res = finord.finite_structural_graph(generator(a3, 0))
    reps = {v: res.representatives[res.graph.vertex_index(v)].body
            for v in res.graph.vertices}
    assert oracle.matches_pipeline(og, res.graph, reps)
    # dropping a vertex breaks the bijection
    from coxconj.graph import ConjGraph
    small = ConjGraph(a3.generator_names, [frozenset({0})], [], frozenset({0}))
    assert not oracle.matches_pipeline(og, small, reps)
