import functools
import random
from fractions import Fraction

import pytest

from coxconj import affine, coxmat, cycshift, element, graph, oracle
from coxconj.affine import (
    affine_action,
    affine_system,
    delta_and_Iw_affine,
    is_translation,
    k_conj_certificate,
    p_w_infty_standardize,
    standard_splitting,
    structural_graph_affine,
    transversal_system,
    xi_eta,
)
from coxconj.element import generator, longest_element, reduce
from coxconj.errors import FiniteOrder
from coxconj.linalg import affine_fixed_space, vadd, vscale
from coxconj.rootdata import finite_root_system

from tests_util import (
    affine_system as make_affine,
    assert_affine_cross_checks,
    random_word,
)


def d7_data():
    d7 = make_affine("D", 7)
    x = reduce(d7, (2, 1, 3, 2, 4, 3, 5, 4, 6, 5))
    r_theta = x * generator(d7, 7) * x.inverse()
    t = generator(d7, 0) * r_theta
    return d7, t


def test_affine_action_basics():
    a2t = make_affine("A", 2)
    asys = affine_system(a2t)
    x = tuple(Fraction(i + 1, 3) for i in range(asys.dim))
    assert affine_action(a2t, (), x) == x
    w = reduce(a2t, (0, 1, 2))
    assert not is_translation(w)
    assert is_translation(w * w)  # glide reflection squared
    # a nonzero translation fixes no point
    assert affine_fixed_space([asys.element_map(w * w)], asys.dim) is None
    # the fixed planes of s0 and s1 meet in a line, found by stacking their
    # equations
    for s in (0, 1):
        _, dirs = affine_fixed_space([asys.word_map((s,))], asys.dim)
        assert len(dirs) == 2
    point, dirs = affine_fixed_space(
        [asys.word_map((0,)), asys.word_map((1,))], asys.dim)
    assert len(dirs) == 1
    for x in (point, vadd(point, dirs[0])):
        for s in (0, 1):
            assert affine_action(a2t, (s,), x) == x
    # the rank-one word map is the composite of the one-letter maps, and
    # each letter is an involution
    rng = random.Random(3)
    for family, l in (("A", 2), ("C", 2), ("G", 2), ("B", 3)):
        sysA = make_affine(family, l)
        asys = affine_system(sysA)
        ident = asys.word_map(())
        letters = [asys.word_map((s,)) for s in range(sysA.rank)]
        for f in letters:
            assert affine.compose_affine(f, f) == ident
        for length in (1, 5, 12):
            word = random_word(rng, sysA.rank, length)
            folded = functools.reduce(
                affine.compose_affine, [letters[s] for s in word], ident)
            assert asys.word_map(word) == folded


def test_d7_translation():
    d7, t = d7_data()
    assert is_translation(t)
    for s in set(range(1, 8)) - {2}:
        assert t * generator(d7, s) * t.inverse() == generator(d7, s)
    assert t * generator(d7, 2) * t.inverse() != generator(d7, 2)


def test_p_w_infty_standardize_d7():
    d7, t = d7_data()
    u = reduce(d7, (1, 3, 4, 5, 6))
    w = u * t
    a_w, I_eta, v = p_w_infty_standardize(w)
    assert a_w.is_identity() and v == w
    assert I_eta == frozenset(range(1, 8)) - {2}
    with pytest.raises(FiniteOrder):
        p_w_infty_standardize(generator(d7, 0))


def test_transversal_system_d7():
    d7, t = d7_data()
    I = frozenset(range(1, 8)) - {2}
    tsys = transversal_system(d7, I)
    assert tsys.local_names == ("s1", "s3", "s4", "s5", "s6", "s7",
                                "tau1", "tau2")
    # tau_2 equals the element named in the worked example
    tau2 = tsys.tau_elements[1]
    expected = reduce(d7, (2, 1, 3, 2, 0, 2, 3, 1, 2))
    assert tau2 == expected
    assert tau2.length() == 9
    # extended components are the affine extensions A_1^(1) and D_5^(1)
    assert [t.symbol for t in tsys.component_tags] == ["A1(1)", "D5(1)"]
    # abstract matrix agrees with reflection orders by construction; spot
    # check the infinite bond of the A_1^(1) part
    assert tsys.abstract.m(0, 6) == 0


def test_standard_splitting_d7():
    d7, t = d7_data()
    u = reduce(d7, (1, 3, 4, 5, 6))
    w = u * t
    w0, winf = standard_splitting(w)
    assert w0 == u and winf == t
    # a translation splits as (identity, w)
    w0, winf = standard_splitting(t)
    assert w0.is_identity() and winf == t


def test_d7_w_is_cyclically_reduced_and_splits():
    d7, t = d7_data()
    u = reduce(d7, (1, 3, 4, 5, 6))
    w = u * t
    # elliptic part in W and cyclically reduced certifies w cyclically reduced
    assert affine.is_cyclically_reduced_sufficient(w)
    I = frozenset(range(1, 8)) - {2}
    w_I, n_I = element.normalizer_split(w, I)
    assert w_I == u and n_I == t


def test_standard_splitting_glide():
    a2t = make_affine("A", 2)
    w = reduce(a2t, (0, 1, 2))
    w0, winf = standard_splitting(w)
    assert w0.is_identity() and winf == w


def test_delta_and_Iw_d7():
    d7, t = d7_data()
    I = frozenset(range(1, 8)) - {2}
    u = reduce(d7, (1, 3, 4, 5, 6))
    delta_w, I_w = delta_and_Iw_affine(u * t, I)
    assert delta_w.is_identity()
    tsys = transversal_system(d7, I)
    names = {tsys.local_names[i] for i in I_w}
    assert names == {"s1", "s3", "s4", "s5", "s6"}


def test_affine_pipeline_d7_case2():
    d7, t = d7_data()
    u = reduce(d7, (1, 3, 4, 5, 6))
    res = structural_graph_affine(u * t)
    assert_affine_cross_checks(res)
    assert res.kgraph.n_vertices() == 4 and res.kgraph.n_edges() == 4
    assert res.graph.n_vertices() == 4
    assert len(res.xi_eta) == 2 and len(res.xi_w) == 1
    names = res.tsys.local_names

    def vert(labels):
        return frozenset(names.index(x) for x in labels)

    assert set(res.kgraph.vertices) == {
        vert(("s1", "s3", "s4", "s5", "s6")),
        vert(("s1", "s3", "s4", "s5", "s7")),
        vert(("s1", "tau2", "s4", "s5", "s6")),
        vert(("s1", "tau2", "s4", "s5", "s7")),
    }
    expected_labels = {
        frozenset({"s1", "s3", "s4", "s5", "s6", "s7"}),
        frozenset({"s1", "tau2", "s3", "s4", "s5", "s6"}),
        frozenset({"s1", "tau2", "s3", "s4", "s5", "s7"}),
        frozenset({"s1", "tau2", "s4", "s5", "s6", "s7"}),
    }
    got = {frozenset(names[i] for i in labels[0])
           for labels in res.kgraph.edge_labels.values()}
    assert got == expected_labels


def test_affine_pipeline_d7_case1():
    d7, t = d7_data()
    u = reduce(d7, (3, 4, 5, 6))
    res = structural_graph_affine(u * t)
    assert_affine_cross_checks(res)
    assert res.kgraph.n_vertices() == 4
    assert res.graph.n_vertices() == 2
    assert len(res.xi_w) == 2


def test_xi_eta_d7():
    d7, _ = d7_data()
    I = frozenset(range(1, 8)) - {2}
    gens = xi_eta(d7, I)
    tsys = transversal_system(d7, I)
    group = affine.generate_group(gens, range(tsys.n_local))
    assert len(group) == 2
    nontrivial = [g for g in group if not g.is_identity()][0]
    names = tsys.local_names
    # sigma_1 sigma_2 swaps s1 <-> tau1 and acts on the D_5^(1) part by
    # exchanging tau2 <-> s3 and s6 <-> s7
    def idx(n):
        return names.index(n)
    assert nontrivial(idx("s1")) == idx("tau1")
    assert nontrivial(idx("tau2")) == idx("s3")
    assert nontrivial(idx("s6")) == idx("s7")
    assert nontrivial(idx("s4")) == idx("s4")
    # lattice oracle agreement
    rs = finite_root_system("D", 7)
    got = {oracle.xi_encoding(tsys, g) for g in group}
    assert got == oracle.xi_eta_oracle(rs, {1, 3, 4, 5, 6, 7})


def test_xi_eta_abelian_property():
    for family, l, I_bar in [("D", 7, {1, 3, 4, 5, 6, 7}),
                             ("A", 5, {1, 2, 4, 5}),
                             ("E", 7, {1, 2, 3, 4, 5, 7}),
                             ("C", 4, {1, 2, 4}),
                             ("B", 4, {1, 3, 4})]:
        sysA = make_affine(family, l)
        asys = affine_system(sysA)
        I = frozenset(asys.kac_to_gen[k] for k in I_bar)
        tsys = transversal_system(sysA, I)
        gens = xi_eta(sysA, I)
        for g in gens:
            for h in gens:
                assert g.compose(h) == h.compose(g)


def e7_x():
    e7 = make_affine("E", 7)
    x = (generator(e7, 0) * longest_element(e7, {1, 2, 3, 4, 5})
         * longest_element(e7, {2, 3, 4, 5, 6, 7}) * generator(e7, 7))
    return e7, x


def test_e7_example_setup():
    e7, x = e7_x()
    J = frozenset({2, 3, 4, 5, 7})
    assert element.normalizes(x, J)
    R = element.realization(e7)
    conj = {s: R.vec_supp(x.apply(R.basis_vector(s))) for s in J}
    assert conj[2] == frozenset({5}) and conj[5] == frozenset({2})
    for s in (3, 4, 7):
        assert conj[s] == frozenset({s})
    assert is_translation(x * x)
    _, I_eta, _ = p_w_infty_standardize(x, assume_cyclically_reduced=True)
    assert I_eta == frozenset({1, 2, 3, 4, 5, 7})


def test_e7_xi_eta():
    e7, _ = e7_x()
    I = frozenset({1, 2, 3, 4, 5, 7})
    tsys = transversal_system(e7, I)
    assert sorted(t.symbol for t in tsys.component_tags) == ["A1(1)", "D5(1)"]
    gens = xi_eta(e7, I)
    assert isinstance(gens, tuple) and xi_eta(e7, I) is gens  # kept on e7
    group = affine.generate_group(gens, range(tsys.n_local))
    assert len(group) == 4  # <sigma_{s2} sigma_{s7}> is cyclic of order 4
    rs = finite_root_system("E", 7)
    got = {oracle.xi_encoding(tsys, g) for g in group}
    assert got == oracle.xi_eta_oracle(rs, {1, 2, 3, 4, 5, 7})


def test_e7_delta_x():
    # delta_x = sigma_{s1} = (tau1, s1)(s2, s5) extended by (s3, s4)
    e7, x = e7_x()
    I = frozenset({1, 2, 3, 4, 5, 7})
    tsys = transversal_system(e7, I)
    y_word, delta = affine.transversal_action(affine_system(e7), tsys, x)
    names = tsys.local_names

    def idx(n):
        return names.index(n)

    assert delta(idx("s1")) == idx("tau1") and delta(idx("tau1")) == idx("s1")
    assert delta(idx("s2")) == idx("s5") and delta(idx("s5")) == idx("s2")
    assert delta(idx("s7")) == idx("s7") and delta(idx("tau2")) == idx("tau2")


def test_e7_cases():
    e7, x = e7_x()
    res1 = structural_graph_affine(generator(e7, 4) * x)
    assert res1.kgraph.n_vertices() == 2 and res1.graph.n_vertices() == 1
    res3 = structural_graph_affine(reduce(e7, (1, 4, 5)) * x * x)
    assert res3.kgraph.n_vertices() == 8 and res3.graph.n_vertices() == 2
    res4 = structural_graph_affine(reduce(e7, (1, 4, 5, 7)) * x * x)
    assert res4.kgraph.n_vertices() == 8 and res4.graph.n_vertices() == 4
    for res in (res1, res3, res4):
        assert_affine_cross_checks(res)
    closed = graph.tight_closure(res4.kgraph, res4.tsys.abstract)
    quot = graph.quotient(closed, res4.xi_w)
    assert quot.is_complete() and quot.n_vertices() == 4


def a_family_w(n):
    l = 4 * n + 1
    sysA = make_affine("A", l)
    asys = affine_system(sysA)
    lam = vscale(2, asys.rs.fundamental_coweights()[2 * n])
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(asys.dim))
                  for i in range(asys.dim))
    t = asys.element_from_affine_map((ident, lam))
    u = reduce(sysA, tuple(range(1, 2 * n)) + tuple(range(2 * n + 2, 4 * n + 1)))
    return sysA, u * t


def test_a5_family():
    sysA, w = a_family_w(1)
    res = structural_graph_affine(w)
    assert_affine_cross_checks(res)
    assert res.kgraph.n_vertices() == 9
    assert res.graph.n_vertices() == 3 and res.graph.diameter() == 1
    assert len(res.xi_eta) == 3 and len(res.xi_w) == 3


def test_a9_cross_component_conjugation_certificate():
    # An explicit K-conjugation between quotient classes at distance two
    # along the cycle: K = I_eta moves both components simultaneously, so
    # the structural graph of this class has chords in addition to the
    # cycle edges singled out in the classical treatment.
    sysA, w = a_family_w(2)
    I_eta = frozenset(range(1, 10)) - {5}
    assert element.normalizes(w, I_eta)
    wk = cycshift.k_conjugate(w, I_eta)
    assert wk.length() == w.length()
    tsys = transversal_system(sysA, I_eta)
    asys = affine_system(sysA)
    y1, d1 = affine.transversal_action(asys, tsys, w)
    y2, d2 = affine.transversal_action(asys, tsys, wk)
    supp1 = tsys.abstract_reduce(y1).supp()
    supp2 = tsys.abstract_reduce(y2).supp()
    names = tsys.local_names
    assert {names[i] for i in supp1} == {"s1", "s2", "s3", "s6", "s7", "s8"}
    assert {names[i] for i in supp2} == {"s2", "s3", "s4", "s7", "s8", "s9"}
    # the two supports are in different Xi_eta classes (distance two along
    # the cycle), certifying the chord edge
    gens = xi_eta(sysA, I_eta)
    group = affine.generate_group(gens, range(tsys.n_local))
    assert all(g.apply_set(supp1) != supp2 for g in group)


def test_straightness_criterion():
    # l(w^n) = n l(w) with w^n a translation forces straightness on samples
    c2t = make_affine("C", 2)
    asys = affine_system(c2t)
    rng = random.Random(23)
    checked = 0
    for _ in range(100):
        w = reduce(c2t, random_word(rng, 3, rng.randint(2, 7)))
        A, _ = asys.element_map(w)
        k = asys.linear_order(A)
        if k == 1 or w.length() == 0:
            continue
        wn = w ** k
        if not is_translation(wn):
            continue
        if wn.length() == k * w.length():
            for m in (2, 3, 4):
                assert (w ** m).length() == m * w.length()
            checked += 1
    assert checked >= 5


def test_k_conj_certificate_d7():
    d7, t = d7_data()
    u = reduce(d7, (1, 3, 4, 5, 6))
    res = structural_graph_affine(u * t)
    tsys = res.tsys
    names = tsys.local_names
    # paper certificate for L_1 = {s1, tau2, s3, s4, s5, s6}
    a1 = reduce(d7, (2, 1, 3, 2, 4, 3, 5, 4, 6, 5))
    K1 = frozenset({0, 1, 2, 3, 4, 6})
    conj_map = {0: "tau2", 1: "s3", 2: "s4", 3: "s5", 4: "s6", 6: "s1"}
    for k, target in conj_map.items():
        img = a1 * generator(d7, k) * a1.inverse()
        assert img == tsys.embedding[names.index(target)]
    assert element.min_coset_rep(a1, K1, "right") == a1
    # and the search produces some valid certificate for the same wall set
    L1 = frozenset(names.index(x) for x in ("s1", "tau2", "s3", "s4", "s5",
                                            "s6"))
    a, K, cand = k_conj_certificate(res.standard, L1, tsys, budget=50000)
    assert element.min_coset_rep(a, K, "right") == a
    for i in sorted(L1):
        inside = a.inverse() * tsys.embedding[i] * a
        assert inside.supp() <= K
    assert affine.is_cyclically_reduced_sufficient(cand) or \
        cycshift.is_cyclically_reduced(cand)
