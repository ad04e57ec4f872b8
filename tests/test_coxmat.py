import random

import pytest

from coxconj import coxmat
from coxconj.coxmat import (
    CoxeterSystem,
    DiagramAutomorphism,
    classify,
    classify_component,
    components,
    extended_autgroup,
    is_spherical,
    opposition,
    sigma_s,
    spherical_root_count,
)
from coxconj.errors import NonSpherical, UnsupportedShape


def path_system(labels):
    """Path diagram with the given consecutive edge labels."""
    n = len(labels) + 1
    m = [[2] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    for i, lab in enumerate(labels):
        m[i][i + 1] = m[i + 1][i] = lab
    return CoxeterSystem(m)


def affine_system(family, l):
    """Untwisted affine system in the Kac numbering."""
    ref, _special = coxmat._affine_reference(family, l)
    return CoxeterSystem(ref)


def test_components():
    a3 = path_system([3, 3])
    assert components(a3, {0, 2}) == [frozenset({0}), frozenset({2})]
    d7 = affine_system("D", 7)
    comps = components(d7, d7.full - {0, 2})
    assert comps == [frozenset({1}), frozenset({3, 4, 5, 6, 7})]
    e7 = affine_system("E", 7)
    comps = components(e7, e7.full - {0, 6})
    assert comps == [frozenset({1, 2, 3, 4, 5}), frozenset({7})]


def test_classify_basic():
    a2t = CoxeterSystem([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    [(comp, tag)] = classify(a2t)
    assert tag.symbol == "A2(1)"
    d7 = affine_system("D", 7)
    [(comp, tag)] = classify(d7, {3, 4, 5, 6, 7})
    assert tag.symbol == "D5"
    tri = CoxeterSystem([[1, 3, 3], [3, 1, 7], [3, 7, 1]])
    [(comp, tag)] = classify(tri)
    assert tag.kind == "indefinite"


def test_classify_more_types():
    cases = [
        ([3, 3, 3], "A4"),
        ([3, 3, 4], "B4"),
        ([3, 4, 3], "F4"),
        ([3, 5], "H3"),
        ([5, 3, 5], "Indefinite"),
        ([3, 3, 3, 5], "Indefinite"),  # H5 does not exist
        ([8], "I2(8)"),
        ([6], "G2"),
        ([4, 3, 4], "C3(1)"),
        ([4, 4], "C2(1)"),
        ([4, 3, 3, 4], "C4(1)"),
        ([4, 3, 3, 3], "B5"),
        ([3, 6], "G2(1)"),
    ]
    for labels, symbol in cases:
        sys = path_system(labels)
        [(comp, tag)] = classify(sys)
        assert tag.symbol == symbol, (labels, tag.symbol)
    # H4 with the Bourbaki edge order
    h4 = path_system([5, 3, 3])
    assert classify(h4)[0][1].symbol == "H4"


def test_classify_affine_families():
    for family, l in [("A", 1), ("A", 4), ("B", 3), ("B", 5), ("C", 2),
                      ("C", 4), ("D", 4), ("D", 7), ("E", 6), ("E", 7),
                      ("E", 8), ("F", 4), ("G", 2)]:
        sys = affine_system(family, l)
        [(comp, tag)] = classify(sys)
        assert tag.kind == "affine" and tag.family == family and tag.rank == l
        # deleting any special vertex leaves the finite type
        for j in tag.special:
            rest = sys.full - {tag.correspondence[j]}
            tags = [t for _, t in classify(sys, rest)]
            assert all(t.kind == "finite" for t in tags)


def test_classify_relabelling_invariance():
    rng = random.Random(7)
    base = affine_system("D", 5)
    for _ in range(10):
        perm = list(range(base.rank))
        rng.shuffle(perm)
        m = [[base.m(perm[i], perm[j]) for j in range(base.rank)]
             for i in range(base.rank)]
        sys2 = CoxeterSystem(m)
        tags1 = sorted(t.symbol for _, t in classify(base))
        tags2 = sorted(t.symbol for _, t in classify(sys2))
        assert tags1 == tags2


def test_is_spherical_and_root_count():
    d7 = affine_system("D", 7)
    assert not is_spherical(d7, d7.full)
    assert is_spherical(d7, {3, 4, 5, 6, 7})
    assert spherical_root_count(d7, {3, 4, 5, 6, 7}) == 20
    with pytest.raises(NonSpherical):
        spherical_root_count(d7, d7.full)


def test_opposition():
    b3 = path_system([3, 4])
    assert opposition(b3, b3.full).is_identity()
    a3 = path_system([3, 3])
    op = opposition(a3, a3.full)
    assert op(0) == 2 and op(2) == 0 and op(1) == 1
    d7 = affine_system("D", 7)
    op = opposition(d7, {3, 4, 5, 6, 7})  # type D5: swap the fork tips
    assert op(6) == 7 and op(7) == 6 and op(3) == 3
    # involution + component preservation on random spherical subsets
    rng = random.Random(3)
    for _ in range(20):
        I = frozenset(i for i in range(d7.rank) if rng.random() < 0.5)
        if not is_spherical(d7, I):
            continue
        op = opposition(d7, I)
        assert op.compose(op).is_identity()
        for comp in components(d7, I):
            assert op.apply_set(comp) == comp


def test_extended_autgroup_matches_classical_table():
    def gens_on_special(family, l):
        sys = affine_system(family, l)
        [(comp, tag)] = classify(sys)
        gens = extended_autgroup(sys, comp, tag)
        corr = tag.correspondence
        out = []
        for g in gens:
            out.append({k: g(corr[k]) for k in tag.special})
        return out

    assert gens_on_special("A", 3) == [{0: 1, 1: 2, 2: 3, 3: 0}]
    assert gens_on_special("B", 4) == [{0: 1, 1: 0}]
    assert gens_on_special("C", 3) == [{0: 3, 3: 0}]
    assert gens_on_special("D", 5) == [{0: 4, 4: 1, 1: 5, 5: 0}]
    assert gens_on_special("D", 6) == [
        {0: 1, 1: 0, 5: 6, 6: 5}, {0: 5, 5: 0, 1: 6, 6: 1}]
    assert gens_on_special("E", 6) == [{0: 1, 1: 6, 6: 0}]
    assert gens_on_special("E", 7) == [{0: 7, 7: 0}]
    assert gens_on_special("E", 8) == []
    assert gens_on_special("F", 4) == []
    assert gens_on_special("G", 2) == []


def test_omega_group_orders():
    expected = {("A", 4): 5, ("B", 3): 2, ("C", 3): 2, ("D", 5): 4,
                ("D", 6): 4, ("E", 6): 3, ("E", 7): 2, ("E", 8): 1,
                ("F", 4): 1, ("G", 2): 1}
    for (family, l), order in expected.items():
        sys = affine_system(family, l)
        [(comp, tag)] = classify(sys)
        group = coxmat.omega_group(sys, comp, tag)
        assert len(group) == order, (family, l)
        for g in group:
            coxmat.check_diagram_automorphism(sys, g)
            specials = {tag.correspondence[j] for j in tag.special}
            assert g.apply_set(specials) == specials


def test_sigma_s():
    # A_1^(1) component: sigma swaps tau and s
    sys = CoxeterSystem([[1, 0], [0, 1]])
    [(comp, tag)] = classify(sys)
    assert tag.symbol == "A1(1)"
    sig = sigma_s(sys, comp, tag, 0, 1)
    assert sig(0) == 1 and sig(1) == 0
    # non-special target gives the identity
    sysb = affine_system("B", 3)
    [(comp, tag)] = classify(sysb)
    tau = tag.correspondence[0]
    sig = sigma_s(sysb, comp, tag, tau, tag.correspondence[3])
    assert sig.is_identity()
    # D5(1): the element with tau -> local vertex 1 swaps the fork tips
    sysd = affine_system("D", 5)
    [(comp, tag)] = classify(sysd)
    c = tag.correspondence
    sig = sigma_s(sysd, comp, tag, c[0], c[1])
    assert sig(c[0]) == c[1] and sig(c[1]) == c[0]
    assert sig(c[4]) == c[5] and sig(c[5]) == c[4]
    assert sig(c[2]) == c[2] and sig(c[3]) == c[3]


def test_intern_shares_one_system_per_matrix_and_names(monkeypatch):
    monkeypatch.setattr(coxmat, "_INTERNED", {})
    doc = '{"rank": 3, "matrix": [[1, 3, 2], [3, 1, 4], [2, 4, 1]]}'
    first = CoxeterSystem.from_json(doc)
    assert CoxeterSystem.from_json(doc) is first
    assert CoxeterSystem.interned(first.matrix) is first
    named = CoxeterSystem.from_json(
        '{"matrix": [[1, 3, 2], [3, 1, 4], [2, 4, 1]],'
        ' "names": ["a", "b", "c"]}')
    assert named is not first and named.generator_names == ("a", "b", "c")
    # derived data persists on the shared system
    assert classify(first) is classify(CoxeterSystem.from_json(doc))


def test_intern_evicts_least_recently_used_at_cap(monkeypatch):
    monkeypatch.setattr(coxmat, "_INTERNED", {})
    cap = coxmat.INTERN_CAP
    dihedral = [CoxeterSystem.interned([[1, m], [m, 1]])
                for m in range(3, cap + 3)]
    assert len(coxmat._INTERNED) == cap
    # using the oldest makes the second oldest the next to go
    assert CoxeterSystem.interned([[1, 3], [3, 1]]) is dihedral[0]
    CoxeterSystem.interned([[1, cap + 3], [cap + 3, 1]])
    assert len(coxmat._INTERNED) == cap
    assert CoxeterSystem.interned([[1, 3], [3, 1]]) is dihedral[0]
    assert CoxeterSystem.interned([[1, 4], [4, 1]]) is not dihedral[1]


def test_intern_refuses_malformed_documents_every_time(monkeypatch):
    monkeypatch.setattr(coxmat, "_INTERNED", {})
    doc = '{"matrix": [[1, -3], [-3, 1]]}'
    for _ in range(2):
        with pytest.raises(UnsupportedShape):
            CoxeterSystem.from_json(doc)
    assert coxmat._INTERNED == {}
