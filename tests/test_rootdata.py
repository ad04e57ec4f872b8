from fractions import Fraction

import pytest

from coxconj.errors import VerificationFailed
from coxconj.linalg import dot, solve, vadd, vscale
from coxconj.rootdata import coroot, finite_root_system, positive_root_count


def test_positive_root_counts():
    for letter, rank, count in [
        ("A", 1, 1), ("A", 5, 15), ("B", 2, 4), ("B", 3, 9), ("C", 4, 16),
        ("D", 4, 12), ("D", 5, 20), ("D", 7, 42), ("E", 6, 36), ("E", 7, 63),
        ("E", 8, 120), ("F", 4, 24), ("G", 2, 6),
    ]:
        rs = finite_root_system(letter, rank)
        assert len(rs.positive_roots()) == count, (letter, rank)


def test_marks():
    assert finite_root_system("A", 4).marks() == (1, 1, 1, 1)
    assert finite_root_system("B", 3).marks() == (1, 2, 2)
    assert finite_root_system("C", 3).marks() == (2, 2, 1)
    assert finite_root_system("D", 7).marks() == (1, 2, 2, 2, 2, 1, 1)
    assert finite_root_system("E", 6).marks() == (1, 2, 2, 3, 2, 1)
    assert finite_root_system("E", 7).marks() == (2, 2, 3, 4, 3, 2, 1)
    assert finite_root_system("E", 8).marks() == (2, 3, 4, 6, 5, 4, 3, 2)
    assert finite_root_system("F", 4).marks() == (2, 3, 4, 2)
    assert finite_root_system("G", 2).marks() == (3, 2)


def test_special_nodes():
    assert finite_root_system("A", 3).special_nodes() == (0, 1, 2, 3)
    assert finite_root_system("B", 4).special_nodes() == (0, 1)
    assert finite_root_system("C", 4).special_nodes() == (0, 4)
    assert finite_root_system("D", 6).special_nodes() == (0, 1, 5, 6)
    assert finite_root_system("E", 7).special_nodes() == (0, 7)
    assert finite_root_system("G", 2).special_nodes() == (0,)


def test_cartan_entries():
    f4 = finite_root_system("F", 4)
    # alpha_2 long, alpha_3 short: <a2^vee, a3> = -1, <a3^vee, a2> = -2
    assert f4.cartan(1, 2) == -1 and f4.cartan(2, 1) == -2
    g2 = finite_root_system("G", 2)
    assert {abs(g2.cartan(0, 1)), abs(g2.cartan(1, 0))} == {1, 3}


def test_translation_perm_matches_extended_group():
    # A_3: the coweight w_1 rotates the affine 4-cycle by one step.
    rs = finite_root_system("A", 3)
    w1 = rs.fundamental_coweights()[0]
    perm = rs.translation_perm(w1)
    assert perm == {0: 1, 1: 2, 2: 3, 3: 0}

    # D_4: w_1 induces (0,1)(3,4) on the special vertices.
    rs = finite_root_system("D", 4)
    w1 = rs.fundamental_coweights()[0]
    perm = rs.translation_perm(w1)
    assert perm[0] == 1 and perm[1] == 0
    assert {perm[3], perm[4]} == {4, 3} and perm[3] != 3

    # E_7: w_7 induces (0,7).
    rs = finite_root_system("E", 7)
    w7 = rs.fundamental_coweights()[6]
    perm = rs.translation_perm(w7)
    assert perm[0] == 7 and perm[7] == 0

    # coroot translations act trivially on the diagram
    rs = finite_root_system("C", 3)
    perm = rs.translation_perm(coroot(rs.simple[0]))
    assert perm == {i: i for i in range(4)}


def test_root_coords_elimination():
    rs = finite_root_system("A", 2)
    a1, a2 = rs.simple
    assert rs.root_coords(vadd(a1, a2)) == (1, 1)
    # (1, 1, 1) is orthogonal to the plane spanned by the A2 roots
    assert rs.root_coords((1, 1, 1)) is None
    with pytest.raises(VerificationFailed):
        solve((a1, a2, vadd(a1, a2)), a1)


def test_coweight_class_vertex():
    rs = finite_root_system("A", 5)
    ws = rs.fundamental_coweights()
    assert rs.coweight_class_vertex(ws[2]) == 3
    assert rs.coweight_class_vertex(vscale(2, ws[2])) == 0  # 2*w_3 in Q^vee? no:
    # class of 2*w_3 in Z/6 is 6 -> 0 exactly when 2*3 = 6 = 0 mod 6
    assert rs.coweight_class_vertex(vadd(ws[0], ws[1])) == 3


def test_walk_returns_to_alcove():
    rs = finite_root_system("B", 3)
    p = (Fraction(7, 3), Fraction(-5, 2), Fraction(11, 7))
    letters, q = rs.affine_walk(p)
    for alpha in rs.simple:
        assert dot(q, alpha) >= 0
    assert dot(q, rs.highest_root()) <= 1
