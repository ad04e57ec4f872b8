"""Tests of the benchmark's independent checkers against known facts."""

import itertools

import numpy as np
import pytest

from checkers import TitsGroup
from systems import WORKED, affine, diagram_automorphisms, finite


@pytest.mark.parametrize("family, rank, label, expected", [
    ("A", 4, None, 10),      # n(n+1)/2
    ("B", 4, None, 16),      # n^2
    ("D", 5, None, 20),      # n(n-1)
    ("E", 6, None, 36),
    ("E", 8, None, 120),
    ("F", 4, None, 24),
    ("H", 3, None, 15),
    ("H", 4, None, 60),
    ("I2", 2, 7, 7),
])
def test_longest_element_length(family, rank, label, expected):
    assert TitsGroup(finite(family, rank, label)).longest_length() == expected


def test_length_of_words():
    g = TitsGroup(finite("A", 3))
    assert g.length([]) == 0
    assert g.length([0, 0]) == 0
    assert g.length([0, 1, 0]) == 3
    assert g.length([0, 1, 0, 1]) == 2      # (s0 s1)^3 = 1
    assert g.length([0, 2, 0, 2]) == 0      # s0 and s2 commute
    h = TitsGroup(affine("A", 2))
    assert h.length([0, 1, 2] * 4) == 12    # Coxeter elements are straight


def test_length_agrees_with_brute_force_in_b3():
    g = TitsGroup(finite("B", 3))

    def key(w):  # adding 0.0 turns -0.0 into 0.0
        return (np.round(g.matrix_of(w), 6) + 0.0).tobytes()

    words = [()]
    length = {key(()): 0}
    for ln in range(1, 10):
        nxt = []
        for w in words:
            for s in range(3):
                k = key(w + (s,))
                if k not in length:
                    length[k] = ln
                    nxt.append(w + (s,))
        words = nxt
        for w in words:
            assert g.length(w) == ln
    assert len(length) == 48


def test_shift_minimality():
    g = TitsGroup(finite("A", 3))
    assert g.is_shift_minimal([0, 1, 2])      # a Coxeter element
    assert not g.is_shift_minimal([0, 1, 0])  # s0 (s0 s1 s0) s0 = s1
    assert g.is_shift_minimal([])
    h = TitsGroup(affine("A", 2))
    assert not h.is_shift_minimal([1, 0, 1, 2, 1])


def test_worked_classes_are_shift_minimal_and_infinite():
    for system, matrix, word, _, _ in WORKED.values():
        g = TitsGroup(matrix)
        assert g.length(word) == len(word), system
        assert not g.has_finite_order(word), system


def test_charpoly_of_coxeter_element():
    # A_n: the Coxeter element acts with eigenvalues the nontrivial
    # (n+1)-th roots of unity, so chi(x) = 1 + x + ... + x^n.
    for n in (2, 4, 6):
        chi = TitsGroup(finite("A", n)).charpoly(list(range(n)))
        assert np.allclose(chi, np.ones(n + 1))


def test_charpoly_is_a_class_function():
    g = TitsGroup(affine("C", 3))
    w = [0, 1, 2, 3, 2, 1]
    for x in itertools.product(range(4), repeat=2):
        conj = list(reversed(x)) + w + list(x)
        assert g.same_charpoly(w, conj)
    assert not g.same_charpoly(w, [0, 1])


def test_finite_order():
    g = TitsGroup(affine("A", 2))
    assert g.has_finite_order([0, 1])            # order 3
    assert not g.has_finite_order([0, 1, 2])
    assert TitsGroup(finite("E", 8)).has_finite_order(list(range(8)))


def test_diagram_automorphisms():
    assert len(diagram_automorphisms(affine("A", 3))) == 8
    assert len(diagram_automorphisms(finite("D", 4))) == 6
    assert len(diagram_automorphisms(finite("E", 7))) == 1
