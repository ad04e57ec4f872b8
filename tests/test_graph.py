import pytest

from coxconj.coxmat import DiagramAutomorphism
from coxconj.errors import NotStable
from coxconj.graph import ConjGraph, export, from_json, quotient, tight_closure

from tests_util import path_system


def square_graph():
    names = ("a", "b", "c", "d")
    verts = [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})]
    edges = [
        (verts[0], verts[1], [frozenset({0, 1})]),
        (verts[1], verts[2], [frozenset({1, 2})]),
        (verts[2], verts[3], [frozenset({2, 3})]),
        (verts[3], verts[0], [frozenset({0, 3})]),
    ]
    return ConjGraph(names, verts, edges, verts[0])


def test_basic_shape():
    g = square_graph()
    assert g.n_vertices() == 4 and g.n_edges() == 4
    assert g.is_connected()
    assert g.bfs_tree() == [(0, 1, frozenset({0, 1})),
                            (0, 3, frozenset({0, 3})),
                            (1, 2, frozenset({1, 2}))]
    apart = ConjGraph(("a", "b"), [frozenset({0}), frozenset({1})], [],
                      frozenset({0}))
    assert apart.bfs_tree() == [] and not apart.is_connected()
    assert g.diameter() == 2
    assert not g.is_complete()


def test_quotient():
    g = square_graph()
    assert quotient(g, []) == g
    rot = DiagramAutomorphism({0: 2, 2: 0, 1: 3, 3: 1})
    q = quotient(g, [rot])
    assert q.n_vertices() == 2 and q.n_edges() == 1
    # quotienting twice is idempotent
    assert quotient(q, []) == q
    bad = DiagramAutomorphism({0: 1, 1: 0, 2: 4, 4: 2, 3: 3})
    with pytest.raises(NotStable):
        quotient(g, [bad])


def test_tight_closure():
    # labels on the square are small enough that unions stay spherical in A4
    sys = path_system([3, 3, 3])
    g = square_graph()
    closed = tight_closure(g, sys)
    # the union of any two adjacent labels is spherical in A4, so the
    # diagonals appear and the graph becomes complete
    assert closed.is_complete()
    assert closed.n_vertices() == g.n_vertices()
    # with a sphericity test that rejects everything beyond single edges,
    # nothing is added
    closed2 = tight_closure(g, sys,
                            is_spherical=lambda K: len(K) <= 2)
    assert closed2.edge_labels.keys() == g.edge_labels.keys()


def test_export_roundtrip():
    g = square_graph()
    g.representatives = {0: {"word": [0, 1, 0]}}
    text = export(g, "json")
    back = from_json(text)
    assert back == g
    dot = export(g, "dot")
    assert dot.startswith("graph conj {") and 'v0 -- v1' in dot
    single = ConjGraph(("x",), [frozenset({0})], [], frozenset({0}))
    assert "v0" in export(single, "dot")
