"""Shared helpers for the test suite."""

from coxconj import affine, coxmat
from coxconj.coxmat import CoxeterSystem


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
    """Untwisted affine Coxeter system in the Kac numbering."""
    ref, _special = coxmat._affine_reference(family, l)
    return CoxeterSystem(ref)


def random_word(rng, rank, length):
    return tuple(rng.randrange(rank) for _ in range(length))


def assert_affine_cross_checks(res):
    """Check an affine pipeline result against two independent routes.

    (delta_w, I_w) must agree with the standard-splitting computation, and
    the Xi_eta classes restricted to the K_delta vertex set must agree with
    the Xi_w orbits (Xi_eta itself need not stabilise the vertex set).
    """
    if res.tsys is None:
        return
    assert affine.delta_and_Iw_affine(res.standard, res.I_eta) == (
        res.delta_w, res.I_w)
    vertices = frozenset(res.kgraph.vertices)
    eta_classes = {frozenset(s.apply_set(v) for s in res.xi_eta) & vertices
                   for v in vertices}
    w_classes = {frozenset(s.apply_set(v) for s in res.xi_w)
                 for v in vertices}
    assert eta_classes == w_classes
