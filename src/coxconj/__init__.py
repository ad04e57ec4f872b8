"""Structural conjugation graphs of conjugacy classes in Coxeter groups.

The conjugacy class of an element w of a Coxeter group decomposes its
minimal-length stratum into cyclic-shift classes; conjugations by longest
elements of normalised finite parabolics connect them.  This package
computes that labelled graph exactly, for ambient systems of finite,
affine and indefinite type, together with brute-force oracles used to
cross-validate every pipeline.

Entry points:

* ``coxmat.CoxeterSystem`` -- a system from its Coxeter matrix (0 = infinity)
* ``element.reduce`` / ``element.Element`` -- exact group arithmetic
* ``cycshift.cyc_class`` / ``cyc_min`` -- cyclic shift classes with witnesses
* ``finord.finite_structural_graph`` -- finite-order pipeline
* ``affine.structural_graph_affine`` -- affine pipeline
* ``indefinite.structural_graph_indefinite`` -- indefinite pipeline
* ``oracle`` -- independent brute-force reconstructions
* ``cli.main`` -- the ``coxconj`` command line tool
"""

from . import coxmat, cycshift, element, finord, graph, indefinite, oracle
from . import affine
from .coxmat import CoxeterSystem, DiagramAutomorphism, TypeTag

__all__ = [
    "affine", "cli", "coxmat", "cycshift", "element", "finord", "graph",
    "indefinite", "oracle", "CoxeterSystem", "DiagramAutomorphism", "TypeTag",
]
