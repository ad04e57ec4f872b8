"""Command line interface: classify, reduce, cyc, graph, tight, check.

Input systems are JSON documents {"rank": n, "matrix": [[...]], "names":
[...]} with infinity encoded as 0; words are whitespace-separated 0-based
generator indices.  A registry of built-in examples covers the reproducible
worked instances; `--verify` checks their outputs against pinned expected
values.  Identical inputs produce byte-identical outputs.
"""

import argparse
import json
import sys as _sys

from . import affine, coxmat, cycshift, element, finord, graph, indefinite, oracle
from .coxmat import CoxeterSystem
from .errors import CoxConjError, UnsupportedShape

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SHAPE = 3
EXIT_PIPELINE = 4
EXIT_MISMATCH = 5


def _affine_matrix(family, l):
    ref, _ = coxmat._affine_reference(family, l)
    return ref


def _example_d7(case):
    sysm = CoxeterSystem.interned(_affine_matrix("D", 7))
    x = element.reduce(sysm, (2, 1, 3, 2, 4, 3, 5, 4, 6, 5))
    t = element.generator(sysm, 0) * (x * element.generator(sysm, 7)
                                      * x.inverse())
    u = element.reduce(sysm, (1, 3, 4, 5, 6) if case == 2 else (3, 4, 5, 6))
    return sysm, (u * t).word


def _example_e7(case):
    sysm = CoxeterSystem.interned(_affine_matrix("E", 7))
    x = (element.generator(sysm, 0)
         * element.longest_element(sysm, {1, 2, 3, 4, 5})
         * element.longest_element(sysm, {2, 3, 4, 5, 6, 7})
         * element.generator(sysm, 7))
    u = {1: (4,), 3: (1, 4, 5), 4: (1, 4, 5, 7)}[case]
    w = element.reduce(sysm, u) * (x if case == 1 else x * x)
    return sysm, w.word


def _example_a_family(n):
    from fractions import Fraction
    from .linalg import vscale
    sysm = CoxeterSystem.interned(_affine_matrix("A", 4 * n + 1))
    asys = affine.affine_system(sysm)
    lam = vscale(2, asys.rs.fundamental_coweights()[2 * n])
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(asys.dim))
                  for i in range(asys.dim))
    t = asys.element_from_affine_map((ident, lam))
    u = element.reduce(sysm, tuple(range(1, 2 * n))
                       + tuple(range(2 * n + 2, 4 * n + 1)))
    return sysm, (u * t).word


def _example_fan():
    m = [[2] * 5 for _ in range(5)]
    for i in range(5):
        m[i][i] = 1
    for j in (2, 3, 4):
        m[0][j] = m[j][0] = 3
        m[1][j] = m[j][1] = 3
    sysm = CoxeterSystem.interned(m)
    x = element.reduce(sysm, (2, 0, 1, 2, 3, 0, 1, 3, 4, 0, 1, 4))
    w = element.generator(sysm, 0) * x * x
    return sysm, w.word


def _example_chain7():
    m = [[2] * 7 for _ in range(7)]
    for i in range(7):
        m[i][i] = 1
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (5, 3), (6, 2)]:
        m[a][b] = m[b][a] = 3
    sysm = CoxeterSystem.interned(m)
    x = (element.longest_element(sysm, frozenset({0, 1, 2, 3, 4, 6}))
         * element.longest_element(sysm, frozenset({0, 1, 2, 3, 4, 5})))
    w = (element.generator(sysm, 0) * element.generator(sysm, 2)) * x * x
    return sysm, w.word


def _example_tri337():
    sysm = CoxeterSystem.interned([[1, 3, 3], [3, 1, 7], [3, 7, 1]])
    return sysm, (0, 1, 2, 1, 0, 2)


EXAMPLES = {
    "d7-1": (_example_d7, (2,), {"vertices": 4, "edges": 4, "xi_w_order": 1}),
    "d7-1-case1": (_example_d7, (1,), {"vertices": 2, "xi_w_order": 2}),
    "e7-1-case1": (_example_e7, (1,), {"vertices": 1}),
    "e7-1-case3": (_example_e7, (3,), {"vertices": 2}),
    "e7-1-case4": (_example_e7, (4,), {"vertices": 4}),
    "a5-1": (_example_a_family, (1,), {"vertices": 3}),
    "a9-1": (_example_a_family, (2,), {"vertices": 5}),
    "ind-337": (_example_tri337, (), {"vertices": 1}),
    "ind-rank5": (_example_fan, (), {"vertices": 1}),
    "ind-rank7": (_example_chain7, (), {"vertices": 4, "edges": 6}),
}


def load_inputs(args):
    if args.example:
        if args.example not in EXAMPLES:
            raise UnsupportedShape("unknown example %r (have: %s)"
                                   % (args.example,
                                      ", ".join(sorted(EXAMPLES))))
        builder, params, _ = EXAMPLES[args.example]
        return builder(*params)
    if not args.system:
        raise UnsupportedShape("need --system FILE or --example NAME")
    with open(args.system) as fh:
        sysm = CoxeterSystem.from_json(fh.read())
    word = tuple(int(x) for x in (args.word or "").split())
    for s in word:
        if not 0 <= s < sysm.rank:
            raise UnsupportedShape("generator index %d out of range" % s)
    return sysm, word


def ambient_tag(sysm):
    tags = coxmat.classify(sysm)
    if len(tags) != 1:
        raise UnsupportedShape(
            "the ambient diagram is reducible; restrict to the component "
            "containing the parabolic closure of the input word")
    return tags[0][1]


def automorphism_json(names, auto):
    return {names[k]: names[v] for k, v in sorted(auto.mapping.items())
            if k != v}


def run_graph_pipeline(sysm, word):
    """Dispatch on the ambient type; returns a JSON-able report."""
    w = element.reduce(sysm, word)
    tag = ambient_tag(sysm)
    if tag.kind == "affine":
        asys = affine.affine_system(sysm)
        mu, _ = asys.translation_vector(w)
        finite_order = all(x == 0 for x in mu)
    else:
        finite_order = element.order(w) is not None
    if finite_order:
        red, _ = cycshift.cyclically_reduce(w)
        res = finord.finite_structural_graph(red)
        g = res.graph
        return {
            "pipeline": "finite-order",
            "ambient": tag.symbol,
            "graph": graph.to_dict(g),
        }, res, g
    if tag.kind == "affine":
        res = affine.structural_graph_affine(w)
        names = res.tsys.local_names if res.tsys else ()
        return {
            "pipeline": "affine",
            "ambient": tag.symbol,
            "I_eta": sorted(sysm.generator_names[i] for i in res.I_eta),
            "transversal": list(names),
            "delta_w": automorphism_json(names, res.delta_w)
            if res.tsys else {},
            "I_w": sorted(names[i] for i in res.I_w),
            "xi_eta_order": len(res.xi_eta),
            "xi_w_order": len(res.xi_w),
            "kgraph": graph.to_dict(res.kgraph),
            "graph": graph.to_dict(res.graph),
        }, res, res.graph
    if tag.kind == "indefinite":
        res = indefinite.structural_graph_indefinite(w)
        names = sysm.generator_names
        return {
            "pipeline": "indefinite",
            "ambient": "indefinite",
            "P_max": sorted(names[i] for i in res.split.subset),
            "core_exponent": res.split.n,
            "centraliser_degree": res.n_w,
            "delta_w": automorphism_json(names, res.delta_w),
            "I_w": sorted(names[i] for i in res.I_w),
            "xi_w_order": len(res.xi_w),
            "kgraph": graph.to_dict(res.kgraph),
            "graph": graph.to_dict(res.graph),
        }, res, res.graph
    raise UnsupportedShape("finite ambient with infinite-order input")


def _emit(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_classify(args):
    sysm, _ = load_inputs(args)
    report = {
        "rank": sysm.rank,
        "components": [
            {"generators": sorted(sysm.generator_names[i] for i in comp),
             "type": tag.symbol,
             "kind": tag.kind}
            for comp, tag in coxmat.classify(sysm)
        ],
        "spherical": coxmat.is_spherical(sysm, sysm.full),
    }
    _emit(args, json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_reduce(args):
    sysm, word = load_inputs(args)
    w = element.reduce(sysm, word)
    _emit(args, json.dumps({"word": list(w.word), "length": w.length()}))
    return EXIT_OK


def cmd_cyc(args):
    sysm, word = load_inputs(args)
    w = element.reduce(sysm, word)
    elements, pred = cycshift.cyc_class(w, max_size=args.max_class)
    m = min(v.length() for v in elements)
    report = {
        "size": len(elements),
        "min_length": m,
        "classes": [
            {"word": list(v.word),
             "witness": list(cycshift.witness_path(pred, v))}
            for v in elements if v.length() == m
        ],
    }
    _emit(args, json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_graph(args):
    sysm, word = load_inputs(args)
    report, _, g = run_graph_pipeline(sysm, word)
    if args.format == "dot":
        _emit(args, graph.to_dot(g))
    else:
        _emit(args, json.dumps(report, indent=2, sort_keys=True))
    if args.verify:
        if not args.example or args.example not in EXAMPLES:
            print("verify: no expected values for this input",
                  file=_sys.stderr)
            return EXIT_USAGE
        expected = EXAMPLES[args.example][2]
        got = {
            "vertices": len(report["graph"]["vertices"]),
            "edges": len(report["graph"]["edges"]),
            "xi_w_order": report.get("xi_w_order"),
        }
        for k, v in expected.items():
            if got.get(k) != v:
                print("verify: %s = %r, expected %r" % (k, got.get(k), v),
                      file=_sys.stderr)
                return EXIT_MISMATCH
        print("verify: OK", file=_sys.stderr)
    return EXIT_OK


def cmd_tight(args):
    sysm, word = load_inputs(args)
    report, res, _ = run_graph_pipeline(sysm, word)
    if report["pipeline"] == "affine" and res.tsys is not None:
        closed = graph.tight_closure(res.kgraph, res.tsys.abstract)
        closed = graph.quotient(closed, res.xi_w)
    elif report["pipeline"] == "indefinite":
        closed = graph.tight_closure(res.kgraph, sysm)
        closed = graph.quotient(closed, res.xi_w)
    else:
        closed = graph.tight_closure(res.graph, sysm)
    _emit(args, graph.export(closed, args.format or "json"))
    return EXIT_OK


def cmd_check(args):
    sysm, word = load_inputs(args)
    report, res, g = run_graph_pipeline(sysm, word)
    w = element.reduce(sysm, word)
    og = oracle.bfs_structural_oracle(w, budget=args.oracle_budget)
    if report["pipeline"] == "finite-order":
        reps = {v: res.representatives[g.vertex_index(v)].body
                for v in g.vertices}
    else:
        reps = res.rep_elements
    ok = oracle.matches_pipeline(og, g, reps)
    print("MATCH" if ok else "MISMATCH")
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser():
    p = argparse.ArgumentParser(
        prog="coxconj",
        description="Structural conjugation graphs of Coxeter group "
                    "conjugacy classes")
    p.add_argument("--system", help="JSON file with the Coxeter matrix")
    p.add_argument("--word", help="0-based generator indices, e.g. '1 3 4'")
    p.add_argument("--example", help="name of a built-in example")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.add_argument("--oracle-budget", type=int, default=None)
    p.add_argument("--max-class", type=int, default=200000)
    p.add_argument("--verify", action="store_true",
                   help="check built-in example output against pinned values")
    p.add_argument("command",
                   choices=("classify", "reduce", "cyc", "graph", "tight",
                            "check"))
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "classify": cmd_classify,
        "reduce": cmd_reduce,
        "cyc": cmd_cyc,
        "graph": cmd_graph,
        "tight": cmd_tight,
        "check": cmd_check,
    }[args.command]
    try:
        return handler(args)
    except UnsupportedShape as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return EXIT_SHAPE
    except CoxConjError as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return EXIT_PIPELINE
    except MemoryError:
        print("error: out of memory", file=_sys.stderr)
        return EXIT_PIPELINE
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    _sys.exit(main())
