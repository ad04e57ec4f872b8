"""Spans and counters around coxconj's public functions.

The tracer wraps functions of the imported coxconj modules from outside
(the program itself carries no tracing).  A span records its duration and
its self time (duration minus the time of the spans it caused), keyed by
(parent span, span); counters record work at the same boundaries.  An
exception that leaves a layer, i.e. escapes a span whose parent belongs to
another layer or is the top level, counts against that layer.
"""

import collections
import functools
import heapq
import time

LAYERS = ("field", "element", "cycshift", "coxmat", "finord", "affine",
          "indefinite", "graph", "cli", "oracle")

# span name -> (module, attribute path), wrapped as a timed span.  The
# span "element.word" times ShortLex word extraction (Tracer._wrap_word).
SPANS = {
    "field.sign": [("field", "CyclotomicScalars.sign"),
                   ("field", "RationalScalars.sign")],
    "element.ops": [
        ("element", name) for name in (
            "reduce", "longest_element", "min_coset_rep", "normalizes",
            "normalizer_split", "twist_of_normalizer", "root_closure",
            "reflection_word", "parabolic_closure", "order", "conjugate",
            "permute_element", "twist_element", "Element.__mul__",
            "Element.__pow__", "TwistedElement.__mul__",
            "TwistedElement.__pow__")],
    "cycshift.reduce": [("cycshift", "cyclically_reduce")],
    "cycshift.class": [("cycshift", "cyc_class")],
    "cycshift.kconj": [("cycshift", "k_conjugate")],
    "coxmat.classify": [("coxmat", "classify")],
    "finord.kdelta": [("finord", "kdelta_component")],
    "finord.graph": [("finord", "finite_structural_graph")],
    "affine.translation": [("affine", "AffineSystem.translation_vector")],
    "affine.standardize": [("affine", "p_w_infty_standardize")],
    "affine.transversal_build": [("affine", "transversal_system")],
    "affine.transversal_action": [("affine", "transversal_action")],
    "affine.splitting": [("affine", "standard_splitting"),
                         ("affine", "delta_and_Iw_affine")],
    "affine.xi_eta": [("affine", "xi_eta"), ("affine", "generate_group")],
    "affine.other": [("affine", "structural_graph_affine"),
                     ("affine", "affine_system"),
                     ("affine", "_affine_representatives")],
    "indefinite.mn": [("indefinite", "mn"), ("indefinite", "msn")],
    "indefinite.core_splitting": [("indefinite", "core_splitting")],
    "indefinite.centraliser": [("indefinite", "centraliser_degree")],
    "indefinite.other": [("indefinite", "structural_graph_indefinite")],
    "graph.quotient": [("graph", "quotient")],
    "graph.to_json": [("graph", "to_json")],
    "cli.other": [("cli", "main"), ("cli", "run_graph_pipeline")],
    "oracle.bfs": [("oracle", "bfs_structural_oracle")],
    "oracle.match": [("oracle", "matches_pipeline")],
}

# counter -> (module, attribute path), wrapped as a call count.
COUNTED = {
    "element.gen_steps": [
        ("element", "Realization." + name) for name in (
            "left_mul_gen", "right_mul_gen", "_left_mul_gen_int",
            "_right_mul_gen_int")],
    "element.mat_products": [("element", "Realization.mat_mul")],
    "cycshift.shift_attempts": [("element", "Element.shift"),
                                ("element", "TwistedElement.shift")],
}

# span -> (counter, size of the result) for results whose size is work done.
RESULT_SIZES = {
    "cycshift.class": ("cycshift.class_elements", lambda res: len(res[0])),
    "finord.kdelta": ("finord.kdelta_vertices",
                      lambda res: len(res.vertices)),
    "oracle.bfs": ("oracle.stratum_size",
                   lambda res: sum(len(c) for c in res.classes)),
}

# Per-layer metrics: name -> (unit, how it is computed from the totals).
# "self:<span>" sums self time, "calls:<span>" counts calls,
# "count:<counter>" reads a counter.
PER_LAYER = {
    "field.sign_calls": ("count", "calls:field.sign"),
    "field.sign_s": ("s", "self:field.sign"),
    "element.gen_steps": ("count", "count:element.gen_steps"),
    "element.mat_products": ("count", "count:element.mat_products"),
    "element.words_extracted": ("count", "calls:element.word"),
    "element.word_s": ("s", "self:element.word"),
    "element.self_s": ("s", "self:element.ops"),
    "cycshift.reduce_calls": ("count", "calls:cycshift.reduce"),
    "cycshift.reduce_s": ("s", "self:cycshift.reduce"),
    "cycshift.shift_attempts": ("count", "count:cycshift.shift_attempts"),
    "cycshift.shift_yield": ("ratio", None),
    "cycshift.class_elements": ("count", "count:cycshift.class_elements"),
    "cycshift.class_s": ("s", "self:cycshift.class"),
    "cycshift.kconj_s": ("s", "self:cycshift.kconj"),
    "coxmat.classify_calls": ("count", "calls:coxmat.classify"),
    "coxmat.classify_s": ("s", "self:coxmat.classify"),
    "finord.kdelta_vertices": ("count", "count:finord.kdelta_vertices"),
    "finord.kdelta_s": ("s", "self:finord.kdelta"),
    "finord.graph_s": ("s", "self:finord.graph"),
    "affine.translation_s": ("s", "self:affine.translation"),
    "affine.standardize_s": ("s", "self:affine.standardize"),
    "affine.transversal_build_s": ("s", "self:affine.transversal_build"),
    "affine.transversal_action_s": ("s", "self:affine.transversal_action"),
    "affine.splitting_s": ("s", "self:affine.splitting"),
    "affine.xi_eta_s": ("s", "self:affine.xi_eta"),
    "affine.self_s": ("s", "self:affine.other"),
    "indefinite.mn_s": ("s", "self:indefinite.mn"),
    "indefinite.core_splitting_s": ("s", "self:indefinite.core_splitting"),
    "indefinite.centraliser_s": ("s", "self:indefinite.centraliser"),
    "indefinite.self_s": ("s", "self:indefinite.other"),
    "graph.quotient_s": ("s", "self:graph.quotient"),
    "graph.to_json_s": ("s", "self:graph.to_json"),
    "cli.self_s": ("s", "self:cli.other"),
    "cli.output_bytes": ("count", "count:cli.output_bytes"),
    "oracle.bfs_s": ("s", "self:oracle.bfs"),
    "oracle.stratum_size": ("count", "count:oracle.stratum_size"),
    "oracle.match_s": ("s", "self:oracle.match"),
}
PER_LAYER.update({"%s.errors" % layer: ("count", "errors:%s" % layer)
                  for layer in LAYERS})


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, layer, time of child spans]
        self.spans = {}  # (parent name, name) -> [calls, total s, self s]
        self.counts = collections.Counter()
        self.errors = collections.Counter()

    def span(self, name, fn, result_size=None):
        layer = name.split(".", 1)[0]
        stack, spans, errors = self.stack, self.spans, self.errors
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent is None or parent[1] != layer:
                    errors[layer] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                key = (parent[0] if parent else None, name)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
            if result_size is not None:
                key, size = result_size
                counts[key] += size(result)
            return result

        return traced

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules):
        """Wrap the functions named above in the given coxconj modules."""
        for name, targets in SPANS.items():
            for module, path in targets:
                _replace(modules[module], path,
                         lambda fn: self.span(name, fn,
                                              RESULT_SIZES.get(name)))
        for key, targets in COUNTED.items():
            for module, path in targets:
                _replace(modules[module], path,
                         lambda fn: self.counted(key, fn))
        self._wrap_word(modules["element"].Element)
        self._count_heap_pushes(modules["cycshift"])

    def _wrap_word(self, cls):
        """Time ShortLex word extraction, which happens on first access."""
        extract = self.span("element.word", cls.word.fget)

        def word(elt):
            if elt._word is None:
                return extract(elt)
            return elt._word

        cls.word = property(word, doc=cls.word.__doc__)

    def _count_heap_pushes(self, cycshift):
        """Every push onto a shift-search heap is a newly found element."""
        counts = self.counts

        class CountingHeapq:
            heappop = staticmethod(heapq.heappop)

            @staticmethod
            def heappush(heap, item):
                counts["cycshift.new_elements"] += 1
                heapq.heappush(heap, item)

        cycshift.heapq = CountingHeapq

    def metrics(self, completed):
        """Every per-layer metric, per completed request."""
        calls = collections.Counter()
        selfs = collections.Counter()
        for (_, name), (n, _, self_s) in self.spans.items():
            calls[name] += n
            selfs[name] += self_s
        out = {}
        for metric, (unit, source) in PER_LAYER.items():
            if source is None:
                attempts = self.counts["cycshift.shift_attempts"]
                value = (self.counts["cycshift.new_elements"] / attempts
                         if attempts else 0.0)
                out[metric] = {"value": value, "unit": unit}
                continue
            kind, key = source.split(":", 1)
            total = {"self": selfs, "calls": calls, "count": self.counts,
                     "errors": self.errors}[kind][key]
            out[metric] = {"value": total / completed, "unit": unit}
        return out

    def dump(self):
        """The span tree as a list of records, for the trace file."""
        return [{"parent": parent, "span": name, "calls": n,
                 "total_s": total, "self_s": self_s}
                for (parent, name), (n, total, self_s) in sorted(
                    self.spans.items(), key=lambda kv: -kv[1][1])]


def _replace(module, path, wrap):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    setattr(owner, parts[-1], wrap(getattr(owner, parts[-1])))
