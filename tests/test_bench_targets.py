"""The benchmark's tracer (coxbench/tracing.py) wraps coxconj functions by
name; every name it lists must resolve, or a traced benchmark run fails at
start-up."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "coxbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("coxbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    tracing = _tracing()
    missing = []
    for table in (tracing.SPANS, tracing.COUNTED):
        for name, targets in sorted(table.items()):
            for module, path in targets:
                owner = importlib.import_module("coxconj." + module)
                try:
                    for part in path.split("."):
                        owner = getattr(owner, part)
                except AttributeError:
                    missing.append("%s: coxconj.%s.%s" % (name, module, path))
                    continue
                if not callable(owner):
                    missing.append("%s: coxconj.%s.%s is not callable"
                                   % (name, module, path))
    assert not missing, missing
    # the word-extraction span and the heap-push counter patch these
    element = importlib.import_module("coxconj.element")
    cycshift = importlib.import_module("coxconj.cycshift")
    assert isinstance(element.Element.word, property)
    assert callable(cycshift.heapq.heappush)
