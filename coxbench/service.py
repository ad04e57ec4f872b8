"""The measured process: set up coxconj, then serve one closed loop.

Run by run.py as `python3 service.py PLAN RESULT`.  PLAN is a JSON file
written by run.py; RESULT receives timings, outputs and metrics.  This
process imports coxconj and the standard library only, so its peak RSS is
that of the program serving the requests.

Requests go through `coxconj.cli.main` in-process, one after another, with
standard output and error captured in memory.  Each request names a system
file, so every request parses its Coxeter system from JSON and starts with
cold per-system caches; module-level caches stay warm after set-up.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def call(cli, argv):
    """(exit code, seconds, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def argv_of(req, system_files, command=None):
    return ["--system", system_files[req["system"]],
            "--word", " ".join(map(str, req["word"])),
            command or req["command"]]


def set_up(warmups, system_files):
    """Import coxconj afresh and send one warm-up request per system."""
    for name in [m for m in sys.modules
                 if m == "coxconj" or m.startswith("coxconj.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("coxconj.cli")
    for req in warmups:
        code, _, _, err = call(cli, argv_of(req, system_files))
        if code != 0:
            raise RuntimeError("warm-up request %s failed (%r): %s"
                               % (req, code, err))
    return time.perf_counter() - start, cli


def serve(plan):
    os.environ.pop("COXCONJ_CACHE_DIR", None)
    sys.path.insert(0, plan["src"])
    files = plan["system_files"]
    setups = []
    for _ in range(plan["setups"]):
        seconds, cli = set_up(plan["warmups"], files)
        setups.append(seconds)
    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({name.rsplit(".", 1)[1]: mod
                        for name, mod in sys.modules.items()
                        if name.startswith("coxconj.")})
    requests = plan["requests"]
    argvs = [argv_of(req, files) for req in requests]
    latencies = []
    seconds_by_round = []
    codes = [None] * len(requests)
    outputs = [None] * len(requests)
    errors = [None] * len(requests)
    mismatched = 0
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        seconds_by_round.append([])
        for i, argv in enumerate(argvs):
            code, seconds, out, err = call(cli, argv)
            seconds_by_round[-1].append(seconds)
            if tracer is not None:
                tracer.counts["cli.output_bytes"] += len(out.encode())
            if code == 0:
                latencies.append(seconds)
            if rounds == 0:
                codes[i], outputs[i], errors[i] = code, out, err
            elif (code, out) != (codes[i], outputs[i]):
                mismatched += 1
        rounds += 1
        elapsed = time.perf_counter() - loop_start
        # Whole rounds only; stop before a round that would overrun.
        if elapsed + elapsed / rounds > plan["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "rounds": rounds,
        "elapsed_s": elapsed,
        "attempted": rounds * len(requests),
        "completed": len(latencies),
        "codes": codes,
        "outputs": outputs,
        "errors": errors,
        "mismatched_repeats": mismatched,
        "request_seconds": seconds_by_round,
        "setup_s": setups,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(latencies))
        result["spans"] = tracer.dump()
    else:
        result["end_to_end"] = end_to_end(latencies, elapsed, setups,
                                          peak_rss_mb)
    if plan["graph_outputs"]:
        # The graph report of every input, for the checks; not timed.
        result["graph_outputs"] = [
            call(cli, argv_of(req, files, "graph"))[2] for req in requests]
    return result


def end_to_end(latencies, elapsed, setups, peak_rss_mb):
    ms = sorted(x * 1000.0 for x in latencies)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "throughput_rps": {"value": len(ms) / elapsed, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "latency_p95_ms": {"value": statistics.quantiles(ms, n=20)[18],
                           "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main():
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    result = serve(plan)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
