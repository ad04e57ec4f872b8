"""Benchmark of coxconj: one workload, one seed, one JSON line of results.

    python3 coxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a coxconj checkout.  The inputs are made from the
seed (workloads.py); a child process (service.py) sets coxconj up and
sends the requests in a closed loop for about S seconds, in whole rounds;
this process then checks every output with independent code (checkers.py)
and prints, as its last line, {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (tracing.py).  Results and traces are also
written under coxbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS, check_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Set-up is repeated in each run and its median reported.
SETUPS = 9
# The 95th percentile needs ten samples beyond it.
MIN_ROUND = 200
# The child gets this long beyond the run length before it is stopped.
CHILD_GRACE_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "coxconj", "cli.py")):
        print("error: no coxconj sources under %s" % src, file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if len(wl.requests) < MIN_ROUND:
        raise AssertionError("a round must hold at least %d requests"
                             % MIN_ROUND)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(OUT, "work", tag)
    os.makedirs(work, exist_ok=True)
    files = {}
    for i, (name, matrix) in enumerate(sorted(wl.systems.items())):
        files[name] = os.path.join(work, "system%d.json" % i)
        with open(files[name], "w") as fh:
            json.dump({"rank": len(matrix), "matrix": matrix}, fh)
    plan = {
        "src": src,
        "system_files": files,
        "warmups": wl.warmups(),
        "requests": wl.requests,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups": SETUPS,
        "graph_outputs": wl.command != "graph",
    }
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "service.py"),
                    plan_path, result_path],
                   check=True, timeout=args.seconds + CHILD_GRACE_S)
    with open(result_path) as fh:
        result = json.load(fh)

    codes = result["codes"]
    ok = [i for i, code in enumerate(codes) if code == 0]
    for i, code in enumerate(codes):
        if code != 0:
            print("request %d failed with exit code %r: %s"
                  % (i, code, result["errors"][i].strip()), file=sys.stderr)
    graph_outputs = result.get("graph_outputs") or result["outputs"]
    problems = check_outputs(wl, result["outputs"], graph_outputs, ok)
    if result["mismatched_repeats"]:
        problems.append("%d repeated requests gave another output"
                        % result["mismatched_repeats"])
    for p in problems:
        print("check: %s" % p, file=sys.stderr)
    failed = result["rounds"] * (len(codes) - len(ok))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    summary = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, "%s.json" % tag), "w") as fh:
        json.dump(dict(summary, rounds=result["rounds"],
                       elapsed_s=result["elapsed_s"],
                       completed=result["completed"],
                       setup_runs_s=result["setup_s"],
                       spans=result.get("spans")), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
