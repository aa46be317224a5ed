"""Run the benchmark repeatedly and report how steady each metric is.

Run from the repository root:

    python3 qbench/prove.py --workload verify --seeds 1-5
    python3 qbench/prove.py --workload all --seeds 1-10 --baseline qbench/baseline.json

Each (workload, seed) is one untraced ``run.py`` run of ``run_seconds``
from BENCHMARK.json.  For every end-to-end metric the report gives the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound.  With ``--baseline`` the figures are written out
together with the machine and every job's full parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as jobs_mod  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d):\n%s"
                         % (workload, seed, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def machine():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "processor": platform.processor() or platform.machine()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--baseline", help="write medians and quartiles to this file")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(jobs_mod.WORKLOADS) if args.workload == "all" else [args.workload]
    report = {}
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(name, seed, bench["run_seconds"]))
            print("%s seed %d: %s" % (name, seed, json.dumps(runs[-1])), flush=True)
        report[name] = {m: summarize([r[m] for r in runs], bounds[m]) for m in bounds}

    print("workload\tmetric\tmedian\tq1\tq3\tspread\tbound\tsteady (< bound/3)")
    for name, metrics in report.items():
        for m, s in metrics.items():
            print("%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%s" % (
                name, m, s["median"], s["q1"], s["q3"], s["spread"], s["bound"],
                "yes" if s["spread"] < s["bound"] / 3 else "NO"))

    if args.baseline:
        out = {
            "machine": machine(),
            "run_seconds": bench["run_seconds"],
            "seeds": args.seeds,
            "workloads": {
                name: {"why": jobs_mod.WORKLOADS[name].why,
                       "pass_s": jobs_mod.WORKLOADS[name].pass_s,
                       "jobs": [{k: v for k, v in job.items() if k != "short"}
                                for job in jobs_mod.WORKLOADS[name].jobs],
                       "metrics": report[name]}
                for name in names
            },
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
