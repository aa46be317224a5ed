"""qbrion benchmark: exact-output workloads timed end to end and per layer.

Run from the repository root:

    python3 qbench/run.py --workload verify --seed 1 --seconds 48 --trace 0
    python3 qbench/run.py --workload all              # one row per workload
    python3 qbench/run.py --workload polys-measures --trace 1   # per-layer table
    python3 qbench/run.py --workload all --short      # a few jobs, one pass

The client is a closed loop with one client: jobs are issued back to back,
each as soon as the previous one has finished.  Each pass over the
workload's fixed job list runs in one fresh worker process with one thread;
``QBRION_THREADS`` is removed from the worker's environment so the
program's default of one thread applies.  The number of passes is fixed by
``--seconds`` and the workload (see ``jobs.Workload.pass_s``).

Every job's output is reduced to a hash and compared with the hash recorded
at the commit that defined the benchmark (``expected.json``).  A job fails
if it raises, if its own identity check is false, if a CLI call exits
nonzero, or if its hash changed; any failure makes the run exit nonzero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Details (every job time, the tail percentile and its sample
count, the worker's environment) go to ``.bench_build/qbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as jobs_mod  # noqa: E402

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_build", "qbench")
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_SAMPLES = 7
# Every worker must be done by then, so a hung job cannot hold the run
# past its 180 s limit.
DEADLINE = time.monotonic() + 170.0
# Passes alternate between the CPUs the run may use.  Each CPU slows down
# in phases of its own, so a run samples both.
CPUS = sorted(os.sched_getaffinity(0))

UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_tail": "ms",
         "peak_rss_mb": "MB"}

SERIES_KERNELS = {"qalg.pochhammer_infinite_inverse", "qalg.inverse_reversed_pochhammer",
                  "qalg.pochhammer_finite", "qalg.TruncatedQSeries.__mul__",
                  "qalg.TruncatedQSeries.inverse"}
POLY_KERNELS = {"qalg.q_multinomial", "qalg.q_pochhammer"}
JACKSON_CHECKS = {"jackson.verify_derivative_identity", "jackson.verify_ladder",
                  "jackson.leading_term_check"}

# Per-layer busy times: the summed duration of these spans.
LAYER_TIMES = {
    "qalg.series_kernels_s": SERIES_KERNELS,
    "qalg.poly_kernels_s": POLY_KERNELS,
    "lattice.corner_degrees_s": {"lattice.enumerate_corner_degrees"},
    "lattice.vertex_scan_s": {"lattice.enumerate_vertices", "lattice.vertex_points",
                              "lattice.basic_solutions"},
    "lattice.points_s": {"lattice.points_with_slacks"},
    "brion.verify_s": {"brion.verify_identity"},
    "brion.lhs_s": {"brion.lhs_value_at"},
    "brion.rhs_s": {"brion.rhs_series_at"},
    "brion.rs_s": {"brion.rs_polynomial"},
    "jackson.identity_s": {"jackson.verify_derivative_identity"},
    "jackson.ladder_s": {"jackson.verify_ladder"},
    "jackson.leading_term_s": {"jackson.leading_term_check"},
    "measures.moments_s": {"measures.dilation_moments"},
    "measures.mu_s": {"measures.mu_measure", "measures.mu_limit_estimate"},
    "measures.weights_s": {"measures.log_weight_table"},
    "measures.potential_s": {"measures.potential"},
    "measures.model_s": {"measures.convergence_report"},
    "cli.main_s": {"cli.main"},
}
# Per-layer call counts: the number of these spans.
LAYER_CALLS = {
    "qalg.series_kernel_calls": SERIES_KERNELS,
    "qalg.poly_kernel_calls": POLY_KERNELS,
    "jackson.checks": JACKSON_CHECKS,
}
# Per-layer counts the worker takes from the calls' results.
LAYER_COUNTERS = {
    "qalg.max_coeff_bits": "bits",  # computed from outputs, a proxy for bytes moved
    "lattice.degree_vectors_kept": "count",
    "lattice.vertex_cones": "count",
    "lattice.points": "count",
    "brion.trials": "count",
    "brion.mismatches": "count",
    "jackson.checks_failed": "count",
    "measures.atoms": "count",
    "cli.bytes_out": "bytes",
    "cli.nonzero_exits": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ------------------------------------------------------------------ workers


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "QBRION_THREADS"}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(polytopes, job_list, trace=False, spans_path=None, cpu=None):
    """One fresh worker over one pass, pinned to one CPU; returns its
    ready, job and done events."""
    spec = {"polytopes": polytopes, "jobs": job_list, "trace": trace,
            "spans_path": spans_path, "tmp": OUT_DIR}
    cpu = CPUS[0] if cpu is None else cpu
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(json.dumps(spec).encode(),
                                  timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker still running at the run's time limit") from None
    events = [json.loads(line) for line in out.decode().splitlines() if line.strip()]
    by_kind = {}
    for e in events:
        by_kind.setdefault(e["event"], []).append(e)
    if "ready" not in by_kind or "done" not in by_kind:
        raise BenchError("worker exited with code %d before finishing" % proc.returncode)
    ready = by_kind["ready"][0]
    if ready["threads"] != 1 or ready["QBRION_THREADS"] is not None:
        raise BenchError("worker does not run with one thread: %r" % ready)
    return {"setup_s": ready["at"] - start, "ready": ready, "jobs": by_kind.get("job", []),
            "done": by_kind["done"][0]}


# ------------------------------------------------------------ exact outputs


def load_expected(path):
    if not os.path.exists(path):
        return {"fixed": {}, "seeded": {}}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def recorded_hash(expected, workload, seed, job):
    if "seed" in job:
        return expected["seeded"].get(str(seed), {}).get(workload, {}).get(job["id"])
    return expected["fixed"].get(workload, {}).get(job["id"])


def check_results(results, job_list, expected, workload, seed):
    """Mark each job result failed or not; returns the number failed."""
    by_id = {job["id"]: job for job in job_list}
    failed = 0
    for r in results:
        job = by_id[r["id"]]
        want = recorded_hash(expected, workload, seed, job)
        if "error" in r:
            r["failure"] = r["error"]
        elif not r["ok"]:
            r["failure"] = "the job's own check failed"
        elif want is None and "seed" not in job:
            r["failure"] = "no recorded hash"
        elif want is not None and r["hash"] != want:
            r["failure"] = "output hash %s, recorded %s" % (r["hash"], want)
        failed += "failure" in r
    return failed


def record(expected, path, workload, seed, job_list, results):
    """Store the hashes of self-consistent jobs; never overwrite one."""
    by_id = {job["id"]: job for job in job_list}
    for r in results:
        job = by_id[r["id"]]
        if "error" in r or not r["ok"]:
            raise BenchError("cannot record %s: %s" % (r["id"], r.get("error", "check failed")))
        if "seed" in job:
            table = expected["seeded"].setdefault(str(seed), {}).setdefault(workload, {})
        else:
            table = expected["fixed"].setdefault(workload, {})
        if table.setdefault(job["id"], r["hash"]) != r["hash"]:
            raise BenchError("%s: hash %s differs from recorded %s"
                             % (job["id"], r["hash"], table[job["id"]]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ metrics


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(samples)
    rank = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(passes, setups, group_of):
    """End-to-end metrics of one untraced run, over every job time of
    every pass."""
    times = [r["ms"] for p in passes for r in p["jobs"] if "ms" in r]
    if not times:
        raise BenchError("no job completed")
    tail_ms, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(times) / (sum(times) / 1000.0),
        "job_ms_p50": statistics.median(times),
        "job_ms_tail": tail_ms,
        "peak_rss_mb": statistics.median(p["done"]["peak_rss_mb"] for p in passes),
    }
    groups = {}
    for p in passes:
        for r in p["jobs"]:
            if "ms" in r:
                n_t = groups.setdefault(group_of[r["id"]], [0, 0.0])
                n_t[0] += 1
                n_t[1] += r["ms"] / 1000.0
    return metrics, {"job_ms_tail_pct": tail_pct, "samples": len(times),
                     "group_jobs_per_s": {g: n / t for g, (n, t) in groups.items()}}


def span_table(spans):
    """Per span name: calls, busy seconds, self seconds."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    table = {}
    for s in spans:
        busy = s["end"] - s["start"]
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += busy
        row[2] += busy - child_time.get(s["id"], 0.0)
    return table


def per_layer(spans, counters, wall_s):
    table = span_table(spans)
    metrics = {}
    for name, names in LAYER_TIMES.items():
        metrics[name] = sum(table[n][1] for n in names if n in table)
    for name, names in LAYER_CALLS.items():
        metrics[name] = sum(table[n][0] for n in names if n in table)
    for name in LAYER_COUNTERS:
        metrics[name] = counters.get(name, 0)
    metrics["trace.wall_s"] = wall_s
    return metrics, table


def jobs_time(spans):
    """Summed time of the jobs' own calls, without set-up and breakdowns."""
    return sum(s["end"] - s["start"] for s in spans
               if s["parent"] is None and s["job"] != "setup" and s["name"] != "bench.breakdown")


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name in LAYER_COUNTERS:
        return LAYER_COUNTERS[name]
    return "s" if name.endswith("_s") else "count"


def check_names(metrics, trace):
    """The emitted metric names must be exactly those BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    have = {name: unit_of(name) for name in metrics}
    if have != want:
        raise BenchError("metrics emitted %r do not match BENCHMARK.json %r" % (have, want))


# ------------------------------------------------------------------- output


def print_e2e_rows(rows):
    cols = ["setup_s", "jobs_per_s", "job_ms_p50", "job_ms_tail", "peak_rss_mb"]
    head = ["workload"] + ["%s (%s)" % (c, UNITS[c]) for c in cols] + \
        ["failed_frac", "tail_pct", "samples"]
    print("\t".join(head))
    for name, (metrics, info) in rows.items():
        cells = [name] + ["%.4f" % metrics[c] for c in cols] + [
            "%.4f" % (info["failed"] / info["attempted"]),
            "p%.1f" % info["job_ms_tail_pct"], str(info["samples"])]
        print("\t".join(cells))
    for name, (metrics, info) in rows.items():
        for group, rate in sorted(info["group_jobs_per_s"].items()):
            print("%s\tgroup %s: jobs_per_s %.4f 1/s" % (name, group, rate))


def print_layer_table(metrics, table, jobs_s):
    print("span\tcalls\tbusy_s\tself_s")
    for name in sorted(table):
        calls, busy, self_s = table[name]
        print("%s\t%d\t%.4f\t%.4f" % (name, calls, busy, self_s))
    layers = {}
    for name, (calls, busy, self_s) in table.items():
        row = layers.setdefault(name.split(".")[0], [0, 0.0, 0.0])
        row[0] += calls
        row[1] += busy
        row[2] += self_s
    print("layer\tcalls\tbusy_s\tself_s")
    for name in sorted(layers):
        print("%s\t%d\t%.4f\t%.4f" % (name, *layers[name]))
    # Breakdown calls repeat a job's work outside the job's own span, so a
    # layer's busy time read against the jobs' time gives its share.
    print("metric\tvalue\tunit\tshare of job time (%.4f s)" % jobs_s)
    for name, value in metrics.items():
        share = "%.3f" % (value / jobs_s) if name in LAYER_TIMES and jobs_s else ""
        note = "  (computed)" if name == "qalg.max_coeff_bits" else ""
        print("%s\t%s\t%s\t%s%s" % (name, round(value, 6), unit_of(name), share, note))


def write_details(name, detail):
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)


# --------------------------------------------------------------------- runs


def timed_run(workload, seed, seconds, short, expected):
    """Untraced passes in fresh workers; returns metrics and details."""
    w = jobs_mod.WORKLOADS[workload]
    job_list = jobs_mod.job_list(workload, seed, short)
    polytopes = jobs_mod.polytope_keys(job_list)
    n_passes = 1 if short else max(1, int(seconds // w.pass_s))
    passes = [run_worker(polytopes, job_list, cpu=CPUS[i % len(CPUS)])
              for i in range(n_passes)]
    setups = [p["setup_s"] for p in passes]
    while not short and len(setups) < SETUP_SAMPLES:
        cpu = CPUS[len(setups) % len(CPUS)]
        setups.append(run_worker(polytopes, [], cpu=cpu)["setup_s"])
    results = [r for p in passes for r in p["jobs"]]
    failed = check_results(results, job_list, expected, workload, seed)
    metrics, info = end_to_end(passes, setups, {job["id"]: job["group"] for job in job_list})
    info.update(attempted=len(results), failed=failed, passes=len(passes), setups=setups)
    detail = {"workload": workload, "seed": seed, "jobs": job_list, "results": results,
              "worker": passes[0]["ready"], "metrics": metrics, **info}
    return metrics, info, detail


def traced_run(workload, seed, short, expected):
    job_list = jobs_mod.job_list(workload, seed, short)
    spans_path = os.path.join(OUT_DIR, "spans-%s-%d.json" % (workload, seed))
    p = run_worker(jobs_mod.polytope_keys(job_list), job_list, True, spans_path)
    failed = check_results(p["jobs"], job_list, expected, workload, seed)
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    metrics, table = per_layer(spans, p["done"]["counters"], p["done"]["wall_s"])
    group_of = {job["id"]: job["group"] for job in job_list}
    group_spans = {}
    for span in spans:
        if span["job"] in group_of:
            group_spans.setdefault(group_of[span["job"]], []).append(span)
    info = {"attempted": len(p["jobs"]), "failed": failed, "jobs_s": jobs_time(spans),
            "groups": {g: (per_layer(ss, {}, 0.0)[0], jobs_time(ss))
                       for g, ss in sorted(group_spans.items())}}
    detail = {"workload": workload, "seed": seed, "jobs": job_list, "results": p["jobs"],
              "worker": p["ready"], "metrics": metrics, "spans": spans_path}
    return metrics, table, info, detail


def report_failures(results):
    for r in results:
        if "failure" in r:
            print("FAILED %s: %s" % (r["id"], r["failure"]), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(jobs_mod.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="a few jobs of each workload, one pass")
    parser.add_argument("--record", action="store_true",
                        help="run one pass and record the hashes not yet recorded")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "qbrion", "__init__.py")):
        print("error: run from the root of a qbrion checkout (src/qbrion not found)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    expected = load_expected(EXPECTED)
    names = sorted(jobs_mod.WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        if args.record:
            for name in names:
                job_list = jobs_mod.job_list(name, args.seed)
                todo = [j for j in job_list
                        if recorded_hash(expected, name, args.seed, j) is None]
                if todo:
                    p = run_worker(jobs_mod.polytope_keys(todo), todo)
                    record(expected, EXPECTED, name, args.seed, todo, p["jobs"])
                print("%s: recorded %d hashes" % (name, len(todo)))
            return 0

        if args.trace:
            rows = {}
            for name in names:
                metrics, table, info, detail = traced_run(name, args.seed, args.short, expected)
                check_names(metrics, True)
                write_details("trace-%s-%d.json" % (name, args.seed), detail)
                report_failures(detail["results"])
                print("== %s (traced, spans in %s)" % (name, os.path.relpath(detail["spans"])))
                print_layer_table(metrics, table, info["jobs_s"])
                for group, (layer_s, group_jobs_s) in info["groups"].items():
                    shares = ["%s %.3f" % (m, v / group_jobs_s)
                              for m, v in layer_s.items() if m in LAYER_TIMES and v > 0]
                    print("group %s: jobs %.4f s; share of job time: %s"
                          % (group, group_jobs_s, ", ".join(shares)))
                rows[name] = (metrics, info)
        else:
            rows = {}
            for name in names:
                metrics, info, detail = timed_run(name, args.seed, args.seconds, args.short,
                                                  expected)
                check_names(metrics, False)
                write_details("run-%s-%d.json" % (name, args.seed), detail)
                report_failures(detail["results"])
                rows[name] = (metrics, info)
            print_e2e_rows(rows)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(info["attempted"] for _, info in rows.values())
    failed = sum(info["failed"] for _, info in rows.values())
    if len(rows) == 1:
        (metrics, _), = rows.values()
        out_metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        out_metrics = {w: {k: {"value": v, "unit": unit_of(k)} for k, v in m.items()}
                       for w, (m, _) in rows.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
