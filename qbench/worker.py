"""Benchmark worker: one fresh process, one thread, one pass over a job list.

Reads a JSON spec on stdin, builds and validates the workload's polytopes,
reports ``ready``, runs the jobs back to back and reports one JSON line per
job on stdout, then a final ``done`` line with its peak resident memory.
Each job's result is reduced to a canonical hash so that the client can
compare it with the hash recorded at the commit that defined the benchmark.

In a traced pass every call the worker makes into a qbrion layer is
recorded as a span (name, start, end, parent span, job id), and after each
job the worker also makes the public calls the job consists of, so that
the time splits by layer.  Spans are kept in memory and written to the
spec's ``spans_path`` at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import operator
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction

from qbrion import brion, cli, fixtures, jackson, lattice, measures, qalg

_OUT = sys.stdout

# Counters that keep the largest value seen instead of a sum.
MAX_COUNTERS = ("qalg.max_coeff_bits",)


def emit(obj):
    _OUT.write(json.dumps(obj) + "\n")
    _OUT.flush()


# ------------------------------------------------------------- exact output


def canon(x):
    """Canonical JSON-ready form of a result: exact values stay exact,
    floats are kept as their repr."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return ["float", repr(x)]
    if isinstance(x, Fraction):
        return ["frac", x.numerator, x.denominator]
    if isinstance(x, qalg.QPolynomial):
        return ["qpoly", list(x.coeffs)]
    if isinstance(x, qalg.TruncatedQSeries):
        return ["series", x.order, [canon(c) for c in x.coeffs]]
    if isinstance(x, brion.LaurentQPoly):
        return ["laurent", canon(x.terms)]
    if isinstance(x, measures.DiscreteMeasure):
        return ["measure", canon(x.atoms)]
    if dataclasses.is_dataclass(x):
        return canon({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    if isinstance(x, dict):
        pairs = [[canon(k), canon(v)] for k, v in x.items()]
        return ["dict", sorted(pairs, key=lambda kv: json.dumps(kv[0]))]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError("no canonical form for %r" % type(x))


def digest(canonical):
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def files_digest(directory):
    """Hash of the raw bytes of every file the CLI wrote, in name order."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        total += len(data)
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()[:24], total


def coeff_bits(x):
    """Largest numerator or denominator bit length in a qalg output."""
    if isinstance(x, tuple):  # inverse_reversed_pochhammer
        x = x[3]
    if isinstance(x, qalg.QPolynomial):
        return max((abs(c).bit_length() for c in x.coeffs), default=0)
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in x.coeffs),
        default=0,
    )


# ------------------------------------------------------------------ tracing


class Tracer:
    """Spans around calls into the program's layers; a no-op when off."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.counters = {}
        self.job = None
        self.t0 = time.perf_counter()

    def call(self, name, fn, *args, counts=None):
        if not self.enabled:
            return fn(*args)
        span = {"id": len(self.spans), "name": name, "job": self.job,
                "parent": self.stack[-1] if self.stack else None}
        self.spans.append(span)
        self.stack.append(span["id"])
        span["start"] = time.perf_counter() - self.t0
        try:
            result = fn(*args)
        finally:
            span["end"] = time.perf_counter() - self.t0
            self.stack.pop()
        if counts is not None:
            for key, value in counts(result).items():
                self.add(key, value)
        return result

    def add(self, key, value):
        if not self.enabled:
            return
        old = self.counters.get(key, 0)
        self.counters[key] = max(old, value) if key in MAX_COUNTERS else old + value


def _bits(result):
    return {"qalg.max_coeff_bits": coeff_bits(result)}


def _points(P, tr):
    return tr.call("lattice.points_with_slacks", lambda: list(lattice.points_with_slacks(P)),
                   counts=lambda r: {"lattice.points": len(r)})


def _vertex_scan(P, tr):
    tr.call("lattice.vertex_points", lattice.vertex_points, P,
            counts=lambda r: {"lattice.vertex_cones": len(r)})


# ------------------------------------------------------------------- inputs


class Inputs:
    """The workload's polytopes, built and validated once, plus a JSON file
    of each for the CLI jobs."""

    def __init__(self, keys, workdir, tr):
        self.workdir = workdir
        self.polytopes = {}
        self.files = {}
        for key in keys:
            name, _, k = key.partition("*")
            P = fixtures.load(name)
            if k:
                P = lattice.dilate(P, int(k))
            report = tr.call("lattice.validate", lattice.validate, P)
            if not report.smooth:
                raise ValueError("workload polytope %s is not smooth" % key)
            if tr.enabled:
                tr.call("lattice.basic_solutions", lattice.basic_solutions, P,
                        counts=lambda r: {"lattice.vertex_cones": len(r)})
            path = os.path.join(workdir, key.replace("*", "x") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(P.to_json())
            self.polytopes[key] = P
            self.files[key] = path


# --------------------------------------------------------------------- jobs
#
# Each kind returns (span name, the timed call, check).  Preparation outside
# the public call happens before the call is returned, so it is not timed.
# check(result) gives (canonical result, the job's own identity check).


def kind_verify(job, inp, tr):
    P = inp.polytopes[job["P"]]

    def check(report):
        data = report.to_dict()
        del data["elapsed_ms"]
        return data, report.equal

    return "brion.verify_identity", lambda: brion.verify_identity(
        P, order=job["order"], trials=job["trials"], seed=job["seed"],
        finite_form=job["finite_form"]), check


def kind_cli(job, inp, tr):
    out_dir = tempfile.mkdtemp(dir=inp.workdir)
    fill = {"{P}": inp.files.get(job["P"]), "{OUT}": os.path.join(out_dir, "out")}
    argv = [fill.get(a, a) for a in job["argv"]]
    sink = io.StringIO()

    def run():
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                return exc.code if isinstance(exc.code, int) else 2

    def check(code):
        digest_, size = files_digest(out_dir)
        shutil.rmtree(out_dir)
        tr.add("cli.bytes_out", size)
        tr.add("cli.nonzero_exits", int(code != 0))
        return digest_, code == 0

    return "cli.main", run, check


def kind_derivative(job, inp, tr):
    D = jackson.FirstOrthantDivisor.from_polytope(inp.polytopes[job["P"]])

    def check(report):
        tr.add("jackson.checks_failed", int(not report["holds"]))
        return report, report["holds"]

    return "jackson.verify_derivative_identity", lambda: jackson.verify_derivative_identity(
        D, job["axis"]), check


def kind_ladder(job, inp, tr):
    def check(report):
        tr.add("jackson.checks_failed", int(not report["all_ok"]))
        return report, report["all_ok"]

    return "jackson.verify_ladder", lambda: jackson.verify_ladder(job["n"], job["k"]), check


def kind_leading_term(job, inp, tr):
    P = inp.polytopes[job["P"]]
    return "jackson.leading_term_check", lambda: jackson.leading_term_check(P), \
        lambda r: (r, True)


def kind_moments(job, inp, tr):
    P = inp.polytopes[job["P"]]
    return "measures.dilation_moments", lambda: measures.dilation_moments(P, job["k"]), \
        lambda r: (r, True)


def _measure_check(tr):
    def check(measure):
        tr.add("measures.atoms", len(measure.atoms))
        return measure, True

    return check


def kind_mu(job, inp, tr):
    P = inp.polytopes[job["P"]]
    return "measures.mu_measure", lambda: measures.mu_measure(P), _measure_check(tr)


def kind_mu_limit(job, inp, tr):
    P = inp.polytopes[job["P"]]
    q = Fraction(job["q"])
    return "measures.mu_limit_estimate", lambda: measures.mu_limit_estimate(P, q), \
        _measure_check(tr)


def kind_convergence(job, inp, tr):
    P = inp.polytopes[job["P"]]
    return "measures.convergence_report", lambda: measures.convergence_report(P, job["ks"]), \
        lambda r: (r, True)


def grid_search(P, steps, tr):
    """Smallest potential over the grid P ∩ (1/steps)Z^n, one call per point."""
    best = None
    for u in lattice.lattice_points(lattice.dilate(P, steps)):
        m = tuple(x / steps for x in u)
        value = tr.call("measures.potential", measures.potential, P, m)
        if best is None or value < best[0]:
            best = (value, m)
    return best


def kind_grid(job, inp, tr):
    P = inp.polytopes[job["P"]]
    return "bench.grid_search", lambda: grid_search(P, job["steps"], tr), lambda r: (r, True)


KINDS = {
    "verify": kind_verify,
    "cli": kind_cli,
    "derivative": kind_derivative,
    "ladder": kind_ladder,
    "leading_term": kind_leading_term,
    "moments": kind_moments,
    "mu": kind_mu,
    "mu_limit": kind_mu_limit,
    "convergence": kind_convergence,
    "grid": kind_grid,
}


# --------------------------------------------------------------- breakdowns
#
# Traced passes only: the public calls a job consists of, on the job's own
# inputs, so that each layer's share of the job shows in its own spans.


def _series_kernels(P, vertices, degrees, x0, order, tr):
    """qalg series kernels a corner sum makes at one evaluation point."""
    mul = operator.mul
    for vd, degs in zip(vertices, degrees):
        edge_vals = [brion.monomial_value(x0, e) for e in vd.edge_dirs]
        inf_prod = None
        for val in edge_vals:
            s = tr.call("qalg.pochhammer_infinite_inverse", qalg.pochhammer_infinite_inverse,
                        val, order, counts=_bits)
            inf_prod = s if inf_prod is None else tr.call(
                "qalg.TruncatedQSeries.__mul__", mul, inf_prod, s, counts=_bits)
        facet_set = set(vd.facet_set)
        for b in degs:
            unit = order - lattice.corner_degree_valuation(P, vd, b)
            if unit < 0:
                continue
            series = inf_prod.truncate(unit)
            factors = [(edge_vals[pos], b[i]) for pos, i in enumerate(vd.facet_set) if b[i]]
            factors += [(Fraction(1), b[j]) for j in range(P.facet_count)
                        if j not in facet_set and b[j]]
            for c, d in factors:
                if d > 0:
                    part = tr.call("qalg.inverse_reversed_pochhammer",
                                   qalg.inverse_reversed_pochhammer, c, d, unit, counts=_bits)[3]
                else:
                    part = tr.call("qalg.pochhammer_finite", qalg.pochhammer_finite,
                                   c, -d, unit, counts=_bits)
                series = tr.call("qalg.TruncatedQSeries.__mul__", mul, series, part,
                                 counts=_bits)


def _weight_inverses(points, order, tr):
    """1/(q;q)_s for every slack s the lattice-point weights use."""
    for s in sorted({min(s, order) for _, slacks in points for s in slacks}):
        poly = tr.call("qalg.q_pochhammer", qalg.q_pochhammer, s, counts=_bits)
        tr.call("qalg.TruncatedQSeries.inverse", poly.to_series(order).inverse, counts=_bits)


def _multinomials(points, tr):
    for _, slacks in points:
        tr.call("qalg.q_multinomial", qalg.q_multinomial, sum(slacks), slacks, counts=_bits)


def breakdown_verify(job, inp, tr, report):
    P, order = inp.polytopes[job["P"]], job["order"]
    # verify_identity scans the vertices and enumerates each vertex's degree
    # vectors once up front and once more inside every rhs_series_at.
    for _ in range(job["trials"] + 1):
        vertices = tr.call("lattice.enumerate_vertices", lattice.enumerate_vertices, P,
                           counts=lambda r: {"lattice.vertex_cones": len(r)})
        degrees = [tr.call("lattice.enumerate_corner_degrees", lattice.enumerate_corner_degrees,
                           P, vd, order, counts=lambda r: {"lattice.degree_vectors_kept": len(r)})
                   for vd in vertices]
    points = _points(P, tr)
    _weight_inverses(points, order, tr)
    if job["finite_form"]:
        tr.call("brion.rs_polynomial", brion.rs_polynomial, P)
        _multinomials(points, tr)
    for coords in report.points:
        x0 = tuple(Fraction(c) for c in coords)
        lhs = tr.call("brion.lhs_value_at", brion.lhs_value_at, P, x0, order)
        rhs = tr.call("brion.rhs_series_at", brion.rhs_series_at, P, x0, order)
        tr.add("brion.trials", 1)
        tr.add("brion.mismatches", int(lhs != rhs))
        _series_kernels(P, vertices, degrees, x0, order, tr)


def _rs_breakdown(P, tr):
    tr.call("brion.rs_polynomial", brion.rs_polynomial, P)
    _multinomials(_points(P, tr), tr)


def breakdown_cli(job, inp, tr, code):
    P = inp.polytopes[job["P"]]
    command = job["argv"][0]
    if command == "rs":
        _rs_breakdown(P, tr)
    elif command == "heatmap":
        Q = lattice.dilate(P, int(job["argv"][job["argv"].index("--dilate") + 1]))
        _vertex_scan(Q, tr)
        _points(Q, tr)
        for q in (0.2, 0.6, 0.9):  # the CLI's default --q
            tr.call("measures.log_weight_table", measures.log_weight_table, Q, q)


def breakdown_derivative(job, inp, tr, report):
    D = jackson.FirstOrthantDivisor.from_polytope(inp.polytopes[job["P"]])
    _rs_breakdown(D.polytope, tr)
    _rs_breakdown(jackson.derived_divisor(D, job["axis"]).polytope, tr)


def breakdown_leading_term(job, inp, tr, result):
    D = jackson.FirstOrthantDivisor.from_polytope(inp.polytopes[job["P"]])
    _rs_breakdown(D.polytope, tr)


def breakdown_dilated(job, inp, tr, result):
    P = inp.polytopes[job["P"]]
    Q = lattice.dilate(P, job["k"]) if "k" in job else P
    _vertex_scan(Q, tr)
    _points(Q, tr)


BREAKDOWNS = {
    "verify": breakdown_verify,
    "cli": breakdown_cli,
    "derivative": breakdown_derivative,
    "leading_term": breakdown_leading_term,
    "moments": breakdown_dilated,
    "mu": breakdown_dilated,
    "mu_limit": breakdown_dilated,
}


# --------------------------------------------------------------------- main


def run_job(job, inp, tr):
    out = {"event": "job", "id": job["id"]}
    tr.job = job["id"]
    try:
        name, fn, check = KINDS[job["kind"]](job, inp, tr)
        t0 = time.perf_counter()
        result = tr.call(name, fn)
        out["ms"] = (time.perf_counter() - t0) * 1000.0
        canonical, out["ok"] = check(result)
        out["hash"] = canonical if isinstance(canonical, str) else digest(canon(canonical))
        if tr.enabled and job["kind"] in BREAKDOWNS:
            tr.call("bench.breakdown", BREAKDOWNS[job["kind"]], job, inp, tr, result)
    except Exception as exc:  # a failing job is reported, the pass goes on
        out["ok"] = False
        out["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return out


def main():
    spec = json.loads(sys.stdin.read())
    tr = Tracer(spec["trace"])
    workdir = tempfile.mkdtemp(prefix="worker-", dir=spec["tmp"])
    try:
        tr.job = "setup"
        inp = Inputs(spec["polytopes"], workdir, tr)
        emit({"event": "ready", "at": time.monotonic(), "threads": brion.thread_count(),
              "QBRION_THREADS": os.environ.get("QBRION_THREADS")})
        t0 = time.perf_counter()
        for job in spec["jobs"]:
            emit(run_job(job, inp, tr))
        wall = time.perf_counter() - t0
        if tr.enabled:
            with open(spec["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"spans": tr.spans, "counters": tr.counters}, fh)
        emit({"event": "done", "wall_s": wall, "counters": tr.counters,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
