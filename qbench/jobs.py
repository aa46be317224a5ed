"""The benchmark's workloads: fixed job lists, and how a seed fills them in.

A job is one public call a researcher would make, described as plain JSON
so that it can be sent to a worker process.  Polytopes are named by key:
``"hexagon"`` is the bundled fixture, ``"hexagon*3"`` its 3-fold dilation.

The workload seed sets only the ``seed=`` passed to ``verify_identity`` and
the order of the jobs; every other input is fixed, so the jobs that do not
depend on the seed keep one recorded output hash for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

def verify(P, order, finite_form=False, trials=3, short=False):
    """verify_identity at the CLI default trials=3 unless stated."""
    job = {"kind": "verify", "P": P, "order": order, "trials": trials, "finite_form": finite_form}
    job["id"] = "verify:%s:K%d:t%d%s" % (P, order, trials, ":finite" if finite_form else "")
    job["short"] = short
    return job


def cli(command, P, *extra, short=False):
    """One ``cli.main([...])`` call; the worker fills in the polytope file
    and the output path."""
    argv = [command, "{P}", *extra, "--output", "{OUT}"]
    return {"kind": "cli", "P": P, "argv": argv, "short": short,
            "id": "cli:%s:%s%s" % (command, P, "".join(":" + x for x in extra))}


def call(kind, P=None, short=False, **params):
    """Any other single public call, named by its kind."""
    tail = "".join(":%s=%s" % (k, params[k]) for k in sorted(params))
    job = {"kind": kind, "P": P, "short": short, "id": "%s:%s%s" % (kind, P, tail)}
    job.update(params)
    return job


GROUPS = {}


def _group(name, jobs):
    """A named job list; the group is kept on each job so that results can
    be read per group."""
    for job in jobs:
        job["group"] = name
    GROUPS[name] = jobs


# Series arithmetic over Fraction in qalg dominates (about 3/4 of verify on
# the hexagon at K=20); corner-degree enumeration is a small share, so this
# is the no-change case for a pruning change.
_group(
    "verify-deep",
    [verify("segment_5", 12, short=True), verify("segment_5", 20), verify("segment_5", 28),
     verify("segment_5", 28, finite_form=True, short=True),
     verify("simplex_p2", 12, short=True), verify("simplex_p2", 20), verify("simplex_p2", 28),
     verify("simplex_p2", 20, finite_form=True),
     verify("square_p1xp1", 12), verify("square_p1xp1", 20), verify("square_p1xp1", 24),
     verify("square_p1xp1", 12, finite_form=True),
     verify("trapezoid_f1", 12), verify("trapezoid_f1", 20), verify("trapezoid_f1", 24),
     verify("hexagon", 12), verify("hexagon", 12, finite_form=True),
     # Jobs of ~150 ms, so that no gap in job cost sits at the median.
     verify("square_p1xp1", 16), verify("trapezoid_f1", 16), verify("simplex_p2", 24),
     # These and the last three verify-dilated jobs (~200-240 ms) fill the
     # gap in job cost at the median of the workload's job times.
     verify("simplex_p2", 22), verify("trapezoid_f1", 14), verify("segment_5", 32)],
)

# lattice.enumerate_corner_degrees visits ~400k candidates on 3*hexagon to
# keep 22 vectors per vertex, and runs trials+1 times per call.  Dilated
# products of simplices stay cheap, so a pruning change shows here only.
_group(
    "verify-dilated",
    [verify("hexagon*3", 8), verify("hexagon*2", 8),
     verify("simplex_p2*3", 12, short=True), verify("simplex_p2*4", 16),
     verify("square_p1xp1*3", 12, short=True), verify("square_p1xp1*4", 16),
     verify("trapezoid_f1*3", 12), verify("trapezoid_f1*4", 16),
     # Jobs of ~200-230 ms at the workload's median (see verify-deep).
     verify("square_p1xp1*3", 14), verify("trapezoid_f1*3", 14), verify("simplex_p2*4", 14)],
)

# rs is integer QPolynomial.__mul__ (99% of rs on 6*hexagon), a different
# use of qalg from verify's Fraction series; the Jackson checks and ladders
# exercise jackson and LaurentQPoly with many small polynomials.
_group(
    "exact-polys",
    [cli("rs", "hexagon*4"), cli("rs", "hexagon*5"), cli("rs", "hexagon*6"),
     cli("rs", "simplex_p2*10"), cli("rs", "simplex_p2*12"), cli("rs", "simplex_p2*15"),
     cli("rs", "simplex_p2*17"),
     cli("rs", "square_p1xp1*10"), cli("rs", "square_p1xp1*12"), cli("rs", "square_p1xp1*15"),
     cli("rs", "simplex_p2*4", short=True)]
    + [call("derivative", P, axis=axis, short=(P, axis) == ("hexagon*3", 0))
       for P in ("simplex_p2*6", "simplex_p2*8", "square_p1xp1*6", "square_p1xp1*8", "hexagon*3")
       for axis in (0, 1)]
    + [call("ladder", n=2, k=4), call("ladder", n=2, k=6), call("ladder", n=3, k=3),
       call("ladder", n=3, k=4, short=True),
       call("leading_term", "simplex_p2*6"), call("leading_term", "simplex_p2*8"),
       call("leading_term", "square_p1xp1*6"), call("leading_term", "hexagon*3")],
)

# Streams 10^4-10^5 lattice points through points_with_slacks into big
# integer, Fraction and float weights with no q-series at all: every qalg
# change predicts no change here.
_group(
    "measures-dilation",
    [call("moments", P, k=k, short=(P, k) == ("hexagon", 100))
     for P, ks in (("hexagon", (100, 150)), ("simplex_p2", (100, 150, 200, 250, 300)),
                   ("square_p1xp1", (100, 150, 200, 250, 300)),
                   ("trapezoid_f1", (100, 150, 200, 250, 300)))
     for k in ks]
    + [call("mu", "hexagon*20"), call("mu", "hexagon*30"), call("mu", "hexagon*40"),
       call("mu", "trapezoid_f1*20"), call("mu", "trapezoid_f1*30", short=True),
       call("mu_limit", "trapezoid_f1*15", q="4/5"), call("mu_limit", "trapezoid_f1*20", q="9/10"),
       call("mu_limit", "hexagon*10", q="1/2"), call("mu_limit", "hexagon*12", q="2/3"),
       cli("heatmap", "hexagon", "--dilate", "30", short=True),
       cli("heatmap", "simplex_p2", "--dilate", "40"),
       call("convergence", "hexagon", ks=[25, 100, 150]),
       call("grid", "hexagon", steps=10)],
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Jobs per pass are fixed; the number of passes is
    # max(1, seconds // pass_s), so two commits compared with the same
    # --seconds do the same work.  pass_s is one pass plus one worker
    # start, measured at the commit that defined the benchmark.
    pass_s: float
    groups: tuple

    @property
    def jobs(self):
        return [job for group in self.groups for job in GROUPS[group]]


# Two workloads of two groups each.  On a machine whose speed swings for
# tens of seconds at a time, fewer and longer runs average over more of
# those swings; every layer is still measured, and each group still reports
# its own job rate.
WORKLOADS = {w.name: w for w in (
    Workload("verify",
             "verify_identity at trials=3: undilated fixtures at K 12-32 (qalg Fraction series) "
             "and 2-4x dilations (lattice corner-degree enumeration)",
             11.3, ("verify-deep", "verify-dilated")),
    Workload("polys-measures",
             "rs via cli.main, Jackson checks and ladders (integer q-polynomial products), and "
             "dilation moments, limit measures, heatmap, potential (lattice points, no q-series)",
             10.8, ("exact-polys", "measures-dilation")),
)}


def shares_cache(job):
    """Whether the job's calls fill a cache the program keeps between calls
    (``qalg._GAUSS_CACHE`` through ``rs_polynomial``, ``brion._INV_QQ_CACHE``
    through ``verify_identity``).  Which job of such a chain pays to build a
    cached value depends on their order."""
    return job["kind"] in ("verify", "derivative", "ladder", "leading_term") or \
        job["kind"] == "cli" and job["argv"][0] == "rs"


def job_list(workload, seed, short=False):
    """The workload's jobs in the seed's order, verify seeds filled in.

    Jobs that share a cache keep their listed order, so that each job's
    cost does not depend on the seed; the seed places the other jobs among
    them.
    """
    jobs = []
    for job in WORKLOADS[workload].jobs:
        job = dict(job)
        if job["kind"] == "verify":
            # Keyed by the job too, so each job's seed does not depend on
            # which other jobs the list holds.
            job["seed"] = random.Random("%d:%s" % (seed, job["id"])).randrange(1 << 30)
        if job["short"] or not short:
            jobs.append(job)
    order = list(jobs)
    random.Random(seed).shuffle(order)
    chain = iter([job for job in jobs if shares_cache(job)])
    return [next(chain) if shares_cache(job) else job for job in order]


def polytope_keys(jobs):
    """Distinct polytope keys the jobs need, in first-use order."""
    keys = []
    for job in jobs:
        if job["P"] is not None and job["P"] not in keys:
            keys.append(job["P"])
    return keys
