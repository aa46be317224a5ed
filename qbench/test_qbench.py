"""The benchmark's own tests; each runs the harness in its short mode.

Run from the repository root:

    python3 -m pytest -q qbench/test_qbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "qbench-tests")
sys.path.insert(0, HERE)

import jobs  # noqa: E402


def run(*args, env=None, cwd=ROOT, run_py=RUN):
    proc = subprocess.run([sys.executable, run_py, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_harness(scratch):
    copy = os.path.join(scratch, "qbench")
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@pytest.fixture
def scratch():
    os.makedirs(SCRATCH, exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def benchmark_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_short_mode_runs_every_workload():
    proc, result = run("--workload", "all", "--short", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    assert set(result["metrics"]) == {"verify", "polys-measures"}
    for metrics in result["metrics"].values():
        assert set(metrics) == benchmark_names("end_to_end")


def test_traced_run_emits_the_per_layer_metrics():
    proc, result = run("--workload", "polys-measures", "--short", "--seed", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert set(result["metrics"]) == benchmark_names("per_layer")
    assert result["metrics"]["qalg.poly_kernel_calls"]["value"] > 0
    assert result["metrics"]["cli.nonzero_exits"]["value"] == 0


def test_unrecorded_seed_still_checks_outputs():
    # Verify jobs on a new seed have no recorded hash but must pass their
    # own identity check; the other jobs keep their recorded hashes.
    proc, result = run("--workload", "verify", "--short", "--seed", "987654")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]


def test_corrupted_expected_hash_fails_the_run(scratch):
    # A copy of the harness with one recorded hash corrupted, run on this
    # checkout's program.
    copy = copy_harness(scratch)
    path = os.path.join(copy, "expected.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    table = expected["fixed"]["polys-measures"]
    job_id = "cli:rs:simplex_p2*4"
    table[job_id] = "0" * len(table[job_id])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    proc, result = run("--workload", "polys-measures", "--short", "--seed", "1",
                       run_py=os.path.join(copy, "run.py"))
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] == 1
    assert job_id in proc.stderr


def test_cache_sharing_jobs_keep_their_order():
    for workload in jobs.WORKLOADS:
        listed = [j["id"] for j in jobs.job_list(workload, 0) if jobs.shares_cache(j)]
        for seed in (1, 2, 3):
            got = jobs.job_list(workload, seed)
            assert [j["id"] for j in got if jobs.shares_cache(j)] == listed
            assert sorted(j["id"] for j in got) == sorted(
                j["id"] for j in jobs.job_list(workload, 0))


def test_worker_does_not_inherit_qbrion_threads():
    env = dict(os.environ, QBRION_THREADS="4")
    proc, result = run("--workload", "verify", "--short", "--seed", "1", env=env)
    assert proc.returncode == 0, proc.stderr
    path = os.path.join(ROOT, ".bench_build", "qbench", "run-verify-1.json")
    with open(path, encoding="utf-8") as fh:
        worker = json.load(fh)["worker"]
    assert worker["QBRION_THREADS"] is None and worker["threads"] == 1


def test_fails_without_the_program(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    copy_harness(scratch)
    proc, result = run("--workload", "verify", "--seed", "1", "--seconds", "1",
                       cwd=scratch)
    assert proc.returncode != 0
    assert result is None
