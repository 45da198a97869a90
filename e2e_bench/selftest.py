#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 e2e_bench/selftest.py

Checks that the request generator is a pure function of the seed, that the
correctness gate catches a deliberately corrupted response and fails the
run, that a cache too small for the hot set trips the hot-set guard, and
that the benchmark fails cleanly where the qmap sources are missing.
Writes only under the benchmark's build directory.
"""

import os
import shutil
import subprocess
import sys

import run

FAILURES = []


def check(ok, what):
    print(("ok      " if ok else "FAILED  ") + what)
    if not ok:
        FAILURES.append(what)


def run_binary(bin_dir, workload, *extra, trace=False):
    """Runs the benchmark binary directly; returns (code, stdout, stderr)."""
    binary = os.path.join(bin_dir, "qmap_e2e_traced" if trace else "qmap_e2e")
    tmp = os.path.join(run.build_root(), "selftest", workload)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        p = subprocess.run([binary, "--workload", workload, "--seed", "1",
                            "--seconds", "2", "--trace", "1" if trace else "0",
                            "--tmp-dir", tmp] + list(extra),
                           capture_output=True, text=True,
                           timeout=run.RUN_CAP_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return p.returncode, p.stdout, p.stderr


def requests(bin_dir, workload, seed):
    code, out, _ = run_binary(bin_dir, workload, "--seed", str(seed),
                              "--dump-requests", "200")
    return out if code == 0 else None


def test_seeded_requests(bin_dir):
    for workload in run.WORKLOADS:
        first = requests(bin_dir, workload, 7)
        check(first is not None and first.count("\n") == 400,
              "%s: the generator prints 200 requests per client" % workload)
        check(first == requests(bin_dir, workload, 7),
              "%s: the same seed yields the same request sequence" % workload)
        check(first != requests(bin_dir, workload, 8),
              "%s: another seed yields another sequence" % workload)


def test_corrupted_response(bin_dir):
    for workload in run.WORKLOADS:
        code, out, err = run_binary(bin_dir, workload, "--corrupt", "3")
        result = run.last_json(out)
        check(code != 0, "%s: a corrupted response fails the run" % workload)
        check(result is not None and not result["correct"] and
              result["failed"] >= 1 and
              result["metrics"]["ok_frac"]["value"] < 1,
              "%s: the corrupted response is counted as failed" % workload)
        check("differs from the reference" in err,
              "%s: the failure names the reference mismatch" % workload)


def test_small_cache_trips_hot_guard(bin_dir):
    code, out, err = run_binary(bin_dir, "hot", "--cache-capacity", "256")
    result = run.last_json(out)
    check(code != 0 and result is not None and not result["correct"],
          "hot: a cache below the hot set fails the run")
    check("hot-set guard" in err, "hot: the failure names the hot-set guard")
    code, _, err = run_binary(bin_dir, "hot")
    check(code == 0 and err == "", "hot: the default cache passes the guard")


def test_fails_without_sources():
    """The benchmark alone, without src/: non-zero exit, no result."""
    lone = os.path.join(run.build_root(), "selftest", "lone")
    shutil.rmtree(lone, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(lone, "e2e_bench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), lone)
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = subprocess.run([sys.executable, "e2e_bench/run.py", "--workload", "hot",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=lone, env=env, capture_output=True, text=True,
                       timeout=180)
    shutil.rmtree(lone, ignore_errors=True)
    check(p.returncode != 0 and run.last_json(p.stdout) is None and
          p.stderr.strip() != "",
          "without src/ the benchmark exits non-zero with a reason and no result")


def main():
    bin_dir = run.build()
    test_seeded_requests(bin_dir)
    test_corrupted_response(bin_dir)
    test_small_cache_trips_hot_guard(bin_dir)
    test_fails_without_sources()
    print("%d failed" % len(FAILURES))
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
