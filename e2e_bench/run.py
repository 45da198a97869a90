#!/usr/bin/env python3
"""qmap end-to-end benchmark: build, run one workload or all, print results.

    python3 e2e_bench/run.py --workload hot --seed 1 --seconds 12 --trace 0
    python3 e2e_bench/run.py                     # every workload, both modes

Builds the benchmark package (e2e_bench/CMakeLists.txt, which compiles qmap
from src/) into $CARGO_TARGET_DIR/e2e (default .bench_build/e2e), then runs
one fresh process per workload. The last line of standard output is the
run's JSON result; a failed set-up, build, correctness check or workload
guard exits non-zero with a one-line reason on standard error. See
e2e_bench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("hot", "cold", "remote")
# Wall-clock cap for one workload process; its run plus set-up and checks
# take well under half of this.
RUN_CAP_S = 160

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2e_bench")


def fail(reason):
    print("e2e_bench: " + reason, file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    """Configures and builds both binaries; returns their directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("qmap sources (src/CMakeLists.txt) not found next to e2e_bench/")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    out = os.path.join(build_root(), "e2e")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
             "--target", "qmap_e2e", "qmap_e2e_traced"],
        ]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail("build failed (" + " ".join(step[:2]) + "), log in " +
                     log_path)
    return out


def git_stamp():
    """(revision, dirty flag) of the checkout, or 'unknown' outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, env=env,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    if rev.returncode != 0:
        return "unknown", "unknown"
    return rev.stdout.strip(), "1" if status.stdout.strip() else "0"


def run_workload(bin_dir, workload, seed, seconds, trace, extra=()):
    """Runs one workload in a fresh process; returns (exit code, stdout)."""
    binary = os.path.join(bin_dir, "qmap_e2e_traced" if trace else "qmap_e2e")
    results = os.path.join(build_root(), "results")
    scratch = os.path.join(build_root(), "tmp")
    os.makedirs(results, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    rev, dirty = git_stamp()
    tmp = tempfile.mkdtemp(prefix=workload + "-", dir=scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp-dir", tmp, "--out-dir", results,
           "--git-revision", rev, "--git-dirty", dirty] + list(extra)
    child = None
    try:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                 cwd=ROOT)
        out, _ = child.communicate(timeout=RUN_CAP_S)
        return child.returncode, out
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("workload %s exceeded its %d s cap" % (workload, RUN_CAP_S))
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_all(bin_dir, seed, seconds):
    """Every workload, untraced then traced, as a table; exit 1 on failure."""
    ok = True
    for trace in (False, True):
        for workload in WORKLOADS:
            code, out = run_workload(bin_dir, workload, seed, seconds, trace)
            result = last_json(out)
            if code != 0 or result is None:
                ok = False
                print("%-7s trace=%d  FAILED (exit %d)" % (workload, trace, code))
                continue
            print("%-7s trace=%d  correct=%s attempted=%d failed=%d" % (
                workload, trace, result["correct"], result["attempted"],
                result["failed"]))
            for name, m in result["metrics"].items():
                print("    %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    # Stopping this script must not leave the workload process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bin_dir = build()
    if args.workload == "all":
        run_all(bin_dir, args.seed, args.seconds)
    code, out = run_workload(bin_dir, args.workload, args.seed, args.seconds,
                             args.trace == 1, extra)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail("workload %s exited with %d" % (args.workload, code))


if __name__ == "__main__":
    main()
