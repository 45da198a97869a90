#!/usr/bin/env python3
"""Diff a google-benchmark JSON run against a committed baseline.

Fails (exit 1) when any benchmark present in the baseline

  * is missing from the current run,
  * regressed by more than --tolerance in a pinned counter (any user counter
    whose name contains "attempts" or "allocs", e.g. "attempts/iter" or
    "allocs_per_iter" — these are deterministic, so any growth is a real
    algorithmic regression: more pattern attempts, or a hot path that
    promised zero allocations starting to allocate), or
  * regressed by more than --time-tolerance in real_time (ns/op).

Additionally, --max-ratio CUR:REF:FRAC (repeatable) asserts a speed ratio
*within the current run*: benchmark CUR's real_time must be at most FRAC of
benchmark REF's. Being run-internal, it is immune to runner speed — it is
how CI pins "the compiled matcher runs in <=0.045x the naive oracle's time" as

    --max-ratio 'MatchWide_Compiled/64:MatchWide_Naive/64:0.045'

--pin SUBSTR (repeatable) pins additional counters by name substring, in
BOTH directions: deterministic outputs such as composed-rule counts and
containment prune rates, where a silent drop is as much an algorithmic
change as growth.

Both runs' build stamps (the qmap_* keys bench/bench_util.h writes into the
JSON context: build type, compiler, CPU count, git revision) are printed.
Two stamped runs whose build type or CPU count differ are not compared: the
script exits 2 with the reason, because their times and ratios say nothing
about each other. A run without a stamp (the committed baselines predate
it) is compared as before, with a warning.

Improvements and new benchmarks never fail the check. Usage:

    check_bench_regression.py CURRENT.json BASELINE.json \
        [--tolerance 0.20] [--time-tolerance 0.20] \
        [--max-ratio CUR:REF:FRAC]... [--pin SUBSTR]...
"""

import argparse
import json
import sys


STAMP_KEYS = ("qmap_build_type", "qmap_compiler", "qmap_num_cpus",
              "qmap_git_revision", "qmap_git_dirty")
# Stamp fields that must agree before two runs' numbers can be compared.
COMPARABLE_KEYS = ("qmap_build_type", "qmap_num_cpus")


def load_run(path, role):
    """(name -> benchmark entry, stamp) of one JSON run.

    Aggregates and error runs are skipped. The stamp is {key: value} over
    STAMP_KEYS found in the run's context, or None for a run written before
    benches were stamped.

    Exits loudly (not with a KeyError/zero-entry pass) when the file is
    unreadable, is not JSON, or parses but has no "benchmarks" section — the
    classic symptom of a bench binary that crashed mid-run and left a
    truncated BENCH_*.json behind.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read {role} file {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {role} file {path} is not valid JSON ({e}); "
                 "was the benchmark run truncated?")
    if "benchmarks" not in doc:
        sys.exit(f"error: {role} file {path} parses as JSON but has no "
                 "\"benchmarks\" section; was the benchmark run truncated "
                 "or the wrong file passed?")
    out = {}
    for bench in doc["benchmarks"]:
        if bench.get("run_type") == "aggregate" or "error_occurred" in bench:
            continue
        out[bench["name"]] = bench
    context = doc.get("context", {})
    stamp = {key: context[key] for key in STAMP_KEYS if key in context}
    return out, (stamp or None)


def describe_stamp(stamp):
    if stamp is None:
        return "unstamped"
    return ", ".join(f"{key[len('qmap_'):]}={stamp.get(key, '?')}"
                     for key in STAMP_KEYS)


def stamp_mismatch(current, baseline):
    """Why two stamped runs cannot be compared, or None."""
    if current is None or baseline is None:
        return None
    differ = [key for key in COMPARABLE_KEYS
              if current.get(key) != baseline.get(key)]
    if not differ:
        return None
    return "; ".join(f"{key[len('qmap_'):]} {baseline.get(key)!r} (baseline) "
                     f"vs {current.get(key)!r} (current)" for key in differ)


def pinned_counters(bench, extra_pins=()):
    """Counters checked against the baseline.

    Returns {name: (value, two_sided)}. Counters whose name contains
    "attempts" or "allocs" are one-sided (only growth is a regression: more
    work attempted, or a zero-alloc promise broken). Counters matching an
    --pin substring are two-sided: they are deterministic outputs (composed
    rule counts, containment prune rates) where a drop is just as much an
    algorithmic change as growth — e.g. the containment pass silently
    pruning fewer redundant sources.
    """
    out = {}
    for key, value in bench.items():
        if not isinstance(value, (int, float)):
            continue
        if "attempts" in key or "allocs" in key:
            out[key] = (value, False)
        elif any(pin in key for pin in extra_pins):
            out[key] = (value, True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed relative growth in pattern-attempt counters")
    parser.add_argument(
        "--time-tolerance", type=float, default=0.20,
        help="allowed relative growth in real_time (ns/op)")
    parser.add_argument(
        "--max-ratio", action="append", default=[], metavar="CUR:REF:FRAC",
        help="assert current-run real_time(CUR) <= FRAC * real_time(REF); "
             "repeatable")
    parser.add_argument(
        "--pin", action="append", default=[], metavar="SUBSTR",
        help="additionally pin counters whose name contains SUBSTR, in both "
             "directions (deterministic outputs where shrinking is as much "
             "a regression as growth); repeatable")
    args = parser.parse_args()

    current, current_stamp = load_run(args.current, "current-run")
    baseline, baseline_stamp = load_run(args.baseline, "baseline")
    print(f"current stamp:  {describe_stamp(current_stamp)}")
    print(f"baseline stamp: {describe_stamp(baseline_stamp)}")
    mismatch = stamp_mismatch(current_stamp, baseline_stamp)
    if mismatch is not None:
        print(f"error: refusing to compare {args.current} with "
              f"{args.baseline}: their builds differ in {mismatch}",
              file=sys.stderr)
        return 2
    for stamp, role in ((baseline_stamp, "baseline"),
                        (current_stamp, "current run")):
        if stamp is None:
            print(f"warning: the {role} is unstamped, so its build type and "
                  "CPU count are unknown; comparing anyway", file=sys.stderr)
    if not baseline:
        print(f"error: no benchmarks in baseline {args.baseline}")
        return 1
    # One aggregated loud failure, instead of a per-benchmark "missing from
    # current run" wall, when the fresh run produced nothing at all.
    if not current:
        print(f"error: baseline {args.baseline} has {len(baseline)} "
              f"benchmark(s) but current run {args.current} has none — "
              "the bench binary likely crashed or was filtered to nothing",
              file=sys.stderr)
        return 1

    failures = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        pins = pinned_counters(base, args.pin)
        for counter, (base_value, two_sided) in pins.items():
            cur_value = cur.get(counter)
            if cur_value is None:
                failures.append(f"{name}: counter {counter} disappeared")
                continue
            # Sub-attempt noise can't occur (counters are deterministic), but
            # guard the ratio against a zero baseline.
            upper = base_value * (1.0 + args.tolerance) + 0.5
            lower = base_value * (1.0 - args.tolerance) - 0.5
            bad = cur_value > upper or (two_sided and cur_value < lower)
            status = "REGRESSED" if bad else "ok"
            print(f"{name} {counter}: {base_value:g} -> {cur_value:g} "
                  f"[{status}]")
            if bad:
                failures.append(
                    f"{name}: {counter} {base_value:g} -> {cur_value:g} "
                    f"(beyond {args.tolerance:.0%}"
                    f"{' two-sided' if two_sided else ''})")
        base_time = base.get("real_time")
        cur_time = cur.get("real_time")
        # `is not None`, not truthiness: a 0.0 baseline (possible for
        # counter-only benches) must not silently skip the check, and a
        # benchmark whose real_time field disappeared is a failure, not a
        # pass.
        if base_time is not None:
            if cur_time is None:
                failures.append(f"{name}: real_time disappeared from current run")
            else:
                limit = base_time * (1.0 + args.time_tolerance)
                status = "ok" if cur_time <= limit else "REGRESSED"
                print(f"{name} real_time: {base_time:.0f} -> {cur_time:.0f} ns "
                      f"[{status}]")
                if cur_time > limit:
                    failures.append(
                        f"{name}: real_time {base_time:.0f} -> {cur_time:.0f} ns "
                        f"(> +{args.time_tolerance:.0%})")

    for spec in args.max_ratio:
        parts = spec.rsplit(":", 1)
        names = parts[0].split(":") if len(parts) == 2 else []
        if len(parts) != 2 or len(names) != 2:
            sys.exit(f"error: bad --max-ratio spec {spec!r} "
                     "(expected CUR:REF:FRAC)")
        cur_name, ref_name = names
        try:
            frac = float(parts[1])
        except ValueError:
            sys.exit(f"error: bad --max-ratio fraction in {spec!r}")
        cur = current.get(cur_name)
        ref = current.get(ref_name)
        if cur is None or ref is None:
            missing = cur_name if cur is None else ref_name
            failures.append(f"--max-ratio {spec}: {missing} missing from "
                            "current run")
            continue
        cur_time, ref_time = cur.get("real_time"), ref.get("real_time")
        if not cur_time or not ref_time:
            failures.append(f"--max-ratio {spec}: real_time missing/zero")
            continue
        ratio = cur_time / ref_time
        status = "ok" if ratio <= frac else "REGRESSED"
        print(f"ratio {cur_name} / {ref_name}: {ratio:.3f} "
              f"(limit {frac:g}) [{status}]")
        if ratio > frac:
            failures.append(
                f"{cur_name} is {ratio:.2f}x of {ref_name} (limit {frac:g})")

    if failures:
        print(f"\n{len(failures)} perf regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(baseline)} benchmarks within tolerance "
          f"(attempts +{args.tolerance:.0%}, time +{args.time_tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
