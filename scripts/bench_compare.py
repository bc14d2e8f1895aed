#!/usr/bin/env python3
"""Diff two BENCH_<label>.json trajectories; exit nonzero on regression.

Usage:
  scripts/bench_compare.py BASELINE.json CANDIDATE.json [options]

A record is a {"bench", "metric", "value", "unit"} object as written by
scripts/bench_all.sh (a bare JSON array of records is accepted too).
Records may additionally carry "threads" (the MM2_THREADS-resolved worker
count the bench process ran under): a pair of records taken at different
thread counts is never compared — parallel walls are not comparable to
serial walls — and is reported separately instead. Records without the
field (pre-parallel baselines) compare against anything.
Records are keyed by (bench, metric) and classified:

  time metrics   unit == "us": a candidate slower than
                 baseline * (1 + threshold) AND by more than --abs-floor-us
                 is a regression. Improvements never fail.
  memory metrics unit == "kb" (the mem.* family, e.g. mem.peak_rss_kb): a
                 candidate above baseline * (1 + --mem-threshold) AND by
                 more than --abs-floor-kb is a regression. Improvements
                 never fail. The family has its own threshold because RSS
                 is far less jittery than wall time, so a tighter gate
                 holds without flaking.
  count metrics  everything else: informational only by default, because
                 google-benchmark chooses iteration counts per run, which
                 makes raw counter totals run-dependent. --strict-counts
                 turns any relative change above the threshold into a
                 failure (useful when comparing runs with pinned
                 --benchmark_min_time against the same binary).

Per-metric thresholds override the default via repeatable
  --metric-threshold 'GLOB=FRACTION'
e.g. --metric-threshold 'chase.run.latency_us.*=1.0' allows 2x on the
chase while everything else stays at the default.

Exit codes: 0 = no regression, 1 = regression(s), 2 = usage/input error.
"""

import argparse
import fnmatch
import json
import sys


def load_records(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    records = doc["records"] if isinstance(doc, dict) else doc
    out = {}
    for r in records:
        out[(r["bench"], r["metric"])] = (float(r["value"]), r.get("unit", ""),
                                          r.get("threads"))
    return out


def threshold_for(metric, overrides, default):
    for pattern, frac in overrides:
        if fnmatch.fnmatch(metric, pattern):
            return frac
    return default


def main():
    parser = argparse.ArgumentParser(
        description="Compare two bench_all.sh trajectories.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="default allowed relative slowdown for time "
                             "metrics (0.5 = 50%%; default %(default)s)")
    parser.add_argument("--abs-floor-us", type=float, default=50.0,
                        help="ignore time regressions smaller than this many "
                             "microseconds (jitter floor; default %(default)s)")
    parser.add_argument("--mem-threshold", type=float, default=0.25,
                        help="allowed relative growth for memory (unit 'kb') "
                             "metrics (0.25 = 25%%; default %(default)s)")
    parser.add_argument("--abs-floor-kb", type=float, default=4096.0,
                        help="ignore memory regressions smaller than this "
                             "many KiB (allocator noise floor; default "
                             "%(default)s)")
    parser.add_argument("--metric-threshold", action="append", default=[],
                        metavar="GLOB=FRACTION",
                        help="per-metric threshold override, repeatable")
    parser.add_argument("--strict-counts", action="store_true",
                        help="fail on count-metric drift above the threshold")
    parser.add_argument("--strict-missing", action="store_true",
                        help="fail when the candidate lacks baseline metrics")
    parser.add_argument("--list", action="store_true",
                        help="print every compared metric, not just offenders")
    args = parser.parse_args()

    overrides = []
    for spec in args.metric_threshold:
        pattern, sep, frac = spec.partition("=")
        if not sep:
            sys.exit(f"error: bad --metric-threshold '{spec}' "
                     "(want GLOB=FRACTION)")
        try:
            overrides.append((pattern, float(frac)))
        except ValueError:
            sys.exit(f"error: bad fraction in --metric-threshold '{spec}'")

    baseline = load_records(args.baseline)
    candidate = load_records(args.candidate)

    regressions = []
    missing = []
    thread_mismatches = []
    compared = 0
    for key, (base_value, unit, base_threads) in sorted(baseline.items()):
        bench, metric = key
        if key not in candidate:
            missing.append(key)
            continue
        cand_value, _, cand_threads = candidate[key]
        if (base_threads is not None and cand_threads is not None
                and base_threads != cand_threads):
            thread_mismatches.append((key, base_threads, cand_threads))
            continue
        compared += 1
        is_time = unit == "us"
        is_memory = unit == "kb"
        default = args.mem_threshold if is_memory else args.threshold
        frac = threshold_for(metric, overrides, default)
        if base_value > 0:
            ratio = cand_value / base_value
        else:
            ratio = float("inf") if cand_value > 0 else 1.0
        if args.list:
            print(f"  {bench} {metric}: {base_value:g} -> {cand_value:g} "
                  f"({ratio:.2f}x, {unit or 'value'})")
        over = ratio > 1.0 + frac
        if is_time:
            if over and cand_value - base_value > args.abs_floor_us:
                regressions.append((bench, metric, base_value, cand_value,
                                    ratio, frac))
        elif is_memory:
            if over and cand_value - base_value > args.abs_floor_kb:
                regressions.append((bench, metric, base_value, cand_value,
                                    ratio, frac))
        elif args.strict_counts:
            drifted = over or (base_value > 0 and ratio < 1.0 - frac)
            if drifted:
                regressions.append((bench, metric, base_value, cand_value,
                                    ratio, frac))

    new_keys = len([k for k in candidate if k not in baseline])
    print(f"compared {compared} metrics "
          f"({len(missing)} missing in candidate, {new_keys} new, "
          f"{len(thread_mismatches)} skipped for thread-count mismatch)")

    if thread_mismatches:
        for (bench, metric), bt, ct in thread_mismatches[:10]:
            print(f"  not compared (threads {bt} vs {ct}): {bench} {metric}")
        if len(thread_mismatches) > 10:
            print(f"  ... and {len(thread_mismatches) - 10} more")

    if missing:
        for bench, metric in missing[:10]:
            print(f"  missing in candidate: {bench} {metric}")
        if len(missing) > 10:
            print(f"  ... and {len(missing) - 10} more")

    if regressions:
        regressions.sort(key=lambda r: r[4], reverse=True)
        print(f"{len(regressions)} regression(s) "
              f"(threshold {args.threshold:.0%} default):")
        for bench, metric, base_value, cand_value, ratio, frac in regressions:
            print(f"  REGRESSION {bench} {metric}: "
                  f"{base_value:g} -> {cand_value:g} "
                  f"({ratio:.2f}x, allowed {1 + frac:.2f}x)")
        return 1
    if args.strict_missing and missing:
        print("failing: candidate is missing baseline metrics "
              "(--strict-missing)")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
