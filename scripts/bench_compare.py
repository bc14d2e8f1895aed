#!/usr/bin/env python3
"""Diff two BENCH_<label>.json trajectories; exit nonzero on regression.

Usage:
  scripts/bench_compare.py BASELINE.json CANDIDATE.json [options]

A record is a {"bench", "metric", "value", "unit"} object as written by
scripts/bench_all.sh (a bare JSON array of records is accepted too).
Trajectories whose timings are not comparable are refused outright: when
the envelopes or the records of the two files carry different
"build_type" values (say Release against RelWithDebInfo+address,undefined)
or different "hw_concurrency" values, the script exits 2 and names both.
A file without a stamp compares against anything.
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

Exit codes: 0 = no regression, 1 = regression(s), 2 = usage/input error
or incomparable trajectories.
"""

import argparse
import fnmatch
import json
import sys


# Stamps that make two trajectories incomparable when their values differ.
STAMPS = ("build_type", "hw_concurrency")


def load_records(path):
    """Returns ({(bench, metric): (value, unit)}, {stamp: values stamped on
    the envelope and the records})."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    records = doc["records"] if isinstance(doc, dict) else doc
    stamps = {stamp: set() for stamp in STAMPS}
    for stamped in ([doc] if isinstance(doc, dict) else []) + records:
        for stamp in STAMPS:
            if stamped.get(stamp) is not None:
                stamps[stamp].add(stamped[stamp])
    out = {}
    for r in records:
        out[(r["bench"], r["metric"])] = (float(r["value"]), r.get("unit", ""))
    return out, stamps


def names(values):
    return ", ".join(str(v) for v in sorted(values))


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

    baseline, baseline_stamps = load_records(args.baseline)
    candidate, candidate_stamps = load_records(args.candidate)
    for stamp in STAMPS:
        base, cand = baseline_stamps[stamp], candidate_stamps[stamp]
        if base and cand and base != cand:
            print(f"error: refusing to compare trajectories taken at "
                  f"different {stamp}: baseline {names(base)} vs candidate "
                  f"{names(cand)}", file=sys.stderr)
            return 2

    regressions = []
    missing = []
    compared = 0
    for key, (base_value, unit) in sorted(baseline.items()):
        bench, metric = key
        if key not in candidate:
            missing.append(key)
            continue
        cand_value, _ = candidate[key]
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
          f"({len(missing)} missing in candidate, {new_keys} new)")

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
