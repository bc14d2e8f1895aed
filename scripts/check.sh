#!/usr/bin/env bash
# Sanitizer gate: builds the whole tree with ASan+UBSan and runs ctest.
# The obs subsystem is the reason this exists — its registry/tracer mutexes
# and counter atomics should stay race- and UB-clean — but the gate covers
# every target. Usage:
#   scripts/check.sh                # address,undefined (default)
#   scripts/check.sh --tsan         # ThreadSanitizer over the suites whose
#                                   # objects callers may share across
#                                   # their own threads: the storage
#                                   # layer's locks, intern pool, event log
#                                   # and cancel token, plus the chase
#                                   # differential sweeps that drive them,
#                                   # all under -fsanitize=thread
#                                   # (build-tsan/)
#   MM2_SANITIZE=thread scripts/check.sh   # TSan over the full suite
#   BUILD_DIR=/tmp/san scripts/check.sh
#   MM2_BENCH_SMOKE=1 scripts/check.sh   # also run the bench-regression
#                                        # harness end-to-end at tiny sizes
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS="${MM2_SANITIZE:-address,undefined}"
BUILD_DIR="${BUILD_DIR:-build-sanitize}"
TEST_FILTER=""

if [[ "${1:-}" == "--tsan" ]]; then
  SANITIZERS="thread"
  BUILD_DIR="${BUILD_DIR_TSAN:-build-tsan}"
  # mm2 runs every call on its caller's thread; these suites cover the
  # state a caller may share across its own threads. RelationInstance /
  # InstanceTest exercise the lazy hash indexes (concurrent-probe test,
  # naive-vs-indexed differential sweep). SharedReadTest runs chases and
  # certain-answer queries over one shared const source, plain and sealed,
  # each counting only its own reads. InternPool / ValueIntern
  # cover the sharded string pool: racing Intern() calls and lock-free
  # Get()s from freshly published chunks.
  # EventLog/CancelToken/Watchdog join the filter: the event log's ring
  # mutex + enabled/emitted atomics and the cancel token's relaxed stop
  # flag are exactly the kind of cross-thread state TSan is here for.
  # AnalysisTest/WatchdogForesight cover the analysis attach: foresight
  # events and gauges ride the shared event-log/registry mutexes.
  # Segment/RelationSegment/ChaseSegmentedDiffProperty/
  # ClosureSegmentedDiffProperty cover the sealed run: the const
  # PrepareSegments seal under index_mu_, which shares its lock with the
  # lazy hash-index build, and reads of the run a chase sealed on publish.
  # EqualsUpToNulls/MaintainDRed/IncrementalSweep/SealPoint/RunDelta
  # cover the incremental-exchange layer: session maintenance driving
  # Erase/Insert churn, which drops the run and maintains the lazily built
  # hash indexes under the same index_mu_, and the chase run's own delta
  # lists, which an egd unification rewrites.
  TEST_FILTER="ChaseDiffProperty|ClosureDiffProperty|ChaseSerializeDiffProperty|RelationInstance|InstanceTest|SharedReadTest|InternPool|ValueIntern|AnalysisTest|WatchdogForesight|EventLog|CancelToken|Watchdog|SegmentInserterTest|SegmentProbeTest|RelationSegmentTest|InstanceSegmentTest|ChaseSegmentedDiffProperty|ClosureSegmentedDiffProperty|EqualsUpToNulls|MaintainDRed|IncrementalSweep|SealPoint|RunDelta"
fi

# Every gate appends its temp files here; one EXIT trap removes them all
# (a per-gate trap would replace the previous gate's).
CLEANUP=()
cleanup() {
  if ((${#CLEANUP[@]} > 0)); then rm -rf "${CLEANUP[@]}"; fi
}
trap cleanup EXIT

cmake -B "$BUILD_DIR" -S . \
  -DMM2_SANITIZE="$SANITIZERS" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)"
if [[ -n "$TEST_FILTER" ]]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
    -R "$TEST_FILTER"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
fi
echo "sanitizer check ($SANITIZERS) passed"

# Structured-log smoke gate (default path only): drive the demo session
# through the shell under MM2_LOG=json and validate that every event line
# on stderr is standalone JSON — the contract downstream log collectors
# depend on. Runs on the sanitizer build, so it also shakes the log path.
if [[ -z "$TEST_FILTER" && -x "$BUILD_DIR/examples/mm2_shell" ]]; then
  LOG_TMP="$(mktemp)"
  CLEANUP+=("$LOG_TMP")
  MM2_LOG=json "$BUILD_DIR/examples/mm2_shell" \
    < examples/data/demo_session.mm2 > /dev/null 2> "$LOG_TMP"
  python3 - "$LOG_TMP" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit("error: MM2_LOG=json produced no event lines")
for i, line in enumerate(lines, 1):
    try:
        event = json.loads(line)
    except json.JSONDecodeError as err:
        sys.exit(f"error: stderr line {i} is not JSON ({err}): {line!r}")
    for key in ("seq", "t_us", "level", "event"):
        if key not in event:
            sys.exit(f"error: event line {i} lacks '{key}': {line!r}")
print(f"structured-log smoke gate passed ({len(lines)} JSON event lines)")
EOF
fi

# Exchange smoke gate (default path only): the demo exchange, printed
# instance and certain-answer query (scripts/gates/exchange.mm2) must exit
# cleanly and print exactly the recorded output in
# scripts/gates/exchange.expected.
if [[ -z "$TEST_FILTER" && -x "$BUILD_DIR/examples/mm2_shell" ]]; then
  EXC_OUT="$(mktemp)"
  CLEANUP+=("$EXC_OUT")
  "$BUILD_DIR/examples/mm2_shell" \
    < scripts/gates/exchange.mm2 > "$EXC_OUT" 2> /dev/null
  if ! diff -u scripts/gates/exchange.expected "$EXC_OUT"; then
    echo "error: demo exchange output diverged from scripts/gates/exchange.expected" >&2
    exit 1
  fi
  echo "exchange smoke gate passed (demo output matches the recorded output)"
fi

# Incremental-exchange smoke gate (default path only): drive an exchange,
# queue a delta (`apply`), `maintain` it, ask `why` about one fact the delta
# derived and one it deleted (read in place from the maintained session's
# provenance), and re-chase the post-delta source from scratch
# (scripts/gates/incremental.mm2); the maintained target must be equal up
# to null renaming (`eqcheck ... equal`), the two `why` answers must name
# the inserted source fact and report no derivation, and the whole session
# must print exactly the recorded output in scripts/gates/incremental.expected.
if [[ -z "$TEST_FILTER" && -x "$BUILD_DIR/examples/mm2_shell" ]]; then
  INC_OUT="$(mktemp)"
  CLEANUP+=("$INC_OUT")
  "$BUILD_DIR/examples/mm2_shell" \
    < scripts/gates/incremental.mm2 > "$INC_OUT" 2> /dev/null
  if ! grep -q "eqcheck Dprime Rechase: equal" "$INC_OUT"; then
    echo "error: maintained target diverged from the from-scratch re-chase" >&2
    exit 1
  fi
  if ! grep -qF '<- Addresses(7, "9 Elm", "US")' "$INC_OUT"; then
    echo "error: why after maintain did not name the inserted source fact" >&2
    exit 1
  fi
  if ! grep -qF 'NamesP(2, "Bob") has no recorded derivation' "$INC_OUT"; then
    echo "error: why after maintain still derives the deleted fact" >&2
    exit 1
  fi
  if ! diff -u scripts/gates/incremental.expected "$INC_OUT"; then
    echo "error: incremental session output diverged from scripts/gates/incremental.expected" >&2
    exit 1
  fi
  echo "incremental smoke gate passed (maintain ≡ re-chase, why reads the maintained provenance, output matches the recorded output)"
fi

# DOT-validity gate (default path only): `explain mapping --dot` over the
# demo mapping must emit a syntactically sound graphviz digraph. Balanced
# braces + edge/node shape are checked in python; when graphviz happens to
# be installed, `dot -Tcanon` parses it for real.
if [[ -z "$TEST_FILTER" && -x "$BUILD_DIR/examples/mm2_shell" ]]; then
  DOT_TMP="$(mktemp)"
  CLEANUP+=("$DOT_TMP")
  {
    echo "load-schema examples/data/school.schema"
    echo "load-schema examples/data/school_v2.schema"
    echo "load-mapping examples/data/split.mapping"
    echo "explain mapping mapSSp --dot"
    echo "quit"
  } | "$BUILD_DIR/examples/mm2_shell" 2> /dev/null \
    | sed 's/^mm2> //' \
    | sed -n '/^digraph mapping_analysis {$/,/^}$/p' > "$DOT_TMP"
  python3 - "$DOT_TMP" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
if not text.startswith("digraph mapping_analysis {"):
    sys.exit("error: explain mapping --dot produced no digraph")
depth = 0
for i, ch in enumerate(text):
    if ch == "{": depth += 1
    elif ch == "}":
        depth -= 1
        if depth < 0:
            sys.exit(f"error: unbalanced '}}' at offset {i}")
if depth != 0:
    sys.exit(f"error: {depth} unclosed braces in DOT output")
nodes = re.findall(r'^\s*[rp]\d+ \[', text, re.M)
edges = re.findall(r'^\s*[rp]\d+ -> [rp]\d+', text, re.M)
if not nodes:
    sys.exit("error: DOT output declares no nodes")
print(f"dot gate passed ({len(nodes)} nodes, {len(edges)} edges)")
EOF
  if command -v dot > /dev/null 2>&1; then
    dot -Tcanon "$DOT_TMP" > /dev/null
    echo "dot gate: graphviz parse also passed"
  fi
fi

# JSON gate (default path only): drive the demo exchange plus one maintained
# delta under `trace`, then `explain --json`, `stats --json` and `explain
# mapping mapSSp --json`. Every JSON line and the trace file must parse, and
# every object in explain's report must carry exactly the recorded keys, in
# order.
if [[ -z "$TEST_FILTER" && -x "$BUILD_DIR/examples/mm2_shell" ]]; then
  JSON_OUT="$(mktemp)"
  JSON_TRACE="$(mktemp)"
  CLEANUP+=("$JSON_OUT" "$JSON_TRACE")
  {
    echo "load-schema examples/data/school.schema"
    echo "load-schema examples/data/school_v2.schema"
    echo "load-instance D examples/data/school.instance"
    echo "load-mapping examples/data/split.mapping"
    echo "trace $JSON_TRACE"
    echo "exchange Dprime mapSSp D"
    echo 'apply +Names(3,"Cy")'
    echo "maintain mapSSp"
    echo "explain --json"
    echo "stats --json"
    echo "explain mapping mapSSp --json"
    echo "quit"
  } | "$BUILD_DIR/examples/mm2_shell" 2> /dev/null > "$JSON_OUT"
  python3 - "$JSON_OUT" "$JSON_TRACE" <<'EOF'
import json, re, sys
try:
    json.load(open(sys.argv[2]))
except json.JSONDecodeError as err:
    sys.exit(f"error: the trace file does not parse ({err})")
docs = []
for line in open(sys.argv[1]):
    line = re.sub(r"^(mm2> )+", "", line).strip()
    if line.startswith("{"):
        try:
            docs.append(json.loads(line))
        except json.JSONDecodeError as err:
            sys.exit(f"error: JSON output does not parse ({err}): {line!r}")
if len(docs) != 3:
    sys.exit(f"error: expected 3 JSON lines (explain, stats, explain mapping), got {len(docs)}")
explain, stats, mapping = docs
if list(stats) != ["counters", "gauges", "histograms"]:
    sys.exit(f"error: stats --json keys are {list(stats)}")
if "rules" not in mapping:
    sys.exit("error: explain mapping --json has no rules")
keys = {
    "report": ["operators", "rules", "foresight", "phases", "storage",
               "values", "incremental", "totals"],
    "operators": ["name", "calls", "errors", "total_us", "share", "p50_us",
                  "p95_us", "p99_us", "max_us"],
    "rules": ["label", "kind", "wall_us", "share", "triggers_tested",
              "firings", "nulls_created", "rounds_active", "rounds",
              "round_p50_us", "round_p95_us", "round_max_us"],
    "foresight": ["analyzed", "terminating", "armed", "predicted_rounds",
                  "observed_rounds"],
    "phases": ["name", "count", "total_us", "self_us", "share", "max_us"],
    "storage": ["index_probes", "index_probe_hits", "index_builds",
                "delta_tuples", "delta_rule_skips", "segment_seals",
                "segment_sealed_rows", "segment_compares", "segment_probes",
                "segment_probe_hits", "segment_skips",
                "segment_live_segments"],
    "values": ["value_bytes", "interned_strings", "interned_bytes",
               "intern_hits", "intern_misses", "peak_rss_kb"],
    "incremental": ["maintains", "fallbacks", "dred_candidates", "dred_kept",
                    "source_inserts", "source_deletes", "target_inserts",
                    "target_deletes", "latency_us", "provenance_facts",
                    "provenance_witnesses", "provenance_support_edges",
                    "provenance_bytes"],
    "totals": ["operator_total_us", "rule_total_us", "phase_total_us"],
}
def check(where, obj, want):
    if list(obj) != want:
        sys.exit(f"error: explain --json {where} keys are {list(obj)}, want {want}")
check("report", explain, keys["report"])
objects = 1
for section in keys["report"]:
    value = explain[section]
    items = value if isinstance(value, list) else [value]
    if not items:
        sys.exit(f"error: explain --json {section} is empty")
    for item in items:
        check(section, item, keys[section])
        objects += 1
print(f"json gate passed (3 JSON lines and the trace parse, {objects} explain objects carry the recorded keys)")
EOF
fi

# Opt-in bench smoke: exercises bench_all.sh + bench_compare.py end to end
# at tiny sizes — a self-compare must pass, an inflated copy must fail,
# proving the regression gate actually gates, and copies stamped with
# another core count or another build type must be refused (exit 2). A
# stray bench_zz_stale planted in the bench directory (the binary a deleted
# target leaves behind) must be named on stderr and never run: it would
# fail the run and add a zz_stale record.
if [[ "${MM2_BENCH_SMOKE:-0}" == "1" ]]; then
  SMOKE_DIR="$(mktemp -d)"
  CLEANUP+=("$SMOKE_DIR")
  STRAY="$BUILD_DIR/bench/bench_zz_stale"
  CLEANUP+=("$STRAY")
  cat > "$STRAY" <<'EOF'
#!/bin/sh
echo '{"bench": "zz_stale", "metric": "x", "value": 1, "unit": "us"}'
exit 1
EOF
  chmod +x "$STRAY"
  bench_status=0
  MM2_BENCH_SMOKE=1 MM2_BENCH_OUT_DIR="$SMOKE_DIR" \
    scripts/bench_all.sh smoke "$BUILD_DIR" 2> "$SMOKE_DIR/bench_all.err" \
    || bench_status=$?
  cat "$SMOKE_DIR/bench_all.err" >&2
  rm -f "$STRAY"
  if [[ "$bench_status" -ne 0 ]]; then
    echo "error: bench_all.sh failed (exit $bench_status)" >&2
    exit 1
  fi
  if ! grep -q "stray binary bench_zz_stale" "$SMOKE_DIR/bench_all.err"; then
    echo "error: bench_all.sh did not name the stray bench_zz_stale" >&2
    exit 1
  fi
  if grep -q zz_stale "$SMOKE_DIR/BENCH_smoke.json"; then
    echo "error: bench_all.sh ran the stray bench_zz_stale" >&2
    exit 1
  fi
  python3 scripts/bench_compare.py \
    "$SMOKE_DIR/BENCH_smoke.json" "$SMOKE_DIR/BENCH_smoke.json"
  python3 - "$SMOKE_DIR" <<'EOF'
import json, sys
smoke_dir = sys.argv[1]
doc = json.load(open(f"{smoke_dir}/BENCH_smoke.json"))
for r in doc["records"]:
    if r["unit"] == "us":
        r["value"] *= 10
json.dump(doc, open(f"{smoke_dir}/BENCH_inflated.json", "w"))
EOF
  if python3 scripts/bench_compare.py \
      "$SMOKE_DIR/BENCH_smoke.json" "$SMOKE_DIR/BENCH_inflated.json"; then
    echo "error: bench_compare.py missed a 10x synthetic regression" >&2
    exit 1
  fi
  for stamp in hw_concurrency build_type; do
    python3 - "$SMOKE_DIR" "$stamp" <<'EOF'
import json, sys
smoke_dir, stamp = sys.argv[1], sys.argv[2]
doc = json.load(open(f"{smoke_dir}/BENCH_smoke.json"))
value = doc[stamp]
other = value + 1 if isinstance(value, int) else value + "-other"
doc[stamp] = other
for r in doc["records"]:
    r[stamp] = other
json.dump(doc, open(f"{smoke_dir}/BENCH_other_{stamp}.json", "w"))
EOF
    stamp_status=0
    python3 scripts/bench_compare.py \
      "$SMOKE_DIR/BENCH_smoke.json" "$SMOKE_DIR/BENCH_other_$stamp.json" \
      || stamp_status=$?
    if [[ "$stamp_status" -ne 2 ]]; then
      echo "error: bench_compare.py compared across $stamp (exit $stamp_status, want 2)" >&2
      exit 1
    fi
  done
  echo "bench smoke gate passed (stray binary skipped, self-compare ok, 10x inflation caught, hw_concurrency and build_type mismatches refused)"
fi
