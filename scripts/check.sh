#!/usr/bin/env bash
# Sanitizer gate: builds the whole tree with ASan+UBSan and runs ctest.
# The obs subsystem is the reason this exists — its registry/tracer mutexes
# and counter atomics should stay race- and UB-clean — but the gate covers
# every target. Usage:
#   scripts/check.sh                # address,undefined (default)
#   scripts/check.sh --tsan         # ThreadSanitizer over the shared-state
#                                   # suites: the thread pool and parallel
#                                   # hash join, the storage layer's locks,
#                                   # intern pool, event log and cancel
#                                   # token, plus the chase differential
#                                   # sweeps that drive them, all under
#                                   # -fsanitize=thread (build-tsan/)
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
  # The suites exercising RelationInstance's index/delta machinery
  # (concurrent-probe test, naive-vs-indexed differential sweep) plus the
  # thread pool's one user: the work-stealing pool itself, its thread-count
  # resolution, and the sharded parallel hash join. InternPool /
  # ValueIntern cover the sharded string pool: racing Intern() calls and
  # lock-free Get()s from freshly published chunks.
  # EventLog/CancelToken/Watchdog join the filter: the event log's ring
  # mutex + enabled/emitted atomics and the cancel token's relaxed stop
  # flag are exactly the kind of cross-thread state TSan is here for.
  # ChaseStratifiedDiffProperty/ClosureStratifiedDiffProperty/Analysis/
  # WatchdogForesight cover the stratified scheduler + analysis attach —
  # the scheduler state is per-run but its metric mirroring and foresight
  # events ride the shared registry/event-log mutexes.
  # Segment/RelationSegment/ChaseSegmentedDiffProperty/
  # ClosureSegmentedDiffProperty cover the sealed run: the const
  # PrepareSegments seal under index_mu_, which shares its lock with the
  # lazy hash-index build, and reads of the run a chase sealed on publish.
  # EqualsUpToNulls/TombstoneDeltaView/MaintainDRed/IncrementalSweep/
  # SealPoint cover the incremental-exchange layer: tombstone-aware deltas
  # over the insert log, and session maintenance driving Erase/Insert
  # churn (which drops the run) against the lazily built log-position map
  # under the same index_mu_.
  TEST_FILTER="ChaseDiffProperty|ClosureDiffProperty|ChaseSerializeDiffProperty|RelationInstance|InstanceTest|InternPool|ValueIntern|ThreadPool|ResolveThreadCount|ChaseStratifiedDiffProperty|ClosureStratifiedDiffProperty|AnalysisTest|WatchdogForesight|ParallelHashJoin|EventLog|CancelToken|Watchdog|SegmentInserterTest|SegmentProbeTest|RelationSegmentTest|InstanceSegmentTest|ChaseSegmentedDiffProperty|ClosureSegmentedDiffProperty|EqualsUpToNulls|TombstoneDeltaView|MaintainDRed|IncrementalSweep|SealPoint"
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

# Opt-in bench smoke: exercises bench_all.sh + bench_compare.py end to end
# at tiny sizes — a self-compare must pass, and an inflated copy must fail,
# proving the regression gate actually gates.
if [[ "${MM2_BENCH_SMOKE:-0}" == "1" ]]; then
  SMOKE_DIR="$(mktemp -d)"
  CLEANUP+=("$SMOKE_DIR")
  MM2_BENCH_SMOKE=1 MM2_BENCH_OUT_DIR="$SMOKE_DIR" \
    scripts/bench_all.sh smoke "$BUILD_DIR"
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
  echo "bench smoke gate passed (self-compare ok, 10x inflation caught)"
fi
