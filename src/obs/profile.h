#ifndef MM2_OBS_PROFILE_H_
#define MM2_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mm2::obs {

struct Context;

// One engine operator's aggregate cost, read from the `op.<name>.*` metric
// family. Quantiles come from the operator's latency histogram.
struct OperatorCost {
  std::string name;  // "compose", "exchange", ...
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  double total_us = 0;  // histogram sum across all calls
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double share = 0;  // fraction of the summed operator time
};

// One chase constraint's attributed cost, read from the
// `chase.rule.<label>.*` family that chase::MirrorStats publishes.
struct RuleCost {
  std::string label;  // "tgd0:Data->Left+Right", "egd0:R:x=y", ...
  std::string kind;   // "tgd" | "egd" | "so_tgd"
  double wall_us = 0;
  std::uint64_t triggers_tested = 0;
  std::uint64_t firings = 0;
  std::uint64_t nulls_created = 0;
  std::uint64_t rounds_active = 0;
  // Per-round wall-time distribution (from the rule's round_us histogram).
  std::uint64_t rounds = 0;
  double round_p50_us = 0;
  double round_p95_us = 0;
  double round_max_us = 0;
  double share = 0;  // fraction of the summed rule wall time
};

// Termination foresight read back from the `chase.foresight.*` family:
// what the static classifier predicted versus what the chase observed.
struct ForesightCost {
  bool analyzed = false;      // any foresight metric present
  bool terminating = false;   // classifier verdict
  bool armed = false;         // watchdog budget auto-armed
  std::uint64_t predicted_rounds = 0;  // static upper bound (saturating)
  std::uint64_t observed_rounds = 0;   // what the chase actually took

  bool any() const { return analyzed; }
};

// One span name aggregated across the tree — the "phase" view. self_us is
// total_us minus the time spent in child spans, so a phase that merely
// wraps others ranks below the phases doing the work.
struct PhaseCost {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_us = 0;
  std::int64_t self_us = 0;
  std::int64_t max_us = 0;
  double share = 0;  // fraction of the summed self time
};

// Storage-layer telemetry: index probe traffic and semi-naive delta sizes,
// read from the `index.*` / `chase.delta.*` counters that the chase (and
// the engine, for algebra evaluation) mirror into the registry. The hit
// rate and delta volume are how `explain` attributes the time the indexed
// executor saved over rescanning.
struct StorageCost {
  std::uint64_t index_probes = 0;
  std::uint64_t index_probe_hits = 0;  // tuples yielded across all probes
  std::uint64_t index_builds = 0;      // lazy index constructions
  std::uint64_t delta_tuples = 0;      // tuples consumed by delta re-matches
  std::uint64_t delta_rule_skips = 0;  // rule-rounds skipped (empty deltas)
  // Sealed-run telemetry, read from the `storage.segment.*` family the
  // chase mirrors once a run sealed or served a probe.
  std::uint64_t segment_seals = 0;          // runs sealed (on publish)
  std::uint64_t segment_sealed_rows = 0;    // rows across sealed runs
  std::uint64_t segment_compares = 0;       // tuple compares (probes)
  std::uint64_t segment_probes = 0;         // prefix probes served
  std::uint64_t segment_probe_hits = 0;     // rows yielded by probes
  std::uint64_t segment_skips = 0;          // probes skipped via min/max
  std::uint64_t segment_live_segments = 0;  // relations holding a run

  bool segments() const { return segment_seals != 0 || segment_probes != 0; }

  bool any() const {
    return index_probes != 0 || index_probe_hits != 0 || index_builds != 0 ||
           delta_tuples != 0 || delta_rule_skips != 0 || segments();
  }
};

// Value-layer telemetry: the process-wide string intern pool behind the
// compact Value representation, read from the `value.*` gauges that
// chase::MirrorValueStats refreshes. The hit rate is how often string
// construction resolved to an already-pooled id (hash computed once, ever);
// interned_bytes is the deduplicated payload the pool holds.
struct ValueCost {
  std::uint64_t value_bytes = 0;       // sizeof(Value) in this build
  std::uint64_t interned_strings = 0;  // distinct pooled strings
  std::uint64_t interned_bytes = 0;    // summed pooled payload bytes
  std::uint64_t intern_hits = 0;       // Intern() calls resolved to known ids
  std::uint64_t intern_misses = 0;     // Intern() calls that inserted

  bool any() const {
    return interned_strings != 0 || intern_hits != 0 || intern_misses != 0;
  }
};

// Incremental-maintenance telemetry, read from the `chase.incremental.*`
// family that runtime::MaintainExchange mirrors. All zero until a maintain
// runs, so one-shot sessions keep their exact pre-existing report.
struct IncrementalCost {
  std::uint64_t maintains = 0;        // MaintainExchange calls served
  std::uint64_t fallbacks = 0;        // of which rebuilt via full re-chase
  std::uint64_t dred_candidates = 0;  // DRed over-estimated target facts
  std::uint64_t dred_kept = 0;        // facts kept via surviving witnesses
  std::uint64_t source_inserts = 0;   // source tuples inserted across deltas
  std::uint64_t source_deletes = 0;   // source tuples deleted across deltas
  std::uint64_t target_inserts = 0;   // induced target insertions
  std::uint64_t target_deletes = 0;   // induced target deletions
  std::uint64_t latency_us = 0;       // summed maintain wall time
  // The session provenance store after the last pass (`chase.provenance.*`
  // gauges): facts with a witness, witnesses, support-index entries, bytes.
  std::uint64_t provenance_facts = 0;
  std::uint64_t provenance_witnesses = 0;
  std::uint64_t provenance_support_edges = 0;
  std::uint64_t provenance_bytes = 0;

  bool any() const { return maintains != 0 || provenance_bytes != 0; }
};

// A structured cost report: "where did the time go?" answered three ways.
// Each table is ranked most-expensive-first.
struct ProfileReport {
  std::vector<OperatorCost> operators;  // by total_us desc
  std::vector<RuleCost> rules;          // by wall_us desc
  std::vector<PhaseCost> phases;        // by self_us desc (empty w/o tracing)
  StorageCost storage;
  ValueCost values;
  IncrementalCost incremental;
  ForesightCost foresight;
  double operator_total_us = 0;
  double rule_total_us = 0;
  std::int64_t phase_total_us = 0;  // summed self time

  // The most expensive chase constraint, or nullptr when no chase ran.
  const RuleCost* DominantRule() const;

  // Ranked, human-readable cost tables (one string per output line).
  std::vector<std::string> Lines() const;
  std::string ToString() const;  // Lines() joined with '\n'
  // Machine form: {"operators": [...], "rules": [...], "phases": [...]}.
  std::string ToJson() const;
};

// Turns raw telemetry into ProfileReports. Stateless: Build() works off a
// metrics snapshot plus (optionally empty, when tracing is off) completed
// spans, so it can run over live contexts and over deserialized data alike.
class Profiler {
 public:
  static ProfileReport Build(const MetricsSnapshot& metrics,
                             const std::vector<SpanRecord>& spans);
  // Convenience: snapshots both sides of `ctx`.
  static ProfileReport Build(const Context& ctx);
};

}  // namespace mm2::obs

#endif  // MM2_OBS_PROFILE_H_
