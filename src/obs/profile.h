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
  double wall_us = 0;  // the exact sum of the rule's round_us samples
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

// A structured cost report: "where did the time go?" answered three ways,
// each table ranked most-expensive-first, plus the foresight, storage,
// values and incremental sections, whose rows read `metrics` as they render.
struct ProfileReport {
  std::vector<OperatorCost> operators;  // by total_us desc
  std::vector<RuleCost> rules;          // by wall_us desc
  std::vector<PhaseCost> phases;        // by self_us desc (empty w/o tracing)
  double operator_total_us = 0;
  double rule_total_us = 0;
  std::int64_t phase_total_us = 0;  // summed self time
  MetricsSnapshot metrics;

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
