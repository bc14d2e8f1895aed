// Shared machinery of the mm2bench driver: clocks, sample statistics,
// resident-memory readings, the in-memory span recorder of the traced run,
// the per-layer table built from those spans, and the result report.
//
// The driver is single-process, single-client and closed-loop: the next
// operation is issued only after the previous one returned.
#ifndef MM2BENCH_HARNESS_H_
#define MM2BENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "common/status.h"

namespace mm2bench {

// Microseconds on the steady clock.
double NowUs();

class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  // Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

// The tail reported next to a median: the highest of p99.9, p99, p95, p90
// and p75 that leaves at least ten samples beyond it (p50 when even p75
// does not), so a tail is never read off a handful of outliers. With
// `at_most` set, the tail never goes above that percentile: a workload
// fixes its tail for the benchmark's run length, so the reported percentile
// does not flip between runs whose sample counts straddle a step.
struct Tail {
  double percentile = 50;
  double value = 0;
};
Tail TailOf(const Samples& samples, double at_most = 99.9);

// Process memory from /proc/self/status: VmHWM (peak) and VmRSS (current).
double PeakRssMb();
double ResidentBytes();

// --- Tracing ---------------------------------------------------------------
// A span is one call from the benchmark into a library module. Its name is
// "<layer>.<function>", the layer being the src/ module the call enters
// (text, engine, runtime, chase, instance, ...). Spans named "op.*" are the
// roots: one per operation, covering it and the reads that follow it.
//
// Calls inside the library cannot be seen from outside without
// instrumenting src/, so the traced run attributes an engine call to the
// lower layers with twin calls: after the operation it repeats the lower
// layer's public call on the same inputs (e.g. runtime::MaintainExchange on
// a twin session given the same delta) and records that span as a child of
// the engine span it decomposes. A span's self time is its duration minus
// its children's, so the table still sums to the operations' total.
struct Span {
  std::string name;
  int parent = -1;
  double start_us = 0;
  double end_us = 0;
};

class Tracer {
 public:
  int Begin(std::string name, int parent);
  void End(int id, double end_us);
  const std::vector<Span>& spans() const { return spans_; }
  // Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  mm2::Status WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Times one call. Always measures; records a span only when `tracer` is
// non-null (the traced phase), so timed and traced runs share one code path.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, int parent = -1);
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }
  // Ends the span (once) and returns its duration in microseconds.
  double Stop();

 private:
  Tracer* tracer_;
  int id_ = -1;
  double start_us_;
  double elapsed_us_ = -1;
};

// Self time per layer and per function, summed over every span.
struct LayerRow {
  std::string name;
  std::size_t calls = 0;
  double total_us = 0;
  double self_us = 0;
};
struct LayerTable {
  std::vector<LayerRow> layers;     // by self time, descending
  std::vector<LayerRow> functions;  // by self time, descending
  double op_total_us = 0;           // sum of the op.* root spans
  double residual_us = 0;           // op self time: benchmark-side glue
  double SelfUs(const std::string& layer) const;
};
LayerTable BuildLayerTable(const std::vector<Span>& spans);

// --- Results ---------------------------------------------------------------
struct Metric {
  double value = 0;
  std::string unit;
};

// Collects what one run prints: attempted/failed counts (every timed
// operation and every output check is one attempt), the metrics of the
// JSON result line, and human-readable lines printed before it.
class Report {
 public:
  void Attempt(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  // A human-readable line (stamps, per-workload metrics, tables); printed
  // immediately to stdout, ahead of the JSON result line.
  void Print(const std::string& line) const;

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, Metric> metrics_;
};

// Formats "name  value unit  note" with a fixed column layout.
std::string Line(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "");

// Counters summed over the traced operations; per-layer metrics report
// them per operation.
class Counts {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }
  void EndOp() { ++ops_; }
  double Sum(const std::string& name) const;
  double PerOp(const std::string& name) const;
  // Sum(num) / Sum(den), 0 when the denominator is 0.
  double Ratio(const std::string& num, const std::string& den) const;

 private:
  std::map<std::string, double> sums_;
  std::size_t ops_ = 0;
};

// Adds one chase run's ChaseStats (its SegmentOpStats included) to
// `counts`. `chase_us` is the run's wall time measured around the call,
// `facts` the size of the instance it produced.
void AddChaseStats(const mm2::chase::ChaseStats& stats, double chase_us,
                   std::size_t facts, Counts* counts);
// Sets the chase.* and instance.* per-layer metrics from those counts.
void SetChaseCounts(const Counts& counts, Report* report);

// --- Workloads -------------------------------------------------------------
// What one timed operation reports back to the loop.
struct OpSink {
  Tracer* tracer = nullptr;  // non-null only in the traced phase
  Report* report = nullptr;
  Samples op_ms;    // the workload's write/transform operation
  Samples read_us;  // the reads issued between operations
  // Named timings printed as "<name>  p50  unit  tail"; the unit is the
  // name's suffix (exchange_ms, why_us, runtime.maintain_us, ...).
  std::map<std::string, Samples> series;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs from `seed` as text, parses them and opens any
  // session. Called several times (setup_s is their median); each call
  // replaces the previous state.
  virtual mm2::Status Setup(std::uint64_t seed) = 0;
  // Bytes of input text the last Setup parsed and how long parsing took.
  virtual double ParsedBytes() const = 0;
  virtual double ParseUs() const = 0;
  // One operation plus the reads that follow it.
  virtual void Op(OpSink* sink) = 0;
  // Untimed output checks after the timed loop.
  virtual void Finish(Report* report) = 0;
  // Resident bytes per result fact (0 where results are not facts).
  virtual double BytesPerFact() const = 0;
  // Per-layer counts, per operation, gathered during the traced phase.
  virtual void LayerCounts(Report* report) const = 0;
  // The tail percentiles of op and read latency at the benchmark's run
  // length (see TailOf).
  struct Tails {
    double op;
    double read;
  };
  virtual Tails TailPercentiles() const = 0;
};

std::unique_ptr<Workload> MakeExchangeBulk();
std::unique_ptr<Workload> MakeMaintainStream();
std::unique_ptr<Workload> MakeClosureDeep();
std::unique_ptr<Workload> MakeMmScript();

}  // namespace mm2bench

#endif  // MM2BENCH_HARNESS_H_
