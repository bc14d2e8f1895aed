#ifndef MM2_OBS_METRICS_H_
#define MM2_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mm2::obs {

// A monotonically increasing event count. Lock-free after registration, so
// hot loops (chase rounds, compose combinations) can record freely.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// A value that can move both ways (e.g., live repository size).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// A fixed-bucket histogram. Bucket i counts samples <= bounds[i]; one
// implicit overflow bucket catches the rest. Record() takes a mutex: the
// engine's hot paths record per-operator latencies, not per-tuple ones, so
// contention is negligible and min/max/sum stay exact.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  // Exponential 1-2-5 microsecond ladder from 1us to 10s; the default for
  // every `*_latency_us` histogram in the engine.
  static std::vector<double> DefaultLatencyBoundsUs();

  // -- snapshot accessors (each takes the mutex) --
  std::uint64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;
  void Reset();

 private:
  const std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// -- point-in-time snapshots ------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  double mean() const { return count == 0 ? 0 : sum / count; }
  // Linear interpolation within the winning bucket; p in [0,1].
  double Percentile(double p) const;
  // The quantiles every report surfaces (0 when empty; clamped to the
  // observed [min, max] so tiny samples stay truthful).
  double p50() const { return Percentile(0.50); }
  double p95() const { return Percentile(0.95); }
  double p99() const { return Percentile(0.99); }
};

struct MetricsSnapshot {
  // Each list is sorted by name (Snapshot() guarantees it), so printed
  // output is deterministic and golden-output tests are stable.
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(const std::string& name) const;
  const GaugeSnapshot* FindGauge(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  // One human-readable line per metric, e.g.
  //   counter chase.rounds = 12
  //   histogram op.exchange.latency_us count=3 mean=42.1 p50=40 p99=55 max=57
  std::vector<std::string> Lines() const;
  std::string ToString() const;  // Lines() joined with '\n'
  // One JSON object (single line): {"counters": {name: value, ...},
  // "gauges": {...}, "histograms": {name: {count, sum, min, max, mean,
  // p50, p95, p99}, ...}}. Shares the escaping/number formatting of
  // `explain --json` (common/json.h) so `stats --json` spells metric names
  // and values identically.
  std::string ToJson() const;
};

// The process- or engine-scoped metric namespace. Get*() registers on first
// use and returns a stable reference; the returned objects outlive the
// registry's lock and are safe to cache across calls.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // `bounds` applies only on first registration; later calls ignore it.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;
  void Reset();  // zeroes every metric, keeps registrations

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mm2::obs

#endif  // MM2_OBS_METRICS_H_
