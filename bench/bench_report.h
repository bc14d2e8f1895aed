#ifndef MM2_BENCH_BENCH_REPORT_H_
#define MM2_BENCH_BENCH_REPORT_H_

// Shared reporting shim for every bench_*.cc: MM2_BENCH_MAIN replaces
// BENCHMARK_MAIN and, after the google-benchmark run, dumps the shared
// obs::Context registry as machine-parseable JSON lines
//   {"bench": "...", "metric": "...", "value": ..., "unit": "..."}
// (one per metric) on stdout, so BENCH_*.json trajectories can be collected
// with a grep for lines starting with '{"bench"'. Benches route operator
// calls through Obs() (ChaseOptions::obs, ComposeOptions::obs, ...) to
// enrich the dump; the total wall time is always recorded.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "obs/obs.h"

namespace mm2::bench {

// The context benches hand to engine/chase/compose calls. Function-local
// static so the header stays include-anywhere.
inline obs::Context& Obs() {
  static obs::Context ctx;
  return ctx;
}

// The MM2_THREADS-resolved default worker count this bench process runs
// under, resolved once. Benches that sweep an explicit thread axis encode
// the axis in the metric name instead; this field captures the ambient
// setting so comparison tooling can refuse to diff runs taken at
// different thread counts.
inline std::size_t BenchThreads() {
  static const std::size_t resolved = common::ResolveThreadCount(0);
  return resolved;
}

inline void PrintJsonLine(const std::string& bench, const std::string& metric,
                          double value, const std::string& unit) {
  std::printf("{\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %.6g, "
              "\"unit\": \"%s\", \"threads\": %zu, \"hw_concurrency\": %u}\n",
              bench.c_str(), metric.c_str(), value, unit.c_str(),
              BenchThreads(), std::thread::hardware_concurrency());
}

// Peak resident set size of this process in KiB (VmHWM from
// /proc/self/status, via the shared obs probe), or 0 where the proc
// interface is unavailable. The high-water mark covers the whole bench
// run, so trajectories track the memory envelope of the workload, not a
// point-in-time sample.
inline double PeakRssKb() { return obs::PeakRssKb(); }

// Histograms named *_us report in microseconds, everything else is a bare
// value; counters and gauges are counts. One mem.peak_rss_kb record (unit
// "kb") always closes the dump so bench_compare.py's mem.* family can
// gate the memory envelope.
inline void ReportRegistry(const std::string& bench) {
  obs::MetricsSnapshot snap = Obs().metrics.Snapshot();
  for (const obs::CounterSnapshot& c : snap.counters) {
    PrintJsonLine(bench, c.name, static_cast<double>(c.value), "count");
  }
  for (const obs::GaugeSnapshot& g : snap.gauges) {
    PrintJsonLine(bench, g.name, static_cast<double>(g.value), "count");
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    std::string unit = h.name.size() > 3 &&
                               h.name.compare(h.name.size() - 3, 3, "_us") == 0
                           ? "us"
                           : "value";
    PrintJsonLine(bench, h.name + ".count", static_cast<double>(h.count),
                  "count");
    PrintJsonLine(bench, h.name + ".p50", h.Percentile(0.5), unit);
    PrintJsonLine(bench, h.name + ".p99", h.Percentile(0.99), unit);
    PrintJsonLine(bench, h.name + ".max", h.max, unit);
  }
  PrintJsonLine(bench, "mem.peak_rss_kb", PeakRssKb(), "kb");
}

}  // namespace mm2::bench

#define MM2_BENCH_MAIN(bench_name)                                           \
  int main(int argc, char** argv) {                                          \
    auto mm2_bench_start = std::chrono::steady_clock::now();                 \
    ::benchmark::Initialize(&argc, argv);                                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    ::benchmark::Shutdown();                                                 \
    double mm2_total_us =                                                    \
        std::chrono::duration_cast<                                          \
            std::chrono::duration<double, std::micro>>(                      \
            std::chrono::steady_clock::now() - mm2_bench_start)              \
            .count();                                                        \
    ::mm2::bench::Obs().metrics.GetHistogram("bench.total_runtime_us")       \
        .Record(mm2_total_us);                                               \
    ::mm2::bench::ReportRegistry(bench_name);                                \
    return 0;                                                                \
  }                                                                          \
  static_assert(true, "require trailing semicolon")

#endif  // MM2_BENCH_BENCH_REPORT_H_
