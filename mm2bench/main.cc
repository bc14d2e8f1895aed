// mm2bench: end-to-end benchmark of an mm2 model-management session.
//
//   mm2bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: exchange_bulk, maintain_stream, closure_deep, mm_script (see
// README.md for what each stresses and why). One run sets the workload up,
// warms up with one untimed operation, then runs operations closed-loop for
// --seconds; setup_s is the median of nine set-ups spread over the run.
// With --trace 1 the first third runs without spans and the rest traced,
// and the run reports the per-layer metrics instead of the end-to-end ones;
// trace.overhead_pct compares the two phases. The last stdout line is one
// JSON object.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"
#include "instance/segment.h"

namespace mm2bench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported with --trace 0 by every workload. "op" is the workload's
// write/transform operation, "read" the reads it issues between them (see
// README.md for the per-workload meaning). The medians are printed too, but
// only the tails are in the result: on a shared host whose speed comes and
// goes, a run's median flips between the fast and the slow mode while its
// tail stays in the slow one (README.md, "Steadiness").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_tail_ms", "ms"},
    {"read_tail_us", "us"},
    {"peak_rss_mb", "MB"},
};

// Layers are the src/ modules a workload's calls enter.
constexpr const char* kLayers[] = {
    "text",  "engine",  "analysis", "runtime", "chase", "instance", "transgen",
    "algebra", "match", "compose",  "inverse", "diff",  "merge",    "modelgen",
};

// Reported with --trace 1 by every workload; a layer a workload never
// enters reports 0.
constexpr MetricSpec kPerLayerCounts[] = {
    {"chase.rounds", "count"},
    {"chase.triggers_tested", "count"},
    {"chase.assignments_matched", "count"},
    {"chase.firings", "count"},
    {"chase.fire_ratio", "ratio"},
    {"chase.delta_tuples", "count"},
    {"chase.nulls_created", "count"},
    {"chase.top_rule_share", "ratio"},
    {"chase.rule_attributed_share", "ratio"},
    {"chase.query_rows_per_answer", "ratio"},
    {"instance.seals", "count"},
    {"instance.merged_rows", "count"},
    {"instance.merged_rows_per_fact", "ratio"},
    {"instance.compactions", "count"},
    {"instance.compares", "count"},
    {"instance.retain_candidates", "count"},
    {"instance.retain_hit_ratio", "ratio"},
    {"instance.segment_probes", "count"},
    {"instance.probe_fallbacks", "count"},
    {"instance.index_probes", "count"},
    {"instance.index_builds", "count"},
    {"instance.live_segments", "count"},
    {"instance.deferred_rebuilds", "count"},
    {"instance.bytes_per_fact", "B"},
    {"runtime.fallbacks", "count"},
    {"runtime.target_delta_rows", "count"},
    {"runtime.provenance_facts", "count"},
    {"compose.combinations_examined", "count"},
    {"match.candidate_recall", "ratio"},
};

constexpr int kSetups = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Where the traced run writes its spans, relative to the checkout root.
constexpr char kTraceDir[] = ".bench_build/traces";

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "exchange_bulk") return MakeExchangeBulk();
  if (name == "maintain_stream") return MakeMaintainStream();
  if (name == "closure_deep") return MakeClosureDeep();
  if (name == "mm_script") return MakeMmScript();
  return nullptr;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

// Runs operations until `seconds` of wall time have passed (at least one),
// pausing `probes` times at even intervals to call `probe`.
void Loop(Workload* workload, OpSink* sink, double seconds, int probes,
          const std::function<void()>& probe) {
  const double start = NowUs();
  const double step = seconds * 1e6 / (probes + 1);
  int done = 0;
  do {
    workload->Op(sink);
    for (; done < probes && NowUs() >= start + (done + 1) * step; ++done) {
      probe();
    }
  } while (NowUs() < start + seconds * 1e6);
  for (; done < probes; ++done) probe();
}

std::string UnitOf(const std::string& series) {
  const std::size_t cut = series.rfind('_');
  return cut == std::string::npos ? "" : series.substr(cut + 1);
}

void PrintSeries(const Report& report, const OpSink& sink) {
  for (const auto& [name, samples] : sink.series) {
    const Tail tail = TailOf(samples);
    char note[96];
    std::snprintf(note, sizeof(note), "p50 of %zu; p%g %.4f", samples.size(),
                  tail.percentile, tail.value);
    report.Print(Line(name, samples.Median(), UnitOf(name), note));
  }
}

void SetEndToEnd(const Workload& workload, const Samples& setup_s,
                 const OpSink& sink, Report* report) {
  const Workload::Tails tails = workload.TailPercentiles();
  const Tail op_tail = TailOf(sink.op_ms, tails.op);
  const Tail read_tail = TailOf(sink.read_us, tails.read);
  report->Set("setup_s", setup_s.Median(), "s");
  report->Set("op_tail_ms", op_tail.value, "ms");
  report->Set("read_tail_us", read_tail.value, "us");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  char note[96];
  std::snprintf(note, sizeof(note), "median of %zu setups", setup_s.size());
  report->Print(Line("setup_s", setup_s.Median(), "s", note));
  std::snprintf(note, sizeof(note), "p50 of %zu ops", sink.op_ms.size());
  report->Print(Line("op_p50_ms", sink.op_ms.Median(), "ms", note));
  std::snprintf(note, sizeof(note), "p%g of %zu ops", op_tail.percentile,
                sink.op_ms.size());
  report->Print(Line("op_tail_ms", op_tail.value, "ms", note));
  std::snprintf(note, sizeof(note), "p50 of %zu reads", sink.read_us.size());
  report->Print(Line("read_p50_us", sink.read_us.Median(), "us", note));
  std::snprintf(note, sizeof(note), "p%g of %zu reads", read_tail.percentile,
                sink.read_us.size());
  report->Print(Line("read_tail_us", read_tail.value, "us", note));
  report->Print(Line("peak_rss_mb", PeakRssMb(), "MB", "VmHWM"));
}

void SetPerLayer(const Workload& workload, const Samples& parse_us,
                 const OpSink& untraced, const OpSink& traced,
                 const Tracer& tracer, Report* report) {
  const LayerTable table = BuildLayerTable(tracer.spans());
  const double total = table.op_total_us > 0 ? table.op_total_us : 1;
  report->Print("layer table (" + std::to_string(traced.op_ms.size()) +
                " traced ops; self time = span minus child spans):");
  for (const LayerRow& row : table.layers) {
    char note[96];
    std::snprintf(note, sizeof(note), "%5.1f%% self, %zu calls, %.3f ms total",
                  100.0 * row.self_us / total, row.calls,
                  row.total_us / 1000.0);
    report->Print(Line(row.name == "op" ? "residual (op glue)" : row.name,
                       row.self_us / 1000.0, "ms", note));
  }
  report->Print("by function:");
  for (const LayerRow& row : table.functions) {
    char note[64];
    std::snprintf(note, sizeof(note), "%5.1f%% self, %zu calls",
                  100.0 * row.self_us / total, row.calls);
    report->Print(Line(row.name, row.self_us / 1000.0, "ms", note));
  }
  for (const char* layer : kLayers) {
    report->Set(std::string(layer) + ".self_pct",
                100.0 * table.SelfUs(layer) / total, "%");
  }
  const double residual_pct = 100.0 * table.residual_us / total;
  const double base = untraced.op_ms.Median();
  const double overhead_pct =
      base > 0 ? 100.0 * (traced.op_ms.Median() - base) / base : 0;
  report->Set("trace.residual_pct", residual_pct, "%");
  report->Set("trace.overhead_pct", overhead_pct, "%");
  report->Print(Line("residual", residual_pct, "%",
                     "op time outside every layer span"));
  report->Print(Line("trace.overhead_pct", overhead_pct, "%",
                     "traced vs untraced op p50"));

  const double parse_ms = parse_us.Median() / 1000.0;
  report->Set("text.parse_ms", parse_ms, "ms");
  report->Set("text.parse_mb_per_s",
              parse_ms > 0 ? workload.ParsedBytes() / 1e6 / (parse_ms / 1e3)
                           : 0,
              "MB/s");
  for (const MetricSpec& spec : kPerLayerCounts) {
    report->Set(spec.name, 0, spec.unit);
  }
  report->Set("instance.bytes_per_fact", workload.BytesPerFact(), "B");
  workload.LayerCounts(report);
}

// The JSON result line: exactly the declared metrics, in declared order.
void PrintResult(const Report& report, bool trace) {
  std::vector<std::string> names;
  if (trace) {
    names = {"text.parse_ms", "text.parse_mb_per_s", "trace.overhead_pct",
             "trace.residual_pct"};
    for (const char* layer : kLayers) {
      names.push_back(std::string(layer) + ".self_pct");
    }
    for (const MetricSpec& spec : kPerLayerCounts) names.push_back(spec.name);
  } else {
    for (const MetricSpec& spec : kEndToEnd) names.push_back(spec.name);
  }
  std::ostringstream out;
  out << "{\"correct\": " << (report.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << report.attempted()
      << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& m = report.metrics().at(names[i]);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out << (i == 0 ? "" : ", ") << "\"" << names[i] << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::cerr << "mm2bench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Report report;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  report.Print(
      "mm2bench workload=" + args.workload +
      " seed=" + std::to_string(args.seed) +
      " seconds=" + std::to_string(args.seconds) +
      " trace=" + (args.trace ? "1" : "0") +
      " nproc=" + std::to_string(nproc) +
      " workers=" + std::to_string(mm2::common::ResolveThreadCount(0)) +
      " storage=" +
      mm2::instance::StorageModeName(mm2::instance::ResolveStorageMode(
          mm2::instance::StorageMode::kDefault)) +
      " build=" + (OptimizedBuild() ? "optimized,NDEBUG" : "UNOPTIMIZED"));

  // The workload is set up once before the first op; the other set-ups
  // are probes on fresh instances spread over the timed loop, so setup_s
  // is a median over the run's whole span rather than over one moment.
  Samples setup_s;
  Samples parse_us;
  auto timed_setup = [&](Workload* target) {
    const double start = NowUs();
    mm2::Status status = target->Setup(args.seed);
    setup_s.Add((NowUs() - start) / 1e6);
    parse_us.Add(target->ParseUs());
    report.Attempt(status.ok(), "setup: " + status.ToString());
    return status;
  };
  mm2::Status status = timed_setup(workload.get());
  if (!status.ok()) {
    std::cerr << "mm2bench: setup failed: " << status.ToString() << "\n";
    return 1;
  }
  auto probe = [&]() { timed_setup(MakeWorkload(args.workload).get()); };

  OpSink warmup;
  warmup.report = &report;
  workload->Op(&warmup);

  OpSink untraced;
  untraced.report = &report;
  const double untraced_seconds = args.trace ? args.seconds / 3 : args.seconds;
  Loop(workload.get(), &untraced, untraced_seconds, kSetups - 1, probe);

  Tracer tracer;
  OpSink traced;
  traced.report = &report;
  traced.tracer = &tracer;
  if (args.trace) {
    Loop(workload.get(), &traced, args.seconds - untraced_seconds, 0, probe);
  }

  workload->Finish(&report);

  report.Print("end-to-end:");
  SetEndToEnd(*workload, setup_s, untraced, &report);
  PrintSeries(report, untraced);
  report.Print(Line("bytes_per_fact", workload->BytesPerFact(), "B",
                    "VmRSS delta / result facts"));
  report.Print(Line("error_rate",
                    static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()),
                    "ratio",
                    std::to_string(report.failed()) + " of " +
                        std::to_string(report.attempted()) + " attempts"));
  if (args.trace) {
    report.Print("traced:");
    PrintSeries(report, traced);
    SetPerLayer(*workload, parse_us, untraced, traced, tracer, &report);
    std::error_code ec;
    std::filesystem::create_directories(kTraceDir, ec);
    const std::string path = std::string(kTraceDir) + "/" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    mm2::Status written = tracer.WriteChromeJson(path);
    report.Print(written.ok() ? "spans written to " + path
                              : "spans not written: " + written.ToString());
  }
  PrintResult(report, args.trace);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mm2bench

int main(int argc, char** argv) {
  mm2bench::Args args;
  if (!mm2bench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: mm2bench --workload <exchange_bulk|maintain_stream|"
                 "closure_deep|mm_script> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  return mm2bench::Run(args);
}
