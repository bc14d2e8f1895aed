#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <utility>

namespace mm2bench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

Tail TailOf(const Samples& samples, double at_most) {
  const double n = static_cast<double>(samples.size());
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (pct <= at_most && n * (1.0 - pct / 100.0) >= 10.0) {
      return {pct, samples.Quantile(pct / 100.0)};
    }
  }
  return {50.0, samples.Median()};
}

namespace {

// Reads one "Key:   <n> kB" line of /proc/self/status, in kB.
double ProcStatusKb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return ProcStatusKb("VmHWM") / 1024.0; }
double ResidentBytes() { return ProcStatusKb("VmRSS") * 1024.0; }

int Tracer::Begin(std::string name, int parent) {
  spans_.push_back(Span{std::move(name), parent, NowUs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id, double end_us) {
  if (id >= 0 && static_cast<std::size_t>(id) < spans_.size()) {
    spans_[static_cast<std::size_t>(id)].end_us = end_us;
  }
}

mm2::Status Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return mm2::Status::Internal("cannot write trace to " + path);
  const double origin = spans_.empty() ? 0 : spans_.front().start_us;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  s.start_us - origin, s.end_us - s.start_us);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\"," << buf
        << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return out ? mm2::Status::OK()
             : mm2::Status::Internal("short write to " + path);
}

Scope::Scope(Tracer* tracer, std::string name, int parent)
    : tracer_(tracer), start_us_(NowUs()) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(std::move(name), parent);
}

double Scope::Stop() {
  if (elapsed_us_ < 0) {
    const double end = NowUs();
    elapsed_us_ = end - start_us_;
    if (tracer_ != nullptr) tracer_->End(id_, end);
  }
  return elapsed_us_;
}

double LayerTable::SelfUs(const std::string& layer) const {
  for (const LayerRow& row : layers) {
    if (row.name == layer) return row.self_us;
  }
  return 0;
}

LayerTable BuildLayerTable(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, LayerRow> layers;
  std::map<std::string, LayerRow> functions;
  LayerTable table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end_us - s.start_us;
    const double self = dur - child_us[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    for (auto* row : {&layers[layer], &functions[s.name]}) {
      ++row->calls;
      row->total_us += dur;
      row->self_us += self;
    }
    if (layer == "op") {
      table.op_total_us += dur;
      table.residual_us += self;
    }
  }
  auto sorted = [](std::map<std::string, LayerRow>& rows) {
    std::vector<LayerRow> out;
    for (auto& [name, row] : rows) {
      row.name = name;
      out.push_back(row);
    }
    std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
      return a.self_us > b.self_us;
    });
    return out;
  };
  table.layers = sorted(layers);
  table.functions = sorted(functions);
  return table;
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) std::cerr << "mm2bench: FAILED " << what << "\n";
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
}

void Report::Print(const std::string& line) const {
  std::cout << line << "\n";
}

double Counts::Sum(const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second;
}

double Counts::PerOp(const std::string& name) const {
  return ops_ == 0 ? 0 : Sum(name) / static_cast<double>(ops_);
}

double Counts::Ratio(const std::string& num, const std::string& den) const {
  const double d = Sum(den);
  return d == 0 ? 0 : Sum(num) / d;
}

void AddChaseStats(const mm2::chase::ChaseStats& stats, double chase_us,
                   std::size_t facts, Counts* counts) {
  double triggers = 0;
  double rule_us = 0;
  double top_rule_us = 0;
  for (const mm2::chase::RuleStats& rule : stats.rules) {
    triggers += static_cast<double>(rule.triggers_tested);
    rule_us += rule.wall_us;
    top_rule_us = std::max(top_rule_us, rule.wall_us);
  }
  const mm2::instance::SegmentOpStats& seg = stats.segment;
  const std::pair<const char*, double> values[] = {
      {"chase.rounds", static_cast<double>(stats.rounds)},
      {"chase.triggers_tested", triggers},
      {"chase.assignments_matched",
       static_cast<double>(stats.assignments_matched)},
      {"chase.firings",
       static_cast<double>(stats.tgd_firings + stats.egd_unifications)},
      {"chase.delta_tuples", static_cast<double>(stats.delta_tuples)},
      {"chase.nulls_created", static_cast<double>(stats.nulls_created)},
      {"chase.rule_us", rule_us},
      {"chase.top_rule_us", top_rule_us},
      {"chase.wall_us", chase_us},
      {"instance.facts", static_cast<double>(facts)},
      {"instance.seals", static_cast<double>(seg.seals)},
      {"instance.merged_rows", static_cast<double>(seg.merged_rows)},
      {"instance.compactions", static_cast<double>(seg.compactions)},
      {"instance.compares", static_cast<double>(seg.compares)},
      {"instance.retain_candidates",
       static_cast<double>(seg.retain_candidates)},
      {"instance.retain_hits", static_cast<double>(seg.retain_hits)},
      {"instance.segment_probes", static_cast<double>(seg.probes)},
      {"instance.probe_fallbacks", static_cast<double>(seg.fallbacks)},
      {"instance.deferred_rebuilds",
       static_cast<double>(seg.deferred_rebuilds)},
      {"instance.index_probes", static_cast<double>(stats.index_probes)},
      {"instance.index_builds", static_cast<double>(stats.index_builds)},
      {"instance.live_segments",
       static_cast<double>(stats.segment_shape.live_segments)},
  };
  for (const auto& [name, value] : values) counts->Add(name, value);
}

void SetChaseCounts(const Counts& counts, Report* report) {
  for (const char* name :
       {"chase.rounds", "chase.triggers_tested", "chase.assignments_matched",
        "chase.firings", "chase.delta_tuples", "chase.nulls_created",
        "instance.seals", "instance.merged_rows", "instance.compactions",
        "instance.compares", "instance.retain_candidates",
        "instance.segment_probes", "instance.probe_fallbacks",
        "instance.deferred_rebuilds", "instance.index_probes",
        "instance.index_builds", "instance.live_segments"}) {
    report->Set(name, counts.PerOp(name), "count");
  }
  report->Set("chase.fire_ratio",
              counts.Ratio("chase.firings", "chase.triggers_tested"), "ratio");
  report->Set("chase.top_rule_share",
              counts.Ratio("chase.top_rule_us", "chase.rule_us"), "ratio");
  report->Set("chase.rule_attributed_share",
              counts.Ratio("chase.rule_us", "chase.wall_us"), "ratio");
  report->Set("instance.merged_rows_per_fact",
              counts.Ratio("instance.merged_rows", "instance.facts"), "ratio");
  report->Set("instance.retain_hit_ratio",
              counts.Ratio("instance.retain_hits",
                           "instance.retain_candidates"),
              "ratio");
}

std::string Line(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-34s %14.4f %-6s %s", name.c_str(),
                value, unit.c_str(), note.c_str());
  return buf;
}

}  // namespace mm2bench
