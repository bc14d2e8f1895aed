#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "obs/json.h"
#include "obs/obs.h"

namespace mm2::obs {

namespace {

constexpr char kRulePrefix[] = "chase.rule.";
constexpr char kStratumPrefix[] = "chase.stratum.";

using json::FormatDouble;

std::string JsonEscape(const std::string& s) { return json::Escape(s); }

// Splits "op.<name>.<field>" / "chase.rule.<label>.<field>" style names at
// the *last* dot, so labels containing dots survive.
bool SplitLastDot(const std::string& name, std::string* head,
                  std::string* tail) {
  std::size_t dot = name.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == name.size()) {
    return false;
  }
  *head = name.substr(0, dot);
  *tail = name.substr(dot + 1);
  return true;
}

std::string RuleKind(const std::string& label) {
  if (label.rfind("tgd", 0) == 0) return "tgd";
  if (label.rfind("egd", 0) == 0) return "egd";
  if (label.rfind("so", 0) == 0) return "so_tgd";
  return "rule";
}

void BuildOperators(const MetricsSnapshot& metrics, ProfileReport* report) {
  std::map<std::string, OperatorCost> ops;
  for (const CounterSnapshot& c : metrics.counters) {
    if (c.name.rfind("op.", 0) != 0) continue;
    std::string head;
    std::string field;
    if (!SplitLastDot(c.name, &head, &field)) continue;
    std::string name = head.substr(3);  // strip "op."
    if (field == "calls") {
      ops[name].calls = c.value;
    } else if (field == "errors") {
      ops[name].errors = c.value;
    }
  }
  for (const HistogramSnapshot& h : metrics.histograms) {
    if (h.name.rfind("op.", 0) != 0) continue;
    std::string head;
    std::string field;
    if (!SplitLastDot(h.name, &head, &field)) continue;
    if (field != "latency_us") continue;
    OperatorCost& op = ops[head.substr(3)];
    op.total_us = h.sum;
    op.mean_us = h.mean();
    op.p50_us = h.p50();
    op.p95_us = h.p95();
    op.p99_us = h.p99();
    op.max_us = h.max;
  }
  for (auto& [name, op] : ops) {
    op.name = name;
    report->operator_total_us += op.total_us;
    report->operators.push_back(std::move(op));
  }
  for (OperatorCost& op : report->operators) {
    op.share = report->operator_total_us == 0
                   ? 0
                   : op.total_us / report->operator_total_us;
  }
  std::sort(report->operators.begin(), report->operators.end(),
            [](const OperatorCost& a, const OperatorCost& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.name < b.name;
            });
}

void BuildRules(const MetricsSnapshot& metrics, ProfileReport* report) {
  std::map<std::string, RuleCost> rules;
  for (const CounterSnapshot& c : metrics.counters) {
    if (c.name.rfind(kRulePrefix, 0) != 0) continue;
    std::string head;
    std::string field;
    if (!SplitLastDot(c.name, &head, &field)) continue;
    std::string label = head.substr(sizeof(kRulePrefix) - 1);
    RuleCost& rule = rules[label];
    if (field == "wall_us") {
      rule.wall_us = static_cast<double>(c.value);
    } else if (field == "triggers") {
      rule.triggers_tested = c.value;
    } else if (field == "firings") {
      rule.firings = c.value;
    } else if (field == "nulls") {
      rule.nulls_created = c.value;
    } else if (field == "rounds_active") {
      rule.rounds_active = c.value;
    }
  }
  for (const GaugeSnapshot& g : metrics.gauges) {
    if (g.name.rfind(kRulePrefix, 0) != 0) continue;
    std::string head;
    std::string field;
    if (!SplitLastDot(g.name, &head, &field)) continue;
    if (field != "stratum") continue;
    rules[head.substr(sizeof(kRulePrefix) - 1)].stratum = g.value;
  }
  for (const HistogramSnapshot& h : metrics.histograms) {
    if (h.name.rfind(kRulePrefix, 0) != 0) continue;
    std::string head;
    std::string field;
    if (!SplitLastDot(h.name, &head, &field)) continue;
    if (field != "round_us") continue;
    RuleCost& rule = rules[head.substr(sizeof(kRulePrefix) - 1)];
    rule.rounds = h.count;
    rule.round_p50_us = h.p50();
    rule.round_p95_us = h.p95();
    rule.round_max_us = h.max;
  }
  for (auto& [label, rule] : rules) {
    rule.label = label;
    rule.kind = RuleKind(label);
    report->rule_total_us += rule.wall_us;
    report->rules.push_back(std::move(rule));
  }
  for (RuleCost& rule : report->rules) {
    rule.share =
        report->rule_total_us == 0 ? 0 : rule.wall_us / report->rule_total_us;
  }
  std::sort(report->rules.begin(), report->rules.end(),
            [](const RuleCost& a, const RuleCost& b) {
              if (a.wall_us != b.wall_us) return a.wall_us > b.wall_us;
              return a.label < b.label;
            });
}

void BuildStrata(const MetricsSnapshot& metrics, ProfileReport* report) {
  std::map<std::size_t, StratumCost> strata;
  auto parse_index = [](const std::string& head, std::size_t* index) {
    std::string tail = head.substr(sizeof(kStratumPrefix) - 1);
    if (tail.empty()) return false;
    std::size_t value = 0;
    for (char c : tail) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    *index = value;
    return true;
  };
  for (const CounterSnapshot& c : metrics.counters) {
    if (c.name.rfind(kStratumPrefix, 0) != 0) continue;
    std::string head;
    std::string field;
    if (!SplitLastDot(c.name, &head, &field)) continue;
    std::size_t index = 0;
    if (!parse_index(head, &index)) continue;
    StratumCost& s = strata[index];
    if (field == "wall_us") {
      s.wall_us = static_cast<double>(c.value);
    } else if (field == "firings") {
      s.firings = c.value;
    }
  }
  for (const GaugeSnapshot& g : metrics.gauges) {
    if (g.name.rfind(kStratumPrefix, 0) != 0) continue;
    std::string head;
    std::string field;
    if (!SplitLastDot(g.name, &head, &field)) continue;
    std::size_t index = 0;
    if (!parse_index(head, &index)) continue;
    if (field == "rules") {
      strata[index].rules = g.value < 0 ? 0 : static_cast<std::uint64_t>(g.value);
    }
  }
  double total_us = 0;
  for (auto& [index, s] : strata) {
    s.index = index;
    total_us += s.wall_us;
    report->strata.push_back(std::move(s));
  }
  for (StratumCost& s : report->strata) {
    s.share = total_us == 0 ? 0 : s.wall_us / total_us;
  }
  // std::map iteration already yields ascending stratum index.
}

void BuildForesight(const MetricsSnapshot& metrics, ProfileReport* report) {
  ForesightCost& f = report->foresight;
  if (const GaugeSnapshot* g =
          metrics.FindGauge("chase.foresight.predicted_rounds")) {
    f.analyzed = true;
    f.predicted_rounds = g->value < 0 ? 0 : static_cast<std::uint64_t>(g->value);
  }
  if (const GaugeSnapshot* g =
          metrics.FindGauge("chase.foresight.observed_rounds")) {
    f.analyzed = true;
    f.observed_rounds = g->value < 0 ? 0 : static_cast<std::uint64_t>(g->value);
  }
  if (const GaugeSnapshot* g = metrics.FindGauge("chase.foresight.terminating")) {
    f.analyzed = true;
    f.terminating = g->value != 0;
  }
  if (const CounterSnapshot* c = metrics.FindCounter("chase.foresight.armed")) {
    f.armed = c->value != 0;
    if (f.armed) f.analyzed = true;
  }
}

void BuildStorage(const MetricsSnapshot& metrics, ProfileReport* report) {
  StorageCost& s = report->storage;
  for (const CounterSnapshot& c : metrics.counters) {
    if (c.name == "index.probes") {
      s.index_probes = c.value;
    } else if (c.name == "index.probe_hits") {
      s.index_probe_hits = c.value;
    } else if (c.name == "index.builds") {
      s.index_builds = c.value;
    } else if (c.name == "chase.delta.tuples") {
      s.delta_tuples = c.value;
    } else if (c.name == "chase.delta.rule_skips") {
      s.delta_rule_skips = c.value;
    } else if (c.name == "storage.segment.seals") {
      s.segment_seals = c.value;
    } else if (c.name == "storage.segment.sealed_rows") {
      s.segment_sealed_rows = c.value;
    } else if (c.name == "storage.segment.compares") {
      s.segment_compares = c.value;
    } else if (c.name == "storage.segment.probes") {
      s.segment_probes = c.value;
    } else if (c.name == "storage.segment.probe_hits") {
      s.segment_probe_hits = c.value;
    } else if (c.name == "storage.segment.skips") {
      s.segment_skips = c.value;
    }
  }
  if (const GaugeSnapshot* g =
          metrics.FindGauge("storage.segment.live_segments")) {
    s.segment_live_segments = static_cast<std::uint64_t>(g->value);
  }
}

void BuildValues(const MetricsSnapshot& metrics, ProfileReport* report) {
  ValueCost& v = report->values;
  auto gauge = [&metrics](const char* name) -> std::uint64_t {
    const GaugeSnapshot* g = metrics.FindGauge(name);
    return (g == nullptr || g->value < 0) ? 0
                                          : static_cast<std::uint64_t>(g->value);
  };
  v.value_bytes = gauge("value.bytes_per_value");
  v.interned_strings = gauge("value.intern.strings");
  v.interned_bytes = gauge("value.intern.bytes");
  v.intern_hits = gauge("value.intern.hits");
  v.intern_misses = gauge("value.intern.misses");
}

void BuildIncremental(const MetricsSnapshot& metrics, ProfileReport* report) {
  IncrementalCost& i = report->incremental;
  auto counter = [&metrics](const char* name) -> std::uint64_t {
    const CounterSnapshot* c = metrics.FindCounter(name);
    return c == nullptr ? 0 : c->value;
  };
  i.maintains = counter("chase.incremental.maintains");
  i.fallbacks = counter("chase.incremental.fallbacks");
  i.dred_candidates = counter("chase.incremental.dred_candidates");
  i.dred_kept = counter("chase.incremental.dred_kept");
  i.source_inserts = counter("chase.incremental.source_inserts");
  i.source_deletes = counter("chase.incremental.source_deletes");
  i.target_inserts = counter("chase.incremental.target_inserts");
  i.target_deletes = counter("chase.incremental.target_deletes");
  i.latency_us = counter("chase.incremental.latency_us");
}

void BuildPhases(const std::vector<SpanRecord>& spans,
                 ProfileReport* report) {
  if (spans.empty()) return;
  // Self time: a span's duration minus its direct children's durations.
  std::map<std::uint64_t, std::int64_t> children_us;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0) children_us[s.parent_id] += s.duration_us;
  }
  std::map<std::string, PhaseCost> phases;
  for (const SpanRecord& s : spans) {
    PhaseCost& phase = phases[s.name];
    ++phase.count;
    phase.total_us += s.duration_us;
    auto it = children_us.find(s.id);
    std::int64_t self =
        s.duration_us - (it == children_us.end() ? 0 : it->second);
    // Clock skew between parent and child reads can push self below zero
    // for sub-microsecond spans; clamp so shares stay meaningful.
    phase.self_us += std::max<std::int64_t>(self, 0);
    phase.max_us = std::max(phase.max_us, s.duration_us);
  }
  for (auto& [name, phase] : phases) {
    phase.name = name;
    report->phase_total_us += phase.self_us;
    report->phases.push_back(std::move(phase));
  }
  for (PhaseCost& phase : report->phases) {
    phase.share = report->phase_total_us == 0
                      ? 0
                      : static_cast<double>(phase.self_us) /
                            static_cast<double>(report->phase_total_us);
  }
  std::sort(report->phases.begin(), report->phases.end(),
            [](const PhaseCost& a, const PhaseCost& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.name < b.name;
            });
}

std::string Percent(double share) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f%%", share * 100.0);
  return buf;
}

std::string Fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

// Renders rows as a padded table: column i is left-aligned when align[i]
// is 'l', right-aligned otherwise.
std::vector<std::string> Tabulate(
    const std::vector<std::vector<std::string>>& rows,
    const std::string& align) {
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::vector<std::string> out;
  for (const auto& row : rows) {
    std::string line = "  ";
    for (std::size_t i = 0; i < row.size(); ++i) {
      bool left = i < align.size() && align[i] == 'l';
      std::size_t pad = widths[i] - row[i].size();
      if (i > 0) line += "  ";
      if (left) {
        line += row[i];
        if (i + 1 < row.size()) line += std::string(pad, ' ');
      } else {
        line += std::string(pad, ' ') + row[i];
      }
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace

const RuleCost* ProfileReport::DominantRule() const {
  return rules.empty() ? nullptr : &rules.front();
}

std::vector<std::string> ProfileReport::Lines() const {
  std::vector<std::string> lines;
  lines.push_back("operators (" + Fixed1(operator_total_us) + "us total):");
  if (operators.empty()) {
    lines.push_back("  (no operator calls recorded)");
  } else {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"operator", "calls", "errs", "total_us", "share",
                    "p50_us", "p95_us", "p99_us", "max_us"});
    for (const OperatorCost& op : operators) {
      rows.push_back({op.name, std::to_string(op.calls),
                      std::to_string(op.errors), Fixed1(op.total_us),
                      Percent(op.share), Fixed1(op.p50_us), Fixed1(op.p95_us),
                      Fixed1(op.p99_us), Fixed1(op.max_us)});
    }
    for (std::string& line : Tabulate(rows, "lrrrrrrrr")) {
      lines.push_back(std::move(line));
    }
  }
  lines.push_back("chase rules (" + Fixed1(rule_total_us) + "us total):");
  if (rules.empty()) {
    lines.push_back("  (no chase recorded)");
  } else {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"rule", "kind", "wall_us", "share", "triggers", "firings",
                    "nulls", "rounds", "rnd_p50", "rnd_p95", "rnd_max"});
    for (const RuleCost& rule : rules) {
      rows.push_back({rule.label, rule.kind, Fixed1(rule.wall_us),
                      Percent(rule.share),
                      std::to_string(rule.triggers_tested),
                      std::to_string(rule.firings),
                      std::to_string(rule.nulls_created),
                      std::to_string(rule.rounds), Fixed1(rule.round_p50_us),
                      Fixed1(rule.round_p95_us), Fixed1(rule.round_max_us)});
    }
    for (std::string& line : Tabulate(rows, "llrrrrrrrrr")) {
      lines.push_back(std::move(line));
    }
    const RuleCost* dominant = DominantRule();
    lines.push_back("dominant rule: " + dominant->label + " (" +
                    Percent(dominant->share) + " of chase rule wall time)");
  }
  if (!strata.empty()) {
    lines.push_back("strata (" + std::to_string(strata.size()) + "):");
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"stratum", "rules", "wall_us", "share", "firings"});
    for (const StratumCost& s : strata) {
      rows.push_back({std::to_string(s.index), std::to_string(s.rules),
                      Fixed1(s.wall_us), Percent(s.share),
                      std::to_string(s.firings)});
    }
    for (std::string& line : Tabulate(rows, "rrrrr")) {
      lines.push_back(std::move(line));
    }
  }
  if (foresight.any()) {
    lines.push_back("foresight:");
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"termination", foresight.terminating
                                       ? "terminating"
                                       : "potentially non-terminating"});
    rows.push_back({"predicted rounds (bound)",
                    foresight.predicted_rounds ==
                            static_cast<std::uint64_t>(
                                std::numeric_limits<std::int64_t>::max())
                        ? "unbounded"
                        : std::to_string(foresight.predicted_rounds)});
    rows.push_back(
        {"observed rounds", std::to_string(foresight.observed_rounds)});
    rows.push_back({"budget auto-armed", foresight.armed ? "yes" : "no"});
    for (std::string& line : Tabulate(rows, "lr")) {
      lines.push_back(std::move(line));
    }
  }
  lines.push_back("storage:");
  if (!storage.any()) {
    lines.push_back("  (no index activity recorded)");
  } else {
    double hit_rate = storage.index_probes == 0
                          ? 0
                          : static_cast<double>(storage.index_probe_hits) /
                                static_cast<double>(storage.index_probes);
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"index.probes", std::to_string(storage.index_probes)});
    rows.push_back(
        {"index.probe_hits", std::to_string(storage.index_probe_hits)});
    rows.push_back({"index.builds", std::to_string(storage.index_builds)});
    rows.push_back(
        {"chase.delta.tuples", std::to_string(storage.delta_tuples)});
    rows.push_back({"chase.delta.rule_skips",
                    std::to_string(storage.delta_rule_skips)});
    rows.push_back({"tuples/probe", Fixed1(hit_rate)});
    // The run block appears once a chase sealed or probed a run.
    if (storage.segments()) {
      rows.push_back(
          {"segment.seals", std::to_string(storage.segment_seals)});
      rows.push_back({"segment.sealed_rows",
                      std::to_string(storage.segment_sealed_rows)});
      rows.push_back(
          {"segment.compares", std::to_string(storage.segment_compares)});
      rows.push_back(
          {"segment.probes", std::to_string(storage.segment_probes)});
      rows.push_back(
          {"segment.probe_hits", std::to_string(storage.segment_probe_hits)});
      rows.push_back(
          {"segment.skips", std::to_string(storage.segment_skips)});
      rows.push_back({"segment.live_segments",
                      std::to_string(storage.segment_live_segments)});
    }
    for (std::string& line : Tabulate(rows, "lr")) {
      lines.push_back(std::move(line));
    }
  }
  if (values.any()) {
    lines.push_back("values:");
    std::uint64_t lookups = values.intern_hits + values.intern_misses;
    double hit_rate = lookups == 0 ? 0
                                   : static_cast<double>(values.intern_hits) /
                                         static_cast<double>(lookups);
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"bytes/value", std::to_string(values.value_bytes)});
    rows.push_back(
        {"intern.strings", std::to_string(values.interned_strings)});
    rows.push_back({"intern.bytes", std::to_string(values.interned_bytes)});
    rows.push_back({"intern.hits", std::to_string(values.intern_hits)});
    rows.push_back({"intern.misses", std::to_string(values.intern_misses)});
    rows.push_back({"intern hit rate", Percent(hit_rate)});
    for (std::string& line : Tabulate(rows, "lr")) {
      lines.push_back(std::move(line));
    }
  }
  if (incremental.any()) {
    lines.push_back("incremental:");
    double avg_us = static_cast<double>(incremental.latency_us) /
                    static_cast<double>(incremental.maintains);
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"maintains", std::to_string(incremental.maintains)});
    rows.push_back({"fallbacks", std::to_string(incremental.fallbacks)});
    rows.push_back(
        {"dred.candidates", std::to_string(incremental.dred_candidates)});
    rows.push_back({"dred.kept", std::to_string(incremental.dred_kept)});
    rows.push_back({"source +/-",
                    std::to_string(incremental.source_inserts) + " / " +
                        std::to_string(incremental.source_deletes)});
    rows.push_back({"target +/-",
                    std::to_string(incremental.target_inserts) + " / " +
                        std::to_string(incremental.target_deletes)});
    rows.push_back({"latency_us", std::to_string(incremental.latency_us)});
    rows.push_back({"us/maintain", Fixed1(avg_us)});
    for (std::string& line : Tabulate(rows, "lr")) {
      lines.push_back(std::move(line));
    }
  }
  lines.push_back("phases (" + std::to_string(phase_total_us) +
                  "us self-time total):");
  if (phases.empty()) {
    lines.push_back("  (no spans; run under `trace` to collect phases)");
  } else {
    std::vector<std::vector<std::string>> rows;
    rows.push_back(
        {"span", "count", "total_us", "self_us", "share", "max_us"});
    for (const PhaseCost& phase : phases) {
      rows.push_back({phase.name, std::to_string(phase.count),
                      std::to_string(phase.total_us),
                      std::to_string(phase.self_us), Percent(phase.share),
                      std::to_string(phase.max_us)});
    }
    for (std::string& line : Tabulate(rows, "lrrrrr")) {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

std::string ProfileReport::ToString() const {
  std::string out;
  for (const std::string& line : Lines()) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string ProfileReport::ToJson() const {
  std::ostringstream os;
  os << "{\"operators\": [";
  bool first = true;
  for (const OperatorCost& op : operators) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << JsonEscape(op.name) << "\", \"calls\": "
       << op.calls << ", \"errors\": " << op.errors << ", \"total_us\": "
       << FormatDouble(op.total_us) << ", \"share\": "
       << FormatDouble(op.share) << ", \"p50_us\": "
       << FormatDouble(op.p50_us) << ", \"p95_us\": "
       << FormatDouble(op.p95_us) << ", \"p99_us\": "
       << FormatDouble(op.p99_us) << ", \"max_us\": "
       << FormatDouble(op.max_us) << "}";
  }
  os << "], \"rules\": [";
  first = true;
  for (const RuleCost& rule : rules) {
    if (!first) os << ", ";
    first = false;
    os << "{\"label\": \"" << JsonEscape(rule.label) << "\", \"kind\": \""
       << rule.kind << "\", \"wall_us\": " << FormatDouble(rule.wall_us)
       << ", \"share\": " << FormatDouble(rule.share)
       << ", \"triggers_tested\": " << rule.triggers_tested
       << ", \"firings\": " << rule.firings << ", \"nulls_created\": "
       << rule.nulls_created << ", \"rounds_active\": " << rule.rounds_active
       << ", \"rounds\": " << rule.rounds << ", \"round_p50_us\": "
       << FormatDouble(rule.round_p50_us) << ", \"round_p95_us\": "
       << FormatDouble(rule.round_p95_us) << ", \"round_max_us\": "
       << FormatDouble(rule.round_max_us) << ", \"stratum\": "
       << rule.stratum << "}";
  }
  os << "], \"strata\": [";
  first = true;
  for (const StratumCost& s : strata) {
    if (!first) os << ", ";
    first = false;
    os << "{\"index\": " << s.index << ", \"rules\": " << s.rules
       << ", \"wall_us\": " << FormatDouble(s.wall_us) << ", \"share\": "
       << FormatDouble(s.share) << ", \"firings\": " << s.firings << "}";
  }
  os << "], \"foresight\": {\"analyzed\": "
     << (foresight.analyzed ? "true" : "false") << ", \"terminating\": "
     << (foresight.terminating ? "true" : "false") << ", \"armed\": "
     << (foresight.armed ? "true" : "false") << ", \"predicted_rounds\": "
     << foresight.predicted_rounds << ", \"observed_rounds\": "
     << foresight.observed_rounds << "}, \"phases\": [";
  first = true;
  for (const PhaseCost& phase : phases) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << JsonEscape(phase.name) << "\", \"count\": "
       << phase.count << ", \"total_us\": " << phase.total_us
       << ", \"self_us\": " << phase.self_us << ", \"share\": "
       << FormatDouble(phase.share) << ", \"max_us\": " << phase.max_us
       << "}";
  }
  os << "], \"storage\": {\"index_probes\": " << storage.index_probes
     << ", \"index_probe_hits\": " << storage.index_probe_hits
     << ", \"index_builds\": " << storage.index_builds
     << ", \"delta_tuples\": " << storage.delta_tuples
     << ", \"delta_rule_skips\": " << storage.delta_rule_skips;
  if (storage.segments()) {
    os << ", \"segment_seals\": " << storage.segment_seals
       << ", \"segment_sealed_rows\": " << storage.segment_sealed_rows
       << ", \"segment_compares\": " << storage.segment_compares
       << ", \"segment_probes\": " << storage.segment_probes
       << ", \"segment_probe_hits\": " << storage.segment_probe_hits
       << ", \"segment_skips\": " << storage.segment_skips
       << ", \"segment_live_segments\": " << storage.segment_live_segments;
  }
  os << "}, \"values\": {\"value_bytes\": " << values.value_bytes
     << ", \"interned_strings\": " << values.interned_strings
     << ", \"interned_bytes\": " << values.interned_bytes
     << ", \"intern_hits\": " << values.intern_hits
     << ", \"intern_misses\": " << values.intern_misses
     << "}, \"incremental\": {\"maintains\": " << incremental.maintains
     << ", \"fallbacks\": " << incremental.fallbacks
     << ", \"dred_candidates\": " << incremental.dred_candidates
     << ", \"dred_kept\": " << incremental.dred_kept
     << ", \"source_inserts\": " << incremental.source_inserts
     << ", \"source_deletes\": " << incremental.source_deletes
     << ", \"target_inserts\": " << incremental.target_inserts
     << ", \"target_deletes\": " << incremental.target_deletes
     << ", \"latency_us\": " << incremental.latency_us
     << "}, \"totals\": {\"operator_total_us\": "
     << FormatDouble(operator_total_us)
     << ", \"rule_total_us\": " << FormatDouble(rule_total_us)
     << ", \"phase_total_us\": " << phase_total_us << "}}";
  return os.str();
}

ProfileReport Profiler::Build(const MetricsSnapshot& metrics,
                              const std::vector<SpanRecord>& spans) {
  ProfileReport report;
  BuildOperators(metrics, &report);
  BuildRules(metrics, &report);
  BuildStrata(metrics, &report);
  BuildForesight(metrics, &report);
  BuildStorage(metrics, &report);
  BuildValues(metrics, &report);
  BuildIncremental(metrics, &report);
  BuildPhases(spans, &report);
  return report;
}

ProfileReport Profiler::Build(const Context& ctx) {
  return Build(ctx.metrics.Snapshot(), ctx.tracer.Snapshot());
}

}  // namespace mm2::obs
