#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string_view>

#include "common/json.h"
#include "common/strings.h"
#include "obs/obs.h"

namespace mm2::obs {

namespace {

using json::FormatDouble;

// How a section row's value prints. kShown is whether the row's section
// shows; a derived row reads rows `a` (and `b`) of its block.
enum class Form {
  kCount,    // the number
  kBound,    // the number, or "unbounded" at the saturated gauge
  kVerdict,  // "terminating" / "potentially non-terminating"; JSON bool
  kYesNo,    // "yes" / "no"; JSON bool
  kShown,    // JSON bool: the section shows
  kRatio,    // a / b to one decimal
  kRate,     // a / (a + b) as a percentage
  kPair,     // "a / b"
};
using enum Form;

// Which value of a row shows its block, and so its section, in the text.
enum class Shows { kNever, kIfNonzero, kIfPresent };
using enum Shows;

// One `explain` scalar, declared once: its text label, its JSON key and the
// registry counter or gauge it reads (a gauge below zero reads 0). A null
// label keeps the row out of the text, a null key out of the JSON. A row
// with no metric is derived: it prints rows `a` and `b` of its block.
struct Row {
  const char* label;
  const char* key;
  const char* metric;
  Shows shows = kNever;
  Form form = kCount;
  std::size_t a = 0;
  std::size_t b = 0;
};

// When a block of rows renders.
enum class Guard {
  kSection,     // with its section in the text; always in the JSON
  kText,        // in the text when one of its rows shows it; always in JSON
  kTextAndJson  // in both only when one of its rows shows it
};

struct Block {
  std::span<const Row> rows;
  Guard guard = Guard::kSection;
};

// A section shows in the text when any of its rows shows it; a hidden one
// prints its placeholder line, if it has one. The JSON always has it.
struct Section {
  const char* name;  // text header and JSON key
  const char* placeholder;
  std::span<const Block> blocks;
};

// Termination foresight: what the static classifier predicted versus what
// the chase observed (`chase.foresight.*`, mirrored for analyzed runs).
constexpr Row kForesight[] = {
    {nullptr, "analyzed", nullptr, kNever, kShown},
    {"termination", "terminating", "chase.foresight.terminating", kIfPresent,
     kVerdict},
    {nullptr, "armed", "chase.foresight.armed", kIfNonzero, kYesNo},
    {"predicted rounds (bound)", "predicted_rounds",
     "chase.foresight.predicted_rounds", kIfPresent, kBound},
    {"observed rounds", "observed_rounds", "chase.foresight.observed_rounds",
     kIfPresent},
    {"budget auto-armed", nullptr, nullptr, kNever, kYesNo, 2},
};

// Index probe traffic and semi-naive delta sizes.
constexpr Row kStorage[] = {
    {"index.probes", "index_probes", "index.probes", kIfNonzero},
    {"index.probe_hits", "index_probe_hits", "index.probe_hits", kIfNonzero},
    {"index.builds", "index_builds", "index.builds", kIfNonzero},
    {"chase.delta.tuples", "delta_tuples", "chase.delta.tuples", kIfNonzero},
    {"chase.delta.rule_skips", "delta_rule_skips", "chase.delta.rule_skips",
     kIfNonzero},
    {"tuples/probe", nullptr, nullptr, kNever, kRatio, 1, 0},
};

// The run a chase sealed on publish, once one was sealed or probed.
constexpr Row kSegments[] = {
    {"segment.seals", "segment_seals", "storage.segment.seals", kIfNonzero},
    {"segment.sealed_rows", "segment_sealed_rows",
     "storage.segment.sealed_rows"},
    {"segment.compares", "segment_compares", "storage.segment.compares"},
    {"segment.probes", "segment_probes", "storage.segment.probes", kIfNonzero},
    {"segment.probe_hits", "segment_probe_hits", "storage.segment.probe_hits"},
    {"segment.skips", "segment_skips", "storage.segment.skips"},
    {"segment.live_segments", "segment_live_segments",
     "storage.segment.live_segments"},
};

// The process-wide string intern pool behind the compact Value.
constexpr Row kValues[] = {
    {"bytes/value", "value_bytes", "value.bytes_per_value"},
    {"intern.strings", "interned_strings", "value.intern.strings", kIfNonzero},
    {"intern.bytes", "interned_bytes", "value.intern.bytes"},
    {"intern.hits", "intern_hits", "value.intern.hits", kIfNonzero},
    {"intern.misses", "intern_misses", "value.intern.misses", kIfNonzero},
    {"intern hit rate", nullptr, nullptr, kNever, kRate, 3, 4},
};

// The process's peak resident set, which `explain` samples before reading.
constexpr Row kMemory[] = {
    {"peak RSS (kB)", "peak_rss_kb", "mem.peak_rss_kb", kIfPresent},
};

// Incremental maintenance, mirrored by runtime::MaintainExchange.
constexpr Row kMaintains[] = {
    {"maintains", "maintains", "chase.incremental.maintains", kIfNonzero},
    {"fallbacks", "fallbacks", "chase.incremental.fallbacks"},
    {"dred.candidates", "dred_candidates", "chase.incremental.dred_candidates"},
    {"dred.kept", "dred_kept", "chase.incremental.dred_kept"},
    {nullptr, "source_inserts", "chase.incremental.source_inserts"},
    {nullptr, "source_deletes", "chase.incremental.source_deletes"},
    {"source +/-", nullptr, nullptr, kNever, kPair, 4, 5},
    {nullptr, "target_inserts", "chase.incremental.target_inserts"},
    {nullptr, "target_deletes", "chase.incremental.target_deletes"},
    {"target +/-", nullptr, nullptr, kNever, kPair, 7, 8},
    {"latency_us", "latency_us", "chase.incremental.latency_us"},
    {"us/maintain", nullptr, nullptr, kNever, kRatio, 10, 0},
};

// The session provenance store after the last pass.
constexpr Row kProvenance[] = {
    {"provenance.facts", "provenance_facts", "chase.provenance.facts"},
    {"provenance.witnesses", "provenance_witnesses",
     "chase.provenance.witnesses"},
    {"provenance.support_edges", "provenance_support_edges",
     "chase.provenance.support_edges"},
    {"provenance.bytes", "provenance_bytes", "chase.provenance.bytes",
     kIfNonzero},
};

constexpr Block kForesightBlocks[] = {{kForesight}};
constexpr Block kStorageBlocks[] = {{kStorage},
                                    {kSegments, Guard::kTextAndJson}};
constexpr Block kValuesBlocks[] = {{kValues},
                                   {kMemory, Guard::kTextAndJson}};
constexpr Block kIncrementalBlocks[] = {{kMaintains, Guard::kText},
                                        {kProvenance, Guard::kText}};

constexpr Section kForesightSection = {"foresight", nullptr,
                                       kForesightBlocks};
// After the phases in the JSON, before them in the text.
constexpr Section kStoreSections[] = {
    {"storage", "(no index activity recorded)", kStorageBlocks},
    {"values", nullptr, kValuesBlocks},
    {"incremental", nullptr, kIncrementalBlocks},
};

constexpr std::uint64_t kSaturated = std::numeric_limits<std::int64_t>::max();

// Reads a row's metric into `*value`: counters as counted, gauges clamped
// at zero. False when the snapshot holds neither.
bool Read(const MetricsSnapshot& metrics, const char* name,
          std::uint64_t* value) {
  const CounterSnapshot* c = metrics.FindCounter(name);
  const GaugeSnapshot* g = c == nullptr ? metrics.FindGauge(name) : nullptr;
  if (c != nullptr) *value = c->value;
  if (g != nullptr) {
    *value = static_cast<std::uint64_t>(std::max<std::int64_t>(g->value, 0));
  }
  return c != nullptr || g != nullptr;
}

std::string Fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string Percent(double share) { return Fixed1(share * 100.0) + "%"; }

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Row `r` of a block as text or as a JSON value. A derived row reads rows
// `a` and `b` of the block's `values`.
std::string Render(const Row& row, const std::vector<std::uint64_t>& values,
                   std::size_t r, bool json, bool section_shows) {
  const std::uint64_t v = row.form == kShown       ? section_shows
                          : row.metric != nullptr ? values[r]
                                                  : values[row.a];
  const std::uint64_t b = values[row.b];
  if (json) {
    const bool flag =
        row.form == kVerdict || row.form == kYesNo || row.form == kShown;
    return !flag ? std::to_string(v) : v != 0 ? "true" : "false";
  }
  switch (row.form) {
    case kBound: return v == kSaturated ? "unbounded" : std::to_string(v);
    case kVerdict:
      return v != 0 ? "terminating" : "potentially non-terminating";
    case kYesNo: return v != 0 ? "yes" : "no";
    case kRatio: return Fixed1(Ratio(v, b));
    case kRate: return Percent(Ratio(v, v + b));
    case kPair: return std::to_string(v) + " / " + std::to_string(b);
    case kCount:
    case kShown: break;
  }
  return std::to_string(v);
}

// The rows of `section` that render in the text (as label and text) or in
// the JSON (as key and value).
std::vector<std::vector<std::string>> Cells(const Section& section,
                                            const MetricsSnapshot& metrics,
                                            bool json) {
  std::vector<std::vector<std::uint64_t>> values;
  std::vector<bool> block_shows;
  bool shows = false;
  for (const Block& block : section.blocks) {
    values.emplace_back();
    bool any = false;
    for (const Row& row : block.rows) {
      std::uint64_t v = 0;
      const bool present =
          row.metric != nullptr && Read(metrics, row.metric, &v);
      values.back().push_back(v);
      any = any || (row.shows == kIfPresent && present) ||
            (row.shows == kIfNonzero && v != 0);
    }
    block_shows.push_back(any);
    shows = shows || any;
  }
  std::vector<std::vector<std::string>> cells;
  for (std::size_t i = 0; i < section.blocks.size(); ++i) {
    const Guard guard = section.blocks[i].guard;
    const bool visible = guard == Guard::kSection ? json || shows
                         : guard == Guard::kText  ? json || block_shows[i]
                                                  : block_shows[i];
    if (!visible) continue;
    const std::span<const Row> rows = section.blocks[i].rows;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const char* name = json ? rows[r].key : rows[r].label;
      if (name == nullptr) continue;
      cells.push_back({name, Render(rows[r], values[i], r, json, shows)});
    }
  }
  return cells;
}

std::string SectionJson(const Section& section,
                        const MetricsSnapshot& metrics) {
  std::string out = "\"" + std::string(section.name) + "\": {";
  for (const std::vector<std::string>& cell : Cells(section, metrics, true)) {
    if (out.back() != '{') out += ", ";
    out += "\"" + cell[0] + "\": " + cell[1];
  }
  return out + "}";
}

// Splits a family member's metric name, "<prefix><member>.<field>", at its
// last dot, so a member (a rule label) may itself hold dots. False for a
// name outside the family.
bool SplitMember(const std::string& name, std::string_view prefix,
                 std::string* member, std::string* field) {
  const std::size_t dot = name.rfind('.');
  if (!name.starts_with(prefix) || dot == std::string::npos ||
      dot < prefix.size() || dot + 1 == name.size()) {
    return false;
  }
  *member = name.substr(prefix.size(), dot - prefix.size());
  *field = name.substr(dot + 1);
  return true;
}

// Moves `costs` into `out` most expensive first (ties by name), naming each
// entry after its key and stamping its share of the summed cost; returns
// that sum.
template <typename Cost, typename T>
T Rank(std::map<std::string, Cost>& costs, std::string Cost::*name,
       T Cost::*cost, std::vector<Cost>* out) {
  T total = 0;
  for (auto& [key, c] : costs) {
    c.*name = key;
    total += c.*cost;
    out->push_back(std::move(c));
  }
  for (Cost& c : *out) {
    c.share = total == 0 ? 0
                         : static_cast<double>(c.*cost) /
                               static_cast<double>(total);
  }
  std::sort(out->begin(), out->end(), [&](const Cost& x, const Cost& y) {
    if (x.*cost != y.*cost) return x.*cost > y.*cost;
    return x.*name < y.*name;
  });
  return total;
}

std::string RuleKind(const std::string& label) {
  if (label.rfind("tgd", 0) == 0) return "tgd";
  if (label.rfind("egd", 0) == 0) return "egd";
  if (label.rfind("so", 0) == 0) return "so_tgd";
  return "rule";
}

void BuildOperators(const MetricsSnapshot& metrics, ProfileReport* report) {
  std::map<std::string, OperatorCost> ops;
  std::string name;
  std::string field;
  for (const CounterSnapshot& c : metrics.counters) {
    if (!SplitMember(c.name, "op.", &name, &field)) continue;
    if (field == "calls") ops[name].calls = c.value;
    if (field == "errors") ops[name].errors = c.value;
  }
  for (const HistogramSnapshot& h : metrics.histograms) {
    if (!SplitMember(h.name, "op.", &name, &field) || field != "latency_us") {
      continue;
    }
    OperatorCost& op = ops[name];
    op.total_us = h.sum;
    op.mean_us = h.mean();
    op.p50_us = h.p50();
    op.p95_us = h.p95();
    op.p99_us = h.p99();
    op.max_us = h.max;
  }
  report->operator_total_us = Rank(ops, &OperatorCost::name,
                                   &OperatorCost::total_us,
                                   &report->operators);
}

void BuildRules(const MetricsSnapshot& metrics, ProfileReport* report) {
  constexpr std::string_view kPrefix = "chase.rule.";
  std::map<std::string, RuleCost> rules;
  std::string label;
  std::string field;
  for (const CounterSnapshot& c : metrics.counters) {
    if (!SplitMember(c.name, kPrefix, &label, &field)) continue;
    RuleCost& rule = rules[label];
    if (field == "triggers") rule.triggers_tested = c.value;
    if (field == "firings") rule.firings = c.value;
    if (field == "nulls") rule.nulls_created = c.value;
    if (field == "rounds_active") rule.rounds_active = c.value;
  }
  for (const HistogramSnapshot& h : metrics.histograms) {
    if (!SplitMember(h.name, kPrefix, &label, &field) || field != "round_us") {
      continue;
    }
    RuleCost& rule = rules[label];
    rule.wall_us = h.sum;
    rule.rounds = h.count;
    rule.round_p50_us = h.p50();
    rule.round_p95_us = h.p95();
    rule.round_max_us = h.max;
  }
  report->rule_total_us =
      Rank(rules, &RuleCost::label, &RuleCost::wall_us, &report->rules);
  for (RuleCost& rule : report->rules) rule.kind = RuleKind(rule.label);
}

void BuildPhases(const std::vector<SpanRecord>& spans,
                 ProfileReport* report) {
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
  report->phase_total_us = Rank(phases, &PhaseCost::name, &PhaseCost::self_us,
                                &report->phases);
}

// Appends rows as a padded table: column i is left-aligned when align[i]
// is 'l', right-aligned otherwise.
void Tabulate(const std::vector<std::vector<std::string>>& rows,
              const std::string& align, std::vector<std::string>* lines) {
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
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
    lines->push_back(std::move(line));
  }
}

void AppendSection(const Section& section, const MetricsSnapshot& metrics,
                   std::vector<std::string>* lines) {
  const std::vector<std::vector<std::string>> cells =
      Cells(section, metrics, false);
  if (cells.empty() && section.placeholder == nullptr) return;
  lines->push_back(std::string(section.name) + ":");
  if (cells.empty()) lines->push_back(std::string("  ") + section.placeholder);
  Tabulate(cells, "lr", lines);
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
    std::vector<std::vector<std::string>> rows = {
        {"operator", "calls", "errs", "total_us", "share", "p50_us", "p95_us",
         "p99_us", "max_us"}};
    for (const OperatorCost& op : operators) {
      rows.push_back({op.name, std::to_string(op.calls),
                      std::to_string(op.errors), Fixed1(op.total_us),
                      Percent(op.share), Fixed1(op.p50_us), Fixed1(op.p95_us),
                      Fixed1(op.p99_us), Fixed1(op.max_us)});
    }
    Tabulate(rows, "lrrrrrrrr", &lines);
  }
  lines.push_back("chase rules (" + Fixed1(rule_total_us) + "us total):");
  if (rules.empty()) {
    lines.push_back("  (no chase recorded)");
  } else {
    std::vector<std::vector<std::string>> rows = {
        {"rule", "kind", "wall_us", "share", "triggers", "firings", "nulls",
         "rounds", "rnd_p50", "rnd_p95", "rnd_max"}};
    for (const RuleCost& rule : rules) {
      rows.push_back({rule.label, rule.kind, Fixed1(rule.wall_us),
                      Percent(rule.share),
                      std::to_string(rule.triggers_tested),
                      std::to_string(rule.firings),
                      std::to_string(rule.nulls_created),
                      std::to_string(rule.rounds), Fixed1(rule.round_p50_us),
                      Fixed1(rule.round_p95_us), Fixed1(rule.round_max_us)});
    }
    Tabulate(rows, "llrrrrrrrrr", &lines);
    const RuleCost* dominant = DominantRule();
    lines.push_back("dominant rule: " + dominant->label + " (" +
                    Percent(dominant->share) + " of chase rule wall time)");
  }
  AppendSection(kForesightSection, metrics, &lines);
  for (const Section& section : kStoreSections) {
    AppendSection(section, metrics, &lines);
  }
  lines.push_back("phases (" + std::to_string(phase_total_us) +
                  "us self-time total):");
  if (phases.empty()) {
    lines.push_back("  (no spans; run under `trace` to collect phases)");
  } else {
    std::vector<std::vector<std::string>> rows = {
        {"span", "count", "total_us", "self_us", "share", "max_us"}};
    for (const PhaseCost& phase : phases) {
      rows.push_back({phase.name, std::to_string(phase.count),
                      std::to_string(phase.total_us),
                      std::to_string(phase.self_us), Percent(phase.share),
                      std::to_string(phase.max_us)});
    }
    Tabulate(rows, "lrrrrr", &lines);
  }
  return lines;
}

std::string ProfileReport::ToString() const {
  return Join(Lines(), "\n") + "\n";
}

std::string ProfileReport::ToJson() const {
  std::ostringstream os;
  os << "{\"operators\": [";
  const char* sep = "";
  for (const OperatorCost& op : operators) {
    os << sep << "{\"name\": \"" << json::Escape(op.name) << "\", \"calls\": "
       << op.calls << ", \"errors\": " << op.errors << ", \"total_us\": "
       << FormatDouble(op.total_us) << ", \"share\": "
       << FormatDouble(op.share) << ", \"p50_us\": "
       << FormatDouble(op.p50_us) << ", \"p95_us\": "
       << FormatDouble(op.p95_us) << ", \"p99_us\": "
       << FormatDouble(op.p99_us) << ", \"max_us\": "
       << FormatDouble(op.max_us) << "}";
    sep = ", ";
  }
  os << "], \"rules\": [";
  sep = "";
  for (const RuleCost& rule : rules) {
    os << sep << "{\"label\": \"" << json::Escape(rule.label)
       << "\", \"kind\": \"" << rule.kind
       << "\", \"wall_us\": " << FormatDouble(rule.wall_us)
       << ", \"share\": " << FormatDouble(rule.share)
       << ", \"triggers_tested\": " << rule.triggers_tested
       << ", \"firings\": " << rule.firings << ", \"nulls_created\": "
       << rule.nulls_created << ", \"rounds_active\": " << rule.rounds_active
       << ", \"rounds\": " << rule.rounds << ", \"round_p50_us\": "
       << FormatDouble(rule.round_p50_us) << ", \"round_p95_us\": "
       << FormatDouble(rule.round_p95_us) << ", \"round_max_us\": "
       << FormatDouble(rule.round_max_us) << "}";
    sep = ", ";
  }
  os << "], " << SectionJson(kForesightSection, metrics) << ", \"phases\": [";
  sep = "";
  for (const PhaseCost& phase : phases) {
    os << sep << "{\"name\": \"" << json::Escape(phase.name)
       << "\", \"count\": " << phase.count
       << ", \"total_us\": " << phase.total_us
       << ", \"self_us\": " << phase.self_us
       << ", \"share\": " << FormatDouble(phase.share)
       << ", \"max_us\": " << phase.max_us << "}";
    sep = ", ";
  }
  os << "]";
  for (const Section& section : kStoreSections) {
    os << ", " << SectionJson(section, metrics);
  }
  os << ", \"totals\": {\"operator_total_us\": "
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
  BuildPhases(spans, &report);
  report.metrics = metrics;
  return report;
}

ProfileReport Profiler::Build(const Context& ctx) {
  return Build(ctx.metrics.Snapshot(), ctx.tracer.Snapshot());
}

}  // namespace mm2::obs
