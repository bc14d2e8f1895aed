// mm_script: one operation is one pass of a Rondo-style metadata session
// through `Engine`: parse every schema and mapping from text, match, then a
// script of compose (an evolution chain and a blow-up instance), invert,
// inverse, extract, diff, merge, modelgen (tph/tpt/tpc), oogen, nestedgen
// and `explain mapping`. The reads are `explain mapping` calls on the
// pass's outputs. The chase does nothing here; text, match, compose,
// inverse, diff, merge, modelgen and analysis do it all.
#include <memory>
#include <set>
#include <sstream>

#include "analysis/analysis.h"
#include "compose/compose.h"
#include "diff/diff.h"
#include "engine/engine.h"
#include "harness.h"
#include "inputs.h"
#include "inverse/inverse.h"
#include "match/matcher.h"
#include "merge/merge.h"
#include "modelgen/modelgen.h"
#include "text/sexpr.h"

namespace mm2bench {
namespace {

using mm2::Status;
using mm2::logic::Mapping;
using mm2::model::Schema;

std::vector<std::string> Tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::vector<std::string> Lines(const std::string& script) {
  std::istringstream in(script);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class MmScript : public Workload {
 public:
  Status Setup(std::uint64_t seed) override {
    inputs_ = MakeScriptInputs(seed);
    lines_ = Lines(inputs_.script);
    engine_ = std::make_unique<mm2::engine::Engine>();
    digest_.clear();
    const double start = NowUs();
    for (const std::string& text : inputs_.schema_texts) {
      MM2_ASSIGN_OR_RETURN(Schema schema, mm2::text::ParseSchema(text));
    }
    for (const std::string& text : inputs_.mapping_texts) {
      MM2_ASSIGN_OR_RETURN(Mapping mapping, mm2::text::ParseMapping(text));
    }
    parse_us_ = NowUs() - start;
    return Status::OK();
  }

  double ParsedBytes() const override {
    double bytes = 0;
    for (const std::string& t : inputs_.schema_texts) bytes += t.size();
    for (const std::string& t : inputs_.mapping_texts) bytes += t.size();
    return bytes;
  }
  double ParseUs() const override { return parse_us_; }
  double BytesPerFact() const override { return 0; }

  void Op(OpSink* sink) override {
    Tracer* tr = sink->tracer;
    Report* report = sink->report;
    Scope op(tr, "op.mm_script");
    Scope pass(nullptr, "");

    Status loaded = Load(tr, op.id());
    report->Attempt(loaded.ok(), "load: " + loaded.ToString());
    Scope match(tr, "engine.match", op.id());
    auto matched = engine_->Match("Rel", "Rel_p");
    match.Stop();
    report->Attempt(matched.ok(), "match Rel Rel_p");

    std::vector<int> line_ids;
    if (tr == nullptr) {
      auto log = engine_->RunScript(inputs_.script);
      report->Attempt(log.ok(), "script: " + log.status().ToString());
    } else {
      // Traced: one RunScript call per line, so each operator gets a span.
      for (const std::string& line : lines_) {
        Scope s(tr, "engine." + Tokens(line)[0], op.id());
        auto log = engine_->RunScript(line);
        line_ids.push_back(s.id());
        report->Attempt(log.ok(), line + ": " + log.status().ToString());
      }
    }
    const double pass_us = pass.Stop();

    std::vector<int> read_ids;
    for (const std::string& mapping : inputs_.explained) {
      Scope read(tr, "engine.explain", op.id());
      auto log = engine_->RunScript("explain mapping " + mapping);
      sink->read_us.Add(read.Stop());
      read_ids.push_back(read.id());
      report->Attempt(log.ok(), "explain mapping " + mapping);
    }
    op.Stop();

    sink->op_ms.Add(pass_us / 1e3);
    sink->series["script_ms"].Add(pass_us / 1e3);
    if (matched.ok()) recall_ = Recall(*matched);
    CheckDigest(report);
    if (tr != nullptr) Decompose(sink, match.id(), line_ids, read_ids);
  }

  void Finish(Report*) override {}

  Tails TailPercentiles() const override { return {99, 99}; }

  void LayerCounts(Report* report) const override {
    report->Set("compose.combinations_examined",
                counts_.PerOp("compose.combinations_examined"), "count");
    report->Set("match.candidate_recall", recall_, "ratio");
  }

 private:
  // Parses every schema and mapping text and registers the result.
  Status Load(Tracer* tr, int parent) {
    for (const std::string& text : inputs_.schema_texts) {
      Scope parse(tr, "text.parse_schema", parent);
      MM2_ASSIGN_OR_RETURN(Schema schema, mm2::text::ParseSchema(text));
      parse.Stop();
      Scope put(tr, "engine.repo_put", parent);
      MM2_RETURN_IF_ERROR(engine_->repo().PutSchema(std::move(schema)));
    }
    for (const std::string& text : inputs_.mapping_texts) {
      Scope parse(tr, "text.parse_mapping", parent);
      MM2_ASSIGN_OR_RETURN(Mapping mapping, mm2::text::ParseMapping(text));
      parse.Stop();
      Scope put(tr, "engine.repo_put", parent);
      MM2_RETURN_IF_ERROR(engine_->repo().PutSchema(mapping.source()));
      MM2_RETURN_IF_ERROR(engine_->repo().PutSchema(mapping.target()));
      MM2_RETURN_IF_ERROR(engine_->repo().PutMapping(std::move(mapping)));
    }
    return Status::OK();
  }

  // Share of the reference alignment found among the top-k candidates.
  double Recall(const mm2::match::MatchResult& result) const {
    std::set<std::pair<std::string, std::string>> found;
    for (const auto& [source, candidates] : result.candidates) {
      for (const mm2::match::Correspondence& c : candidates) {
        found.emplace(c.source.ToString(), c.target.ToString());
      }
    }
    std::size_t hits = 0;
    for (const mm2::match::Correspondence& c : inputs_.reference) {
      hits += found.count({c.source.ToString(), c.target.ToString()});
    }
    return inputs_.reference.empty()
               ? 0
               : static_cast<double>(hits) /
                     static_cast<double>(inputs_.reference.size());
  }

  // Output digest: clause count and first-order flag of every output
  // mapping plus the match recall. The first pass records it after a
  // sanity check; every later pass must reproduce it exactly.
  void CheckDigest(Report* report) {
    std::string digest = "recall=" + std::to_string(recall_);
    bool sane = recall_ > 0.5;
    for (const std::string& name : inputs_.digested) {
      auto m = engine_->repo().GetMapping(name);
      if (!m.ok()) {
        sane = false;
        digest += " " + name + "=missing";
        continue;
      }
      sane = sane && m->ClauseCount() > 0;
      digest += " " + name + "=" + std::to_string(m->ClauseCount()) +
                (m->is_second_order() ? "so" : "fo");
    }
    if (digest_.empty()) {
      report->Attempt(sane, "digest: " + digest);
      digest_ = digest;
    } else {
      report->Attempt(digest == digest_, "digest changed: " + digest);
    }
  }

  // Traced phase: repeats each operator's library call on the same inputs
  // as a child of the engine span that ran it.
  void Decompose(OpSink* sink, int match_id, const std::vector<int>& line_ids,
                 const std::vector<int>& read_ids) {
    Tracer* tr = sink->tracer;
    auto& series = sink->series;
    auto& repo = engine_->repo();
    double lib_us = 0;
    double engine_us = 0;
    const auto& spans = tr->spans();
    auto dur = [&spans](int id) {
      return spans[static_cast<std::size_t>(id)].end_us -
             spans[static_cast<std::size_t>(id)].start_us;
    };
    auto twin_match = [&](const std::string& left, const std::string& right,
                          int parent) {
      auto l = repo.GetSchema(left);
      auto r = repo.GetSchema(right);
      if (!l.ok() || !r.ok()) return;
      Scope s(tr, "match.match", parent);
      auto result = mm2::match::SchemaMatcher().Match(*l, *r);
      const double us = s.Stop();
      series["match.ms"].Add(us / 1e3);
      lib_us += us;
      engine_us += dur(parent);
    };
    twin_match("Rel", "Rel_p", match_id);

    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::vector<std::string> t = Tokens(lines_[i]);
      const int parent = line_ids[i];
      double us = -1;
      if (t[0] == "match") {
        twin_match(t[1], t[2], parent);
        continue;
      } else if (t[0] == "compose") {
        auto m12 = repo.GetMapping(t[2]);
        auto m23 = repo.GetMapping(t[3]);
        if (!m12.ok() || !m23.ok()) continue;
        mm2::compose::ComposeStats stats;
        Scope s(tr, "compose.compose", parent);
        auto out = mm2::compose::Compose(*m12, *m23, {}, &stats);
        us = s.Stop();
        series["compose.ms"].Add(us / 1e3);
        counts_.Add("compose.combinations_examined",
                    static_cast<double>(stats.combinations_examined));
      } else if (t[0] == "invert" || t[0] == "inverse") {
        auto m = repo.GetMapping(t[2]);
        if (!m.ok()) continue;
        Scope s(tr, "inverse." + t[0], parent);
        if (t[0] == "invert") {
          auto out = mm2::inverse::Invert(*m);
        } else {
          auto out = mm2::inverse::ComputeInverse(*m);
        }
        us = s.Stop();
        series["inverse.us"].Add(us);
      } else if (t[0] == "extract" || t[0] == "diff") {
        auto m = repo.GetMapping(t[3]);
        if (!m.ok()) continue;
        Scope s(tr, "diff." + t[0], parent);
        auto out = t[0] == "extract" ? mm2::diff::Extract(*m)
                                     : mm2::diff::Diff(*m);
        us = s.Stop();
        series["diff.us"].Add(us);
      } else if (t[0] == "merge") {
        auto l = repo.GetSchema(t[4]);
        auto r = repo.GetSchema(t[5]);
        if (!l.ok() || !r.ok()) continue;
        mm2::merge::MergeOptions options;
        options.merged_name = t[1];
        Scope s(tr, "merge.merge", parent);
        auto out = mm2::merge::Merge(*l, *r, inputs_.reference, options);
        us = s.Stop();
        series["merge.us"].Add(us);
      } else if (t[0] == "modelgen" || t[0] == "oogen" || t[0] == "nestedgen") {
        auto schema = repo.GetSchema(t[3]);
        if (!schema.ok()) continue;
        Scope s(tr, "modelgen." + t[0], parent);
        if (t[0] == "oogen") {
          auto out = mm2::modelgen::RelationalToOo(*schema);
        } else if (t[0] == "nestedgen") {
          auto out = mm2::modelgen::RelationalToNested(*schema);
        } else {
          using mm2::modelgen::InheritanceStrategy;
          const InheritanceStrategy strategy =
              t[4] == "tph"   ? InheritanceStrategy::kSingleTable
              : t[4] == "tpt" ? InheritanceStrategy::kTablePerType
                              : InheritanceStrategy::kTablePerConcrete;
          auto out = mm2::modelgen::ErToRelational(*schema, strategy);
        }
        us = s.Stop();
        series["modelgen.us"].Add(us);
      } else if (t[0] == "explain") {
        us = TwinAnalyze(tr, t[2], parent, &series);
      }
      if (us >= 0) {
        lib_us += us;
        engine_us += dur(parent);
      }
    }
    for (std::size_t i = 0; i < read_ids.size(); ++i) {
      const double us =
          TwinAnalyze(tr, inputs_.explained[i], read_ids[i], &series);
      if (us >= 0) {
        lib_us += us;
        engine_us += dur(read_ids[i]);
      }
    }
    series["engine.script_overhead_ms"].Add((engine_us - lib_us) / 1e3);
    counts_.EndOp();
  }

  double TwinAnalyze(Tracer* tr, const std::string& name, int parent,
                     std::map<std::string, Samples>* series) {
    auto m = engine_->repo().GetMapping(name);
    if (!m.ok()) return -1;
    Scope s(tr, "analysis.analyze", parent);
    std::string text = mm2::analysis::AnalyzeMapping(*m).ToText();
    const double us = s.Stop();
    (*series)["analysis.analyze_us"].Add(us);
    return us;
  }

  ScriptInputs inputs_;
  std::vector<std::string> lines_;
  std::unique_ptr<mm2::engine::Engine> engine_;
  double parse_us_ = 0;
  double recall_ = 0;
  std::string digest_;
  Counts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeMmScript() {
  return std::make_unique<MmScript>();
}

}  // namespace mm2bench
