// exchange_bulk: one operation is a bulk load of a generated snowflake
// source through the engine twice -- `Engine::Exchange` (the chase) and
// `Engine::BatchLoad` (the compiled set-oriented loader) of the same mapping
// and source -- followed by a batch of certain-answer queries over the
// exchanged target. The chase's match/fire and the segment probe/retain
// paths do most of the work, in few rounds; the loader on the same input is
// the yardstick for set-at-a-time cost; the queries read the store after a
// bulk write.
#include <malloc.h>

#include <algorithm>
#include <memory>

#include "algebra/eval.h"
#include "analysis/analysis.h"
#include "chase/chase.h"
#include "engine/engine.h"
#include "harness.h"
#include "inputs.h"
#include "rewrite/rewrite.h"
#include "runtime/runtime.h"
#include "text/query.h"
#include "text/sexpr.h"
#include "transgen/relational.h"

namespace mm2bench {
namespace {

using mm2::Status;
using mm2::instance::Instance;
using mm2::instance::Tuple;

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

class ExchangeBulk : public Workload {
 public:
  Status Setup(std::uint64_t seed) override {
    inputs_ = MakeBulkInputs(seed);
    engine_ = std::make_unique<mm2::engine::Engine>();
    const double start = NowUs();
    MM2_ASSIGN_OR_RETURN(mapping_,
                         mm2::text::ParseMapping(inputs_.mapping_text));
    MM2_ASSIGN_OR_RETURN(source_,
                         mm2::text::ParseInstance(inputs_.source_text));
    parse_us_ = NowUs() - start;
    MM2_RETURN_IF_ERROR(engine_->repo().PutMapping(mapping_));
    MM2_RETURN_IF_ERROR(engine_->repo().PutInstance("S", source_));
    answers_.clear();
    return Status::OK();
  }

  double ParsedBytes() const override {
    return static_cast<double>(inputs_.mapping_text.size() +
                               inputs_.source_text.size());
  }
  double ParseUs() const override { return parse_us_; }
  double BytesPerFact() const override { return bytes_per_fact_; }

  void Op(OpSink* sink) override {
    Tracer* tr = sink->tracer;
    Report* report = sink->report;
    const bool first = answers_.empty();
    Scope op(tr, "op.exchange_bulk");

    if (first) {
      malloc_trim(0);
      rss_before_ = ResidentBytes();
    }
    Scope exchange(tr, "engine.exchange", op.id());
    Status status = engine_->Exchange("T", "bulk", "S");
    const double exchange_us = exchange.Stop();
    report->Attempt(status.ok(), "exchange: " + status.ToString());
    const double rss_after = first ? ResidentBytes() : 0;

    Scope batch(tr, "engine.batchload", op.id());
    status = engine_->BatchLoad("L", "bulk", "S");
    const double batch_us = batch.Stop();
    report->Attempt(status.ok(), "batchload: " + status.ToString());

    Scope get(tr, "engine.get_instance", op.id());
    mm2::Result<Instance> target = engine_->repo().GetInstance("T");
    get.Stop();
    if (!target.ok()) {
      report->Attempt(false, "target: " + target.status().ToString());
      return;
    }
    if (first) {
      bytes_per_fact_ = (rss_after - rss_before_) /
                        static_cast<double>(target->TotalTuples());
    }

    std::vector<double> query_us;
    for (std::size_t i = 0; i < inputs_.queries.size(); ++i) {
      Scope parse(tr, "text.parse_query", op.id());
      auto query = mm2::text::ParseQuery(inputs_.queries[i]);
      double us = parse.Stop();
      if (!query.ok()) {
        if (first) answers_.push_back(0);
        report->Attempt(false, "query: " + query.status().ToString());
        continue;
      }
      Scope answer(tr, "chase.certain_answers", op.id());
      mm2::Result<std::vector<Tuple>> rows =
          mm2::chase::CertainAnswers(*query, *target);
      const double answer_us = answer.Stop();
      sink->read_us.Add(us + answer_us);
      query_us.push_back(answer_us);
      if (first) {
        answers_.push_back(rows.ok() ? rows->size() : 0);
        CheckAgainstRewriting(*query, rows, report);
      } else {
        report->Attempt(rows.ok() && rows->size() == answers_[i],
                        "query answers changed: " + inputs_.queries[i]);
      }
    }
    if (first) CheckLoaderAgrees(report);
    op.Stop();

    sink->op_ms.Add((exchange_us + batch_us) / 1000.0);
    sink->series["exchange_ms"].Add(exchange_us / 1000.0);
    sink->series["batchload_ms"].Add(batch_us / 1000.0);
    if (tr != nullptr) {
      for (double us : query_us) sink->series["chase.query_us"].Add(us);
      Decompose(sink, exchange.id(), exchange_us, batch.id(), *target);
    }
  }

  void Finish(Report* report) override { CheckLoaderAgrees(report); }

  Tails TailPercentiles() const override { return {75, 99}; }

  void LayerCounts(Report* report) const override {
    SetChaseCounts(counts_, report);
    report->Set("chase.query_rows_per_answer",
                counts_.Ratio("query.all_rows", "query.certain_rows"), "ratio");
  }

 private:
  // First pass only: every certain answer must equal the answer computed
  // through the mapping on the source (rewrite::AnswerOnSource).
  void CheckAgainstRewriting(const mm2::logic::ConjunctiveQuery& query,
                             const mm2::Result<std::vector<Tuple>>& rows,
                             Report* report) {
    auto expected = mm2::rewrite::AnswerOnSource(mapping_, query, source_);
    report->Attempt(rows.ok() && expected.ok() &&
                        Sorted(*rows) == Sorted(*expected),
                    "certain answers differ from the rewriting: " +
                        query.ToString());
  }

  // The chase and the compiled loader must agree on every relation that
  // holds no labeled nulls.
  void CheckLoaderAgrees(Report* report) {
    auto chased = engine_->repo().GetInstance("T");
    auto loaded = engine_->repo().GetInstance("L");
    for (const std::string& rel : BulkExistentialFreeRelations()) {
      const auto* left = chased.ok() ? chased->Find(rel) : nullptr;
      const auto* right = loaded.ok() ? loaded->Find(rel) : nullptr;
      const bool same = left != nullptr && right != nullptr &&
                        left->size() > 0 && left->tuples() == right->tuples();
      report->Attempt(same, "chase and loader differ on " + rel);
    }
  }

  // Traced phase: repeats the library calls Exchange and BatchLoad make,
  // on the same inputs, as children of their engine spans.
  void Decompose(OpSink* sink, int exchange_id, double exchange_us,
                 int batch_id, const Instance& target) {
    Tracer* tr = sink->tracer;
    auto& series = sink->series;
    double copy_us = 0;
    Instance source_copy;
    {
      Scope s(tr, "instance.copy", exchange_id);
      source_copy = source_;
      copy_us += s.Stop();
    }
    mm2::runtime::ExchangeOptions options;
    options.track_provenance = true;
    options.stratified = true;
    Scope open(tr, "runtime.begin_session", exchange_id);
    auto session = mm2::runtime::BeginExchangeSession(
        mapping_, std::move(source_copy), options);
    const double open_us = open.Stop();
    if (!session.ok()) return;

    mm2::chase::ChaseOptions chase_options;
    chase_options.track_provenance = true;
    chase_options.stratified = true;
    Scope run(tr, "chase.run", open.id());
    auto chased = mm2::chase::RunChase(mapping_, source_, chase_options);
    const double run_us = run.Stop();
    Scope analyze(tr, "analysis.analyze", run.id());
    mm2::analysis::MappingAnalysis analysis =
        mm2::analysis::AnalyzeMapping(mapping_);
    const double analyze_us = analyze.Stop();
    {
      Scope s(tr, "instance.copy", exchange_id);
      Instance copy = session->target;
      copy_us += s.Stop();
    }
    {
      Scope s(tr, "chase.provenance_copy", exchange_id);
      mm2::chase::Provenance copy = session->provenance;
    }
    if (chased.ok()) {
      AddChaseStats(chased->stats, run_us, chased->target.TotalTuples(),
                    &counts_);
    }
    series["engine.exchange_overhead_ms"].Add((exchange_us - open_us) / 1e3);
    series["instance.copy_ms"].Add(copy_us / 1e3);
    series["runtime.session_open_ms"].Add(open_us / 1e3);
    series["chase.run_ms"].Add(run_us / 1e3);
    series["analysis.analyze_us"].Add(analyze_us);

    {
      Scope s(tr, "instance.copy", batch_id);
      Instance copy = source_;
    }
    Scope compile(tr, "transgen.compile", batch_id);
    auto compiled = mm2::transgen::CompileRelationalMapping(mapping_);
    const double compile_us = compile.Stop();
    if (!compiled.ok()) return;
    Scope execute(tr, "transgen.execute", batch_id);
    auto loaded =
        mm2::transgen::ExecuteCompiledMapping(*compiled, mapping_, source_);
    const double execute_us = execute.Stop();
    Scope eval(tr, "algebra.eval", execute.id());
    auto catalog = mm2::algebra::Catalog::FromSchema(mapping_.source());
    for (const auto& [relation, plan] : compiled->loaders) {
      if (catalog.ok()) {
        auto table = mm2::algebra::Evaluate(*plan, *catalog, source_);
      }
    }
    const double eval_us = eval.Stop();
    series["transgen.compile_us"].Add(compile_us);
    series["transgen.execute_ms"].Add(execute_us / 1e3);
    series["algebra.eval_ms"].Add(eval_us / 1e3);

    // Possible (null-carrying) answers per certain answer, counted outside
    // any span.
    for (const std::string& text : inputs_.queries) {
      auto query = mm2::text::ParseQuery(text);
      if (!query.ok()) continue;
      auto all = mm2::chase::AllAnswers(*query, target);
      auto certain = mm2::chase::CertainAnswers(*query, target);
      if (all.ok() && certain.ok()) {
        counts_.Add("query.all_rows", static_cast<double>(all->size()));
        counts_.Add("query.certain_rows", static_cast<double>(certain->size()));
      }
    }
    counts_.EndOp();
  }

  BulkInputs inputs_;
  std::unique_ptr<mm2::engine::Engine> engine_;
  mm2::logic::Mapping mapping_;
  Instance source_;
  double parse_us_ = 0;
  double rss_before_ = 0;
  double bytes_per_fact_ = 0;
  std::vector<std::size_t> answers_;  // per query, from the first pass
  Counts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeExchangeBulk() {
  return std::make_unique<ExchangeBulk>();
}

}  // namespace mm2bench
