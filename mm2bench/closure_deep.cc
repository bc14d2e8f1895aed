// closure_deep: one operation is a `chase::ChaseInstance` fixpoint of
// transitive closure over a 256-edge chain (256 rounds, 32,896 facts),
// followed by reachability reads over the closure. Many rounds with small
// deltas: round-boundary seals and compactions, semi-naive deltas and
// batched retains dominate -- work exchange_bulk barely does. The engine has
// no closure command, so the benchmark calls the chase directly.
#include <malloc.h>

#include <memory>

#include "chase/chase.h"
#include "harness.h"
#include "inputs.h"
#include "text/query.h"
#include "text/sexpr.h"

namespace mm2bench {
namespace {

using mm2::Status;
using mm2::instance::Instance;
using mm2::instance::Tuple;

class ClosureDeep : public Workload {
 public:
  Status Setup(std::uint64_t seed) override {
    inputs_ = MakeClosureInputs(seed);
    tgds_.clear();
    const double start = NowUs();
    MM2_ASSIGN_OR_RETURN(chain_,
                         mm2::text::ParseInstance(inputs_.instance_text));
    for (const std::string& rule : inputs_.rules) {
      MM2_ASSIGN_OR_RETURN(mm2::logic::ConjunctiveQuery q,
                           mm2::text::ParseQuery(rule));
      tgds_.push_back(mm2::logic::Tgd{q.body, {q.head}});
    }
    parse_us_ = NowUs() - start;
    answers_.clear();
    return Status::OK();
  }

  double ParsedBytes() const override {
    double bytes = static_cast<double>(inputs_.instance_text.size());
    for (const std::string& rule : inputs_.rules) bytes += rule.size();
    return bytes;
  }
  double ParseUs() const override { return parse_us_; }
  double BytesPerFact() const override { return bytes_per_fact_; }

  void Op(OpSink* sink) override {
    Tracer* tr = sink->tracer;
    Report* report = sink->report;
    const bool first = answers_.empty();
    if (first) malloc_trim(0);
    const double rss_before = first ? ResidentBytes() : 0;

    Scope op(tr, "op.closure_deep");
    Scope chase(tr, "chase.chase_instance", op.id());
    auto result = mm2::chase::ChaseInstance(tgds_, {}, chain_);
    const double chase_us = chase.Stop();
    const std::size_t n = ClosureInputs::kClosureEdges;
    const auto* closure = result.ok() ? result->target.Find("T") : nullptr;
    report->Attempt(closure != nullptr && closure->size() == n * (n + 1) / 2,
                    "closure size: " + result.status().ToString());
    if (closure == nullptr) return;
    if (first) {
      bytes_per_fact_ = (ResidentBytes() - rss_before) /
                        static_cast<double>(closure->size());
    }

    for (std::size_t i = 0; i < inputs_.queries.size(); ++i) {
      Scope parse(tr, "text.parse_query", op.id());
      auto query = mm2::text::ParseQuery(inputs_.queries[i]);
      const double parse_us = parse.Stop();
      Scope answer(tr, "chase.certain_answers", op.id());
      mm2::Result<std::vector<Tuple>> rows =
          query.ok() ? mm2::chase::CertainAnswers(*query, result->target)
                     : mm2::Result<std::vector<Tuple>>(query.status());
      sink->read_us.Add(parse_us + answer.Stop());
      if (first) answers_.push_back(rows.ok() ? rows->size() : 0);
      report->Attempt(rows.ok() && rows->size() == answers_[i],
                      "reachability answers changed: " + inputs_.queries[i]);
    }
    op.Stop();

    sink->op_ms.Add(chase_us / 1e3);
    sink->series["closure_ms"].Add(chase_us / 1e3);
    if (tr != nullptr) {
      // ChaseInstance starts from a copy of its input; time that copy as
      // the instance layer's share of the fixpoint.
      Scope copy(tr, "instance.copy", chase.id());
      Instance input = chain_;
      copy.Stop();
      AddChaseStats(result->stats, chase_us, closure->size(), &counts_);
      counts_.EndOp();
    }
  }

  void Finish(Report*) override {}

  Tails TailPercentiles() const override { return {90, 99}; }

  void LayerCounts(Report* report) const override {
    SetChaseCounts(counts_, report);
  }

 private:
  ClosureInputs inputs_;
  Instance chain_;
  std::vector<mm2::logic::Tgd> tgds_;
  double parse_us_ = 0;
  double bytes_per_fact_ = 0;
  std::vector<std::size_t> answers_;  // per query, from the first pass
  Counts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeClosureDeep() {
  return std::make_unique<ClosureDeep>();
}

}  // namespace mm2bench
