// maintain_stream: one session, opened once with `Engine::Exchange` during
// set-up, then a long closed-loop stream of writes. Each write is a rolling
// 1% source delta sent as `apply` literals (`Engine::ApplyDeltaFact`)
// followed by `Engine::Maintain`; after each write three `why` reads ask
// about a fact the write just derived, an older fact, and a fact the write
// deleted. Engine bookkeeping, DRed witness pruning, delta-sized resumed
// chases, tombstones and deferred rebuilds do the work; the chase's initial
// match does none. The stream is long so drift and rebuild spikes reach the
// tail.
#include <malloc.h>

#include <memory>

#include "chase/chase.h"
#include "engine/engine.h"
#include "harness.h"
#include "inputs.h"
#include "runtime/runtime.h"
#include "text/sexpr.h"

namespace mm2bench {
namespace {

using mm2::Status;
using mm2::chase::Fact;
using mm2::instance::Instance;
using mm2::instance::Value;

// Untimed differential check cadence, in writes.
constexpr std::size_t kCheckEvery = 100;

struct Read {
  std::string literal;  // "T0(5, 17)"
  Fact fact;
  enum class Expect { kWitness, kNoWitness, kAny } expect = Expect::kAny;
};

Read IntRead(const std::string& rel, std::int64_t x, std::int64_t y,
             Read::Expect expect) {
  return Read{rel + "(" + std::to_string(x) + ", " + std::to_string(y) + ")",
              Fact{rel, {Value::Int64(x), Value::Int64(y)}}, expect};
}

class MaintainStream : public Workload {
 public:
  Status Setup(std::uint64_t seed) override {
    stream_ = std::make_unique<DeltaStream>(seed);
    engine_ = std::make_unique<mm2::engine::Engine>();
    twin_.reset();
    writes_ = 0;
    const std::string mapping_text = stream_->MappingText();
    const std::string source_text = stream_->SourceText();
    const double start = NowUs();
    MM2_ASSIGN_OR_RETURN(mapping_, mm2::text::ParseMapping(mapping_text));
    MM2_ASSIGN_OR_RETURN(Instance source,
                         mm2::text::ParseInstance(source_text));
    parse_us_ = NowUs() - start;
    parsed_bytes_ =
        static_cast<double>(mapping_text.size() + source_text.size());
    MM2_RETURN_IF_ERROR(engine_->repo().PutMapping(mapping_));
    // A second name for the same mapping: the fresh exchange of the output
    // check runs through it, so it never replaces the maintained session.
    mm2::logic::Mapping check = mapping_;
    check.set_name("stream_check");
    MM2_RETURN_IF_ERROR(engine_->repo().PutMapping(std::move(check)));
    MM2_RETURN_IF_ERROR(engine_->repo().PutInstance("S", std::move(source)));

    malloc_trim(0);
    const double rss_before = ResidentBytes();
    MM2_RETURN_IF_ERROR(engine_->Exchange("T", "stream", "S"));
    const double rss_after = ResidentBytes();
    MM2_ASSIGN_OR_RETURN(Instance target, engine_->repo().GetInstance("T"));
    if (bytes_per_fact_ == 0) {
      bytes_per_fact_ = (rss_after - rss_before) /
                        static_cast<double>(target.TotalTuples());
    }
    hot_.clear();
    for (const auto& tuple : target.Find("T2")->tuples()) {
      hot_.push_back(Read{"T2(" + tuple[0].ToString() + ", " +
                              tuple[1].ToString() + ")",
                          Fact{"T2", tuple}, Read::Expect::kAny});
    }
    return Status::OK();
  }

  double ParsedBytes() const override { return parsed_bytes_; }
  double ParseUs() const override { return parse_us_; }
  double BytesPerFact() const override { return bytes_per_fact_; }

  void Op(OpSink* sink) override {
    Tracer* tr = sink->tracer;
    Report* report = sink->report;
    if (writes_ > 0 && writes_ % kCheckEvery == 0) CheckFresh(report);
    ++writes_;
    const DeltaStream::Write w = stream_->Next();
    const std::int64_t fresh = w.inserted.back();
    const std::int64_t gone = w.deleted.front();
    std::vector<Read> reads = {
        IntRead("T0", fresh, stream_->A(fresh), Read::Expect::kWitness)};
    if (writes_ % 2 == 0) {
      const std::int64_t old = stream_->RandomLiveKey();
      reads.push_back(IntRead("T1", stream_->A(old), stream_->B(old),
                              Read::Expect::kWitness));
    } else if (!hot_.empty()) {
      reads.push_back(hot_[stream_->Pick(hot_.size())]);
    }
    reads.push_back(
        IntRead("T0", gone, stream_->A(gone), Read::Expect::kNoWitness));

    Scope op(tr, "op.maintain_stream");
    Scope apply(tr, "engine.apply", op.id());
    bool applied = true;
    for (const std::string& literal : w.literals) {
      applied = engine_->ApplyDeltaFact(literal).ok() && applied;
    }
    const double apply_us = apply.Stop();
    Scope maintain(tr, "engine.maintain", op.id());
    mm2::Result<mm2::runtime::Delta> delta = engine_->Maintain("stream");
    const double maintain_us = maintain.Stop();
    report->Attempt(applied && delta.ok(),
                    "maintain: " + delta.status().ToString());

    std::vector<int> why_ids;
    for (const Read& read : reads) {
      Scope why(tr, "engine.why", op.id());
      auto lines = engine_->RunScript("why " + read.literal);
      const double why_us = why.Stop();
      why_ids.push_back(why.id());
      sink->read_us.Add(why_us);
      sink->series["why_us"].Add(why_us);
      const bool has_witness =
          lines.ok() && !lines->empty() &&
          lines->front().find("because") != std::string::npos;
      report->Attempt(
          lines.ok() &&
              (read.expect == Read::Expect::kAny ||
               has_witness == (read.expect == Read::Expect::kWitness)),
          "why " + read.literal);
    }
    op.Stop();

    const double write_us = apply_us + maintain_us;
    sink->op_ms.Add(write_us / 1e3);
    sink->series["maintain_us"].Add(write_us);
    if (tr != nullptr) {
      Decompose(sink, w, maintain.id(), maintain_us, apply_us, reads,
                why_ids);
    }
  }

  void Finish(Report* report) override { CheckFresh(report); }

  Tails TailPercentiles() const override { return {95, 95}; }

  void LayerCounts(Report* report) const override {
    SetChaseCounts(counts_, report);
    report->Set("runtime.fallbacks", counts_.PerOp("runtime.fallbacks"),
                "count");
    report->Set("runtime.target_delta_rows",
                counts_.PerOp("runtime.target_delta_rows"), "count");
    report->Set("runtime.provenance_facts",
                counts_.PerOp("runtime.provenance_facts"), "count");
  }

 private:
  // The maintained target must equal (up to null renaming) a fresh
  // exchange of the current source.
  void CheckFresh(Report* report) {
    Status status = [&]() -> Status {
      MM2_ASSIGN_OR_RETURN(Instance current,
                           mm2::text::ParseInstance(stream_->SourceText()));
      MM2_RETURN_IF_ERROR(
          engine_->repo().PutInstance("Scur", std::move(current)));
      MM2_RETURN_IF_ERROR(engine_->Exchange("Fresh", "stream_check", "Scur"));
      MM2_ASSIGN_OR_RETURN(std::string verdict, engine_->EqCheck("T", "Fresh"));
      if (verdict != "equal" && verdict != "equal-up-to-nulls") {
        return Status::Internal("maintained target is " + verdict);
      }
      return Status::OK();
    }();
    report->Attempt(status.ok(), "fresh-exchange check after " +
                                     std::to_string(writes_) +
                                     " writes: " + status.ToString());
  }

  // Traced phase: a twin runtime session, opened on the source as it stood
  // when tracing began and given the same deltas, times what Maintain
  // delegates; the engine span's self time is Maintain's own bookkeeping.
  void Decompose(OpSink* sink, const DeltaStream::Write& w, int maintain_id,
                 double maintain_us, double apply_us,
                 const std::vector<Read>& reads,
                 const std::vector<int>& why_ids) {
    Tracer* tr = sink->tracer;
    auto& series = sink->series;
    auto r_row = [this](std::int64_t k) {
      return mm2::instance::Tuple{Value::Int64(k), Value::Int64(stream_->A(k))};
    };
    auto s_row = [this](std::int64_t k) {
      return mm2::instance::Tuple{Value::Int64(k), Value::Int64(stream_->B(k))};
    };
    if (twin_ == nullptr) {
      // The twin must not see this write yet: open it on the source before
      // the write, then apply the write like the engine did.
      auto source = mm2::text::ParseInstance(stream_->SourceText());
      if (!source.ok()) return;
      for (std::int64_t k : w.inserted) {
        (void)source->Erase("R", r_row(k));
        (void)source->Erase("S", s_row(k));
      }
      for (std::int64_t k : w.deleted) {
        (void)source->Insert("R", r_row(k));
        (void)source->Insert("S", s_row(k));
      }
      mm2::runtime::ExchangeOptions options;  // as Engine::Exchange sets them
      options.track_provenance = true;
      options.stratified = true;
      auto session = mm2::runtime::BeginExchangeSession(
          mapping_, std::move(*source), options);
      if (!session.ok()) return;
      twin_ = std::make_unique<mm2::runtime::ExchangeSession>(
          std::move(*session));
    }
    mm2::runtime::Delta delta;
    for (Instance* side : {&delta.inserts, &delta.deletes}) {
      side->DeclareRelation("R", 2);
      side->DeclareRelation("S", 2);
    }
    for (std::int64_t k : w.inserted) {
      delta.inserts.InsertUnchecked("R", r_row(k));
      delta.inserts.InsertUnchecked("S", s_row(k));
    }
    for (std::int64_t k : w.deleted) {
      delta.deletes.InsertUnchecked("R", r_row(k));
      delta.deletes.InsertUnchecked("S", s_row(k));
    }
    const std::size_t fallbacks_before = twin_->fallbacks;
    Scope run(tr, "runtime.maintain", maintain_id);
    auto target_delta = mm2::runtime::MaintainExchange(*twin_, delta);
    const double runtime_us = run.Stop();
    double copy_us = 0;
    {
      Scope s(tr, "instance.copy", maintain_id);
      Instance copy = twin_->target;
      copy_us = s.Stop();
    }
    {
      Scope s(tr, "chase.provenance_copy", maintain_id);
      mm2::chase::Provenance copy = twin_->provenance;
    }
    series["runtime.maintain_us"].Add(runtime_us);
    series["engine.maintain_overhead_us"].Add(maintain_us - runtime_us);
    series["engine.apply_us"].Add(apply_us);
    series["instance.copy_us"].Add(copy_us);

    // why: the twin's provenance is lent to a ChaseResult (a move, not a
    // copy) so runtime::ExplainFact reads the same derivations.
    mm2::chase::ChaseResult lent;
    lent.provenance = std::move(twin_->provenance);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      Scope s(tr, "runtime.explain_fact", why_ids[i]);
      std::string text = mm2::runtime::ExplainFact(lent, reads[i].fact);
      std::vector<Fact> lineage = mm2::runtime::Lineage(lent, reads[i].fact);
      series["runtime.explain_fact_us"].Add(s.Stop());
    }
    twin_->provenance = std::move(lent.provenance);

    AddChaseStats(twin_->last_stats, runtime_us, twin_->target.TotalTuples(),
                  &counts_);
    counts_.Add("runtime.fallbacks",
                static_cast<double>(twin_->fallbacks - fallbacks_before));
    if (target_delta.ok()) {
      counts_.Add("runtime.target_delta_rows",
                  static_cast<double>(target_delta->Size()));
    }
    counts_.Add("runtime.provenance_facts",
                static_cast<double>(twin_->provenance.size()));
    counts_.EndOp();
  }

  std::unique_ptr<DeltaStream> stream_;
  std::unique_ptr<mm2::engine::Engine> engine_;
  std::unique_ptr<mm2::runtime::ExchangeSession> twin_;
  mm2::logic::Mapping mapping_;
  std::vector<Read> hot_;  // why reads over the hot existential facts
  std::size_t writes_ = 0;
  double parse_us_ = 0;
  double parsed_bytes_ = 0;
  double bytes_per_fact_ = 0;
  Counts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeMaintainStream() {
  return std::make_unique<MaintainStream>();
}

}  // namespace mm2bench
