// Tests for the obs profiler layer: histogram quantile estimates, span
// aggregation into phase costs, and per-constraint chase attribution.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "chase/chase.h"
#include "logic/formula.h"
#include "model/schema.h"
#include "obs/obs.h"
#include "obs/profile.h"

namespace mm2::obs {
namespace {

using chase::ChaseOptions;
using instance::Instance;
using instance::Value;
using logic::Atom;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using model::DataType;

Term V(const char* name) { return Term::Var(name); }

// -- histogram quantiles ----------------------------------------------------

TEST(HistogramQuantileTest, EmptyHistogramIsAllZero) {
  MetricsRegistry registry;
  registry.GetHistogram("h", {1, 10, 100});
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* h = snap.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->p50(), 0);
  EXPECT_EQ(h->p95(), 0);
  EXPECT_EQ(h->p99(), 0);
  EXPECT_EQ(h->mean(), 0);
}

TEST(HistogramQuantileTest, SingleSampleEveryQuantileIsTheSample) {
  MetricsRegistry registry;
  registry.GetHistogram("h", {1, 10, 100}).Record(42);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* h = snap.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  // Clamped to the observed extrema: one sample pins min == max == 42.
  EXPECT_EQ(h->p50(), 42);
  EXPECT_EQ(h->p95(), 42);
  EXPECT_EQ(h->p99(), 42);
}

TEST(HistogramQuantileTest, AllSamplesInOneBucketStayWithinExtrema) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("h", {1000});
  for (int i = 0; i < 100; ++i) hist.Record(500 + i);  // all in bucket <=1000
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* h = snap.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->p50(), 500);
  EXPECT_LE(h->p50(), 599);
  EXPECT_GE(h->p99(), h->p50());
  EXPECT_LE(h->p99(), 599);
  EXPECT_LE(h->p95(), h->p99());
}

TEST(HistogramQuantileTest, QuantilesAreMonotoneAcrossBuckets) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("h", {10, 100, 1000});
  for (int i = 0; i < 50; ++i) hist.Record(5);
  for (int i = 0; i < 45; ++i) hist.Record(50);
  for (int i = 0; i < 5; ++i) hist.Record(500);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* h = snap.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_LE(h->p50(), h->p95());
  EXPECT_LE(h->p95(), h->p99());
  EXPECT_LE(h->p99(), h->max);
  EXPECT_LE(h->p50(), 10);    // median within the first bucket
  EXPECT_GT(h->p95(), 10);    // p95 beyond it
}

// -- deterministic stats output ---------------------------------------------

TEST(MetricsSnapshotTest, LinesAreSortedByNameWithinEachKind) {
  MetricsRegistry registry;
  registry.GetCounter("zeta").Increment();
  registry.GetCounter("alpha").Increment();
  registry.GetGauge("mid").Set(1);
  registry.GetHistogram("h2", {1}).Record(1);
  registry.GetHistogram("h1", {1}).Record(1);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "h1");
  // Identical registries must print identically (golden-output stability).
  EXPECT_EQ(snap.ToString(), registry.Snapshot().ToString());
  EXPECT_NE(snap.ToString().find("p95="), std::string::npos);
}

// -- span aggregation (phases) ----------------------------------------------

TEST(ProfilerTest, AggregatesNestedSpansIntoSelfTime) {
  Context ctx;
  ctx.tracer.Enable();
  {
    ObsSpan outer(&ctx, "outer");
    {
      ObsSpan inner(&ctx, "inner");
    }
    {
      ObsSpan inner(&ctx, "inner");
    }
  }
  ProfileReport report = Profiler::Build(ctx);
  ASSERT_EQ(report.phases.size(), 2u);
  const PhaseCost* outer = nullptr;
  const PhaseCost* inner = nullptr;
  for (const PhaseCost& p : report.phases) {
    if (p.name == "outer") outer = &p;
    if (p.name == "inner") inner = &p;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 2u);
  // outer's self time excludes the two inner spans.
  EXPECT_LE(outer->self_us, outer->total_us);
  EXPECT_GE(outer->total_us, inner->total_us);
  EXPECT_GE(inner->self_us, 0);
  double share_sum = 0;
  for (const PhaseCost& p : report.phases) share_sum += p.share;
  if (report.phase_total_us > 0) {
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
  }
}

TEST(ProfilerTest, AggregatesSpansFromMultipleThreads) {
  Context ctx;
  ctx.tracer.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ObsSpan outer(&ctx, "worker");
        ObsSpan inner(&ctx, "step");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ProfileReport report = Profiler::Build(ctx);
  ASSERT_EQ(report.phases.size(), 2u);
  for (const PhaseCost& p : report.phases) {
    EXPECT_EQ(p.count, static_cast<std::uint64_t>(kThreads) * kSpansPerThread)
        << p.name;
  }
}

TEST(ProfilerTest, EmptyContextYieldsEmptyReportAndValidText) {
  Context ctx;
  ProfileReport report = Profiler::Build(ctx);
  EXPECT_TRUE(report.operators.empty());
  EXPECT_TRUE(report.rules.empty());
  EXPECT_TRUE(report.phases.empty());
  EXPECT_EQ(report.DominantRule(), nullptr);
  EXPECT_NE(report.ToString().find("no chase recorded"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"rules\": []"), std::string::npos);
}

// -- per-constraint chase attribution ---------------------------------------

// Two tgds over one source: a cheap copy rule and a quadratic self-join
// rule. The join rule must dominate the attribution.
chase::ChaseOptions WithObs(Context* ctx) {
  ChaseOptions options;
  options.obs = ctx;
  return options;
}

TEST(ProfilerTest, ChaseRuleAttributionNamesTheDominantTgd) {
  model::Schema src =
      model::SchemaBuilder("S", model::Metamodel::kRelational)
          .Relation("R", {{"A", DataType::Int64()}, {"B", DataType::Int64()}},
                    {"A"})
          .Build();
  model::Schema tgt =
      model::SchemaBuilder("T", model::Metamodel::kRelational)
          .Relation("Copy", {{"A", DataType::Int64()},
                             {"B", DataType::Int64()}},
                    {"A"})
          .Relation("Join", {{"A", DataType::Int64()},
                             {"B", DataType::Int64()}},
                    {"A"})
          .Build();
  Tgd copy;
  copy.body = {Atom{"R", {V("x"), V("y")}}};
  copy.head = {Atom{"Copy", {V("x"), V("y")}}};
  Tgd join;  // R(x,y) & R(z,w) -> Join(x,w): quadratic trigger count
  join.body = {Atom{"R", {V("x"), V("y")}}, Atom{"R", {V("z"), V("w")}}};
  join.head = {Atom{"Join", {V("x"), V("w")}}};
  Mapping mapping = Mapping::FromTgds("m", src, tgt, {copy, join});

  Instance db;
  db.DeclareRelation("R", 2);
  for (int i = 0; i < 60; ++i) {
    db.InsertUnchecked("R", {Value::Int64(i), Value::Int64(i + 1)});
  }

  Context ctx;
  auto result = chase::RunChase(mapping, db, WithObs(&ctx));
  ASSERT_TRUE(result.ok()) << result.status();

  // The raw stats carry one slot per rule with round distributions.
  ASSERT_EQ(result->stats.rules.size(), 2u);
  const chase::RuleStats& copy_stats = result->stats.rules[0];
  const chase::RuleStats& join_stats = result->stats.rules[1];
  EXPECT_EQ(copy_stats.label, "tgd0:R->Copy");
  EXPECT_EQ(join_stats.label, "tgd1:R+R->Join");
  EXPECT_EQ(copy_stats.firings, 60u);
  EXPECT_EQ(join_stats.firings, 3600u);  // 60x60 cross product
  EXPECT_EQ(copy_stats.nulls_created, 0u);
  // Per-round distribution: one timing sample per round per rule.
  EXPECT_EQ(copy_stats.round_us.size(), result->stats.rounds);
  EXPECT_EQ(join_stats.round_us.size(), result->stats.rounds);
  // The join rule tests quadratically more triggers than the copy rule.
  EXPECT_GT(join_stats.triggers_tested, copy_stats.triggers_tested);

  // The profiler reads the mirrored metrics back into a ranked table.
  ProfileReport report = Profiler::Build(ctx);
  ASSERT_EQ(report.rules.size(), 2u);
  const RuleCost* dominant = report.DominantRule();
  ASSERT_NE(dominant, nullptr);
  EXPECT_EQ(dominant->label, "tgd1:R+R->Join");
  EXPECT_EQ(dominant->kind, "tgd");
  EXPECT_GT(dominant->share, 0.5);
  EXPECT_EQ(dominant->firings, 3600u);
  EXPECT_GT(dominant->rounds, 0u);
  double share_sum = 0;
  for (const RuleCost& rule : report.rules) share_sum += rule.share;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);

  std::string text = report.ToString();
  EXPECT_NE(text.find("dominant rule: tgd1:R+R->Join"), std::string::npos);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"label\": \"tgd1:R+R->Join\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"tgd\""), std::string::npos);
}

TEST(ProfilerTest, EgdRulesAreAttributedAndLabeled) {
  // Close {R(1,a), R(1,b)} under key A -> B: one egd unification.
  logic::Egd key;
  key.body = {Atom{"R", {V("x"), V("y")}}, Atom{"R", {V("x"), V("z")}}};
  key.left = "y";
  key.right = "z";
  Instance db;
  db.DeclareRelation("R", 2);
  db.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(0)});
  db.InsertUnchecked("R", {Value::Int64(1), Value::Int64(7)});

  Context ctx;
  auto result = chase::ChaseInstance({}, {key}, db, WithObs(&ctx));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->stats.rules.size(), 1u);
  EXPECT_EQ(result->stats.rules[0].label, "egd0:R+R:y=z");
  EXPECT_EQ(result->stats.rules[0].unifications, 1u);
  EXPECT_EQ(result->stats.rules[0].firings, 1u);

  ProfileReport report = Profiler::Build(ctx);
  ASSERT_EQ(report.rules.size(), 1u);
  EXPECT_EQ(report.rules[0].kind, "egd");
}

// Minimal structural JSON check shared with the tracer tests' approach.
bool JsonWellFormed(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(ProfilerTest, JsonReportIsWellFormed) {
  Context ctx;
  ctx.tracer.Enable();
  {
    ObsSpan span(&ctx, "op.exchange");
  }
  ctx.metrics.GetCounter("op.exchange.calls").Increment();
  ctx.metrics.GetHistogram("op.exchange.latency_us").Record(12.5);
  ctx.metrics.GetCounter("chase.rule.tgd0:R->T.wall_us").Increment(100);
  ctx.metrics.GetCounter("chase.rule.tgd0:R->T.firings").Increment(3);
  std::string json = Profiler::Build(ctx).ToJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"operators\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"exchange\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"tgd0:R->T\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\": ["), std::string::npos);
}

}  // namespace
}  // namespace mm2::obs
