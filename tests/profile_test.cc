// Tests for the obs profiler layer: histogram quantile estimates, span
// aggregation into phase costs, and per-constraint chase attribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
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

// A rule's wall time is the exact sum of its rounds, so sub-microsecond
// rounds add up instead of each rounding to 0 or 1 us.
TEST(ProfilerTest, RuleWallTimeIsTheSumOfItsRounds) {
  MetricsRegistry registry;
  Histogram& rounds = registry.GetHistogram("chase.rule.tgd0:R->T.round_us");
  for (int i = 0; i < 10; ++i) rounds.Record(0.3);
  ProfileReport sampled = Profiler::Build(registry.Snapshot(), {});
  ASSERT_EQ(sampled.rules.size(), 1u);
  EXPECT_NEAR(sampled.rules[0].wall_us, 3.0, 1e-9);

  // E(x,y) -> T(x,y) and T(x,y) & E(y,z) -> T(x,z): two rules whose rounds
  // are mostly sub-microsecond on a five-edge chain.
  Tgd base;
  base.body = {Atom{"E", {V("x"), V("y")}}};
  base.head = {Atom{"T", {V("x"), V("y")}}};
  Tgd step;
  step.body = {Atom{"T", {V("x"), V("y")}}, Atom{"E", {V("y"), V("z")}}};
  step.head = {Atom{"T", {V("x"), V("z")}}};
  Instance db;
  db.DeclareRelation("E", 2);
  db.DeclareRelation("T", 2);
  for (int i = 0; i < 5; ++i) {
    db.InsertUnchecked("E", {Value::Int64(i), Value::Int64(i + 1)});
  }
  Context ctx;
  std::vector<double> expected(2, 0.0);
  for (int run = 0; run < 200; ++run) {
    auto result = chase::ChaseInstance({base, step}, {}, db, WithObs(&ctx));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->stats.rules.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      expected[i] += result->stats.rules[i].wall_us;
    }
  }
  ProfileReport report = Profiler::Build(ctx);
  ASSERT_EQ(report.rules.size(), 2u);
  for (const RuleCost& rule : report.rules) {
    const double want = rule.label == "tgd0:E->T" ? expected[0] : expected[1];
    EXPECT_NEAR(rule.wall_us, want, want * 1e-9) << rule.label;
  }
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
  ctx.metrics.GetCounter("chase.rule.tgd0:R->T.firings").Increment(3);
  std::string json = Profiler::Build(ctx).ToJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"operators\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"exchange\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"tgd0:R->T\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\": ["), std::string::npos);
}

// -- golden bytes -----------------------------------------------------------

// Three fixed inputs whose full text and JSON reports were recorded from the
// profiler as it stood before its sections became one row table. Each rule
// gets integer round_us samples plus a wall_us counter equal to their sum,
// the form MirrorStats published then, so a profiler that reads either one
// prints the same bytes.

void Rule(MetricsRegistry& m, const std::string& label,
          const std::vector<double>& rounds, std::uint64_t triggers,
          std::uint64_t firings, std::uint64_t nulls,
          std::uint64_t rounds_active) {
  const std::string prefix = "chase.rule." + label + ".";
  double wall_us = 0;
  Histogram& hist = m.GetHistogram(prefix + "round_us");
  for (double us : rounds) {
    hist.Record(us);
    wall_us += us;
  }
  m.GetCounter(prefix + "wall_us")
      .Increment(static_cast<std::uint64_t>(wall_us));
  m.GetCounter(prefix + "triggers").Increment(triggers);
  m.GetCounter(prefix + "firings").Increment(firings);
  m.GetCounter(prefix + "nulls").Increment(nulls);
  m.GetCounter(prefix + "rounds_active").Increment(rounds_active);
}

void Operator(MetricsRegistry& m, const std::string& name,
              std::uint64_t errors, const std::vector<double>& latencies_us) {
  m.GetCounter("op." + name + ".calls").Increment(latencies_us.size());
  if (errors != 0) m.GetCounter("op." + name + ".errors").Increment(errors);
  Histogram& hist = m.GetHistogram("op." + name + ".latency_us");
  for (double us : latencies_us) hist.Record(us);
}

SpanRecord Span(std::uint64_t id, std::uint64_t parent_id, const char* name,
                std::int64_t duration_us) {
  SpanRecord span;
  span.id = id;
  span.parent_id = parent_id;
  span.name = name;
  span.duration_us = duration_us;
  return span;
}

// Every family and branch: two operators (one with errors), a tgd, an egd
// and an SO rule (whose label holds a dot), non-terminating foresight at the
// saturated bound with an armed budget, storage with its run block, values,
// incremental with maintains and provenance, and nested spans.
ProfileReport FullReport() {
  MetricsRegistry m;
  Operator(m, "exchange", 1, {900, 1500, 2600});
  Operator(m, "compose", 0, {120, 80});
  Rule(m, "tgd0:Names->NamesP", {40, 25, 5}, 12, 9, 0, 2);
  Rule(m, "egd0:R+R:y=z", {3, 4}, 4, 1, 0, 1);
  Rule(m, "so0:S.Names->T.Names", {200, 110, 30}, 40, 33, 11, 3);
  m.GetGauge("chase.foresight.predicted_rounds")
      .Set(std::numeric_limits<std::int64_t>::max());
  m.GetGauge("chase.foresight.observed_rounds").Set(5);
  m.GetGauge("chase.foresight.terminating").Set(0);
  m.GetCounter("chase.foresight.armed").Increment();
  m.GetCounter("index.probes").Increment(40);
  m.GetCounter("index.probe_hits").Increment(130);
  m.GetCounter("index.builds").Increment(3);
  m.GetCounter("chase.delta.tuples").Increment(77);
  m.GetCounter("chase.delta.rule_skips").Increment(6);
  m.GetCounter("storage.segment.seals").Increment(2);
  m.GetCounter("storage.segment.sealed_rows").Increment(50);
  m.GetCounter("storage.segment.compares").Increment(300);
  m.GetCounter("storage.segment.probes").Increment(25);
  m.GetCounter("storage.segment.probe_hits").Increment(60);
  m.GetCounter("storage.segment.skips").Increment(4);
  m.GetGauge("storage.segment.live_segments").Set(2);
  m.GetGauge("value.bytes_per_value").Set(16);
  m.GetGauge("value.intern.strings").Set(10);
  m.GetGauge("value.intern.bytes").Set(80);
  m.GetGauge("value.intern.hits").Set(30);
  m.GetGauge("value.intern.misses").Set(10);
  m.GetCounter("chase.incremental.maintains").Increment(4);
  m.GetCounter("chase.incremental.fallbacks").Increment(1);
  m.GetCounter("chase.incremental.dred_candidates").Increment(9);
  m.GetCounter("chase.incremental.dred_kept").Increment(3);
  m.GetCounter("chase.incremental.source_inserts").Increment(8);
  m.GetCounter("chase.incremental.source_deletes").Increment(2);
  m.GetCounter("chase.incremental.target_inserts").Increment(12);
  m.GetCounter("chase.incremental.target_deletes").Increment(5);
  m.GetCounter("chase.incremental.latency_us").Increment(1000);
  m.GetGauge("chase.provenance.facts").Set(20);
  m.GetGauge("chase.provenance.witnesses").Set(26);
  m.GetGauge("chase.provenance.support_edges").Set(31);
  m.GetGauge("chase.provenance.bytes").Set(4096);
  std::vector<SpanRecord> spans = {
      Span(1, 0, "op.exchange", 500), Span(2, 1, "chase.run", 300),
      Span(3, 2, "chase.round", 100), Span(4, 2, "chase.round", 120),
      Span(5, 0, "op.compose", 50)};
  return Profiler::Build(m.Snapshot(), spans);
}

// The partial branches: storage without a run block, values hidden (only
// the bytes-per-value gauge), provenance-only incremental, terminating
// foresight, no rules and no spans.
ProfileReport PartialReport() {
  MetricsRegistry m;
  Operator(m, "match", 0, {42});
  m.GetGauge("chase.foresight.predicted_rounds").Set(3);
  m.GetGauge("chase.foresight.observed_rounds").Set(2);
  m.GetGauge("chase.foresight.terminating").Set(1);
  m.GetCounter("index.probes").Increment(5);
  m.GetCounter("index.probe_hits").Increment(7);
  m.GetCounter("chase.delta.rule_skips").Increment(1);
  m.GetGauge("value.bytes_per_value").Set(16);
  m.GetGauge("chase.provenance.facts").Set(3);
  m.GetGauge("chase.provenance.witnesses").Set(4);
  m.GetGauge("chase.provenance.support_edges").Set(5);
  m.GetGauge("chase.provenance.bytes").Set(512);
  return Profiler::Build(m.Snapshot(), {});
}

const char kGoldenEmptyText[] = R"txt(operators (0.0us total):
  (no operator calls recorded)
chase rules (0.0us total):
  (no chase recorded)
storage:
  (no index activity recorded)
phases (0us self-time total):
  (no spans; run under `trace` to collect phases)
)txt";

const char kGoldenEmptyJson[] =
    R"({"operators": [], "rules": [], "foresight": {"analyzed": false, )"
    R"("terminating": false, "armed": false, "predicted_rounds": 0, )"
    R"("observed_rounds": 0}, "phases": [], "storage": {"index_probes": 0, )"
    R"("index_probe_hits": 0, "index_builds": 0, "delta_tuples": 0, )"
    R"("delta_rule_skips": 0}, "values": {"value_bytes": 0, )"
    R"("interned_strings": 0, "interned_bytes": 0, "intern_hits": 0, )"
    R"("intern_misses": 0}, "incremental": {"maintains": 0, "fallbacks": 0, )"
    R"("dred_candidates": 0, "dred_kept": 0, "source_inserts": 0, )"
    R"("source_deletes": 0, "target_inserts": 0, "target_deletes": 0, )"
    R"("latency_us": 0, "provenance_facts": 0, "provenance_witnesses": 0, )"
    R"("provenance_support_edges": 0, "provenance_bytes": 0}, )"
    R"("totals": {"operator_total_us": 0, "rule_total_us": 0, )"
    R"("phase_total_us": 0}})";

const char kGoldenFullText[] = R"txt(operators (5200.0us total):
  operator  calls  errs  total_us  share  p50_us  p95_us  p99_us  max_us
  exchange      3     1    5000.0  96.2%  1500.0  2600.0  2600.0  2600.0
  compose       2     0     200.0   3.8%   100.0   120.0   120.0   120.0
chase rules (417.0us total):
  rule                  kind    wall_us  share  triggers  firings  nulls  rounds  rnd_p50  rnd_p95  rnd_max
  so0:S.Names->T.Names  so_tgd    340.0  81.5%        40       33     11       3    125.0    192.5    200.0
  tgd0:Names->NamesP    tgd        70.0  16.8%        12        9      0       3     27.5     40.0     40.0
  egd0:R+R:y=z          egd         7.0   1.7%         4        1      0       2      3.5      4.0      4.0
dominant rule: so0:S.Names->T.Names (81.5% of chase rule wall time)
foresight:
  termination               potentially non-terminating
  predicted rounds (bound)                    unbounded
  observed rounds                                     5
  budget auto-armed                                 yes
storage:
  index.probes             40
  index.probe_hits        130
  index.builds              3
  chase.delta.tuples       77
  chase.delta.rule_skips    6
  tuples/probe            3.2
  segment.seals             2
  segment.sealed_rows      50
  segment.compares        300
  segment.probes           25
  segment.probe_hits       60
  segment.skips             4
  segment.live_segments     2
values:
  bytes/value         16
  intern.strings      10
  intern.bytes        80
  intern.hits         30
  intern.misses       10
  intern hit rate  75.0%
incremental:
  maintains                      4
  fallbacks                      1
  dred.candidates                9
  dred.kept                      3
  source +/-                 8 / 2
  target +/-                12 / 5
  latency_us                  1000
  us/maintain                250.0
  provenance.facts              20
  provenance.witnesses          26
  provenance.support_edges      31
  provenance.bytes            4096
phases (550us self-time total):
  span         count  total_us  self_us  share  max_us
  chase.round      2       220      220  40.0%     120
  op.exchange      1       500      200  36.4%     500
  chase.run        1       300       80  14.5%     300
  op.compose       1        50       50   9.1%      50
)txt";

const char kGoldenFullJson[] =
    R"({"operators": [{"name": "exchange", "calls": 3, "errors": 1, )"
    R"("total_us": 5000, "share": 0.961538, "p50_us": 1500, "p95_us": 2600, )"
    R"("p99_us": 2600, "max_us": 2600}, {"name": "compose", "calls": 2, )"
    R"("errors": 0, "total_us": 200, "share": 0.0384615, "p50_us": 100, )"
    R"("p95_us": 120, "p99_us": 120, "max_us": 120}], )"
    R"("rules": [{"label": "so0:S.Names->T.Names", "kind": "so_tgd", )"
    R"("wall_us": 340, "share": 0.815348, "triggers_tested": 40, )"
    R"("firings": 33, "nulls_created": 11, "rounds_active": 3, "rounds": 3, )"
    R"("round_p50_us": 125, "round_p95_us": 192.5, "round_max_us": 200}, )"
    R"({"label": "tgd0:Names->NamesP", "kind": "tgd", "wall_us": 70, )"
    R"("share": 0.167866, "triggers_tested": 12, "firings": 9, )"
    R"("nulls_created": 0, "rounds_active": 2, "rounds": 3, )"
    R"("round_p50_us": 27.5, "round_p95_us": 40, "round_max_us": 40}, )"
    R"({"label": "egd0:R+R:y=z", "kind": "egd", "wall_us": 7, )"
    R"("share": 0.0167866, "triggers_tested": 4, "firings": 1, )"
    R"("nulls_created": 0, "rounds_active": 1, "rounds": 2, )"
    R"("round_p50_us": 3.5, "round_p95_us": 4, "round_max_us": 4}], )"
    R"("foresight": {"analyzed": true, "terminating": false, "armed": true, )"
    R"("predicted_rounds": 9223372036854775807, "observed_rounds": 5}, )"
    R"("phases": [{"name": "chase.round", "count": 2, "total_us": 220, )"
    R"("self_us": 220, "share": 0.4, "max_us": 120}, {"name": "op.exchange", )"
    R"("count": 1, "total_us": 500, "self_us": 200, "share": 0.363636, )"
    R"("max_us": 500}, {"name": "chase.run", "count": 1, "total_us": 300, )"
    R"("self_us": 80, "share": 0.145455, "max_us": 300}, )"
    R"({"name": "op.compose", "count": 1, "total_us": 50, "self_us": 50, )"
    R"("share": 0.0909091, "max_us": 50}], "storage": {"index_probes": 40, )"
    R"("index_probe_hits": 130, "index_builds": 3, "delta_tuples": 77, )"
    R"("delta_rule_skips": 6, "segment_seals": 2, "segment_sealed_rows": 50, )"
    R"("segment_compares": 300, "segment_probes": 25, )"
    R"("segment_probe_hits": 60, "segment_skips": 4, )"
    R"("segment_live_segments": 2}, "values": {"value_bytes": 16, )"
    R"("interned_strings": 10, "interned_bytes": 80, "intern_hits": 30, )"
    R"("intern_misses": 10}, "incremental": {"maintains": 4, "fallbacks": 1, )"
    R"("dred_candidates": 9, "dred_kept": 3, "source_inserts": 8, )"
    R"("source_deletes": 2, "target_inserts": 12, "target_deletes": 5, )"
    R"("latency_us": 1000, "provenance_facts": 20, )"
    R"("provenance_witnesses": 26, "provenance_support_edges": 31, )"
    R"("provenance_bytes": 4096}, "totals": {"operator_total_us": 5200, )"
    R"("rule_total_us": 417, "phase_total_us": 550}})";

const char kGoldenPartialText[] = R"txt(operators (42.0us total):
  operator  calls  errs  total_us   share  p50_us  p95_us  p99_us  max_us
  match         1     0      42.0  100.0%    42.0    42.0    42.0    42.0
chase rules (0.0us total):
  (no chase recorded)
foresight:
  termination               terminating
  predicted rounds (bound)            3
  observed rounds                     2
  budget auto-armed                  no
storage:
  index.probes              5
  index.probe_hits          7
  index.builds              0
  chase.delta.tuples        0
  chase.delta.rule_skips    1
  tuples/probe            1.4
incremental:
  provenance.facts            3
  provenance.witnesses        4
  provenance.support_edges    5
  provenance.bytes          512
phases (0us self-time total):
  (no spans; run under `trace` to collect phases)
)txt";

const char kGoldenPartialJson[] =
    R"({"operators": [{"name": "match", "calls": 1, "errors": 0, )"
    R"("total_us": 42, "share": 1, "p50_us": 42, "p95_us": 42, "p99_us": 42, )"
    R"("max_us": 42}], "rules": [], "foresight": {"analyzed": true, )"
    R"("terminating": true, "armed": false, "predicted_rounds": 3, )"
    R"("observed_rounds": 2}, "phases": [], "storage": {"index_probes": 5, )"
    R"("index_probe_hits": 7, "index_builds": 0, "delta_tuples": 0, )"
    R"("delta_rule_skips": 1}, "values": {"value_bytes": 16, )"
    R"("interned_strings": 0, "interned_bytes": 0, "intern_hits": 0, )"
    R"("intern_misses": 0}, "incremental": {"maintains": 0, "fallbacks": 0, )"
    R"("dred_candidates": 0, "dred_kept": 0, "source_inserts": 0, )"
    R"("source_deletes": 0, "target_inserts": 0, "target_deletes": 0, )"
    R"("latency_us": 0, "provenance_facts": 3, "provenance_witnesses": 4, )"
    R"("provenance_support_edges": 5, "provenance_bytes": 512}, )"
    R"("totals": {"operator_total_us": 42, "rule_total_us": 0, )"
    R"("phase_total_us": 0}})";

TEST(ProfileGoldenTest, EmptyReport) {
  ProfileReport report = Profiler::Build(MetricsSnapshot{}, {});
  EXPECT_EQ(report.ToString(), kGoldenEmptyText);
  EXPECT_EQ(report.ToJson(), kGoldenEmptyJson);
}

TEST(ProfileGoldenTest, EveryFamilyAndBranch) {
  ProfileReport report = FullReport();
  EXPECT_EQ(report.ToString(), kGoldenFullText);
  EXPECT_EQ(report.ToJson(), kGoldenFullJson);
}

TEST(ProfileGoldenTest, PartialSections) {
  ProfileReport report = PartialReport();
  EXPECT_EQ(report.ToString(), kGoldenPartialText);
  EXPECT_EQ(report.ToJson(), kGoldenPartialJson);
}

}  // namespace
}  // namespace mm2::obs
