// Tests for the chase resource-budget watchdog: graceful stops on tuple /
// wall / rss budgets, external cancellation, breach diagnostics (dominant
// rule + flight-recorder dump), and budget forwarding through
// runtime::Exchange.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "chase/chase.h"
#include "instance/instance.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "model/schema.h"
#include "obs/obs.h"
#include "runtime/runtime.h"

namespace mm2::chase {
namespace {

using instance::Instance;
using instance::Value;
using logic::Atom;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using model::DataType;
using model::Metamodel;
using model::SchemaBuilder;

Term V(const char* name) { return Term::Var(name); }

// R(x,y) -> exists z. R(y,z): provably non-terminating under the
// restricted chase — every round invents a fresh null that re-enables the
// body, so only a budget (or max_rounds) can stop it.
Tgd DivergingTgd() {
  Tgd walk;
  walk.body = {Atom{"R", {V("x"), V("y")}}};
  walk.head = {Atom{"R", {V("y"), Term::Var("z")}}};
  return walk;
}

Instance SeedInstance() {
  Instance db;
  db.DeclareRelation("R", 2);
  EXPECT_TRUE(db.Insert("R", {Value::Int64(1), Value::Int64(2)}).ok());
  return db;
}

TEST(WatchdogTest, TupleBudgetStopsDivergingChaseGracefully) {
  ChaseOptions options;
  options.tuple_budget = 25;
  options.max_rounds = 100000;  // the budget must fire long before this
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->breach.has_value());
  const ChaseBreach& breach = result->breach.value();
  EXPECT_EQ(breach.kind, "tuples");
  EXPECT_EQ(breach.limit, 25u);
  EXPECT_GT(breach.observed, 25u);
  EXPECT_GT(breach.round, 0u);
  // The dominant rule is named (there is only one candidate here).
  EXPECT_FALSE(breach.dominant_rule.empty());
  EXPECT_NE(breach.diagnostic.find("tuples budget breached"),
            std::string::npos);
  EXPECT_NE(breach.diagnostic.find(breach.dominant_rule), std::string::npos);
  // Partial state is intact: stats counted the completed rounds and the
  // target holds everything derived before the stop.
  EXPECT_GT(result->stats.rounds, 0u);
  EXPECT_GT(result->stats.tgd_firings, 0u);
  EXPECT_GT(result->target.TotalTuples(), 1u);
}

TEST(WatchdogTest, BreachDiagnosticCarriesFlightRecorderDump) {
  obs::Context obs;
  obs.events.Configure(obs::EventFormat::kText, /*sink=*/nullptr);
  ChaseOptions options;
  options.tuple_budget = 10;
  options.max_rounds = 100000;
  options.obs = &obs;
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->breach.has_value());
  // Heartbeats were recorded each round, the breach event closed the ring,
  // and the diagnostic embeds the dump.
  EXPECT_NE(result->breach->diagnostic.find("-- flight recorder"),
            std::string::npos);
  EXPECT_NE(result->breach->diagnostic.find("chase.heartbeat"),
            std::string::npos);
  bool saw_heartbeat = false;
  bool saw_breach = false;
  for (const obs::Event& e : obs.events.Recent()) {
    if (e.name == "chase.heartbeat") saw_heartbeat = true;
    if (e.name == "chase.breach") saw_breach = true;
  }
  EXPECT_TRUE(saw_heartbeat);
  EXPECT_TRUE(saw_breach);
  // The budget stop is mirrored as a counter.
  obs::MetricsSnapshot snap = obs.metrics.Snapshot();
  bool found = false;
  for (const obs::CounterSnapshot& c : snap.counters) {
    if (c.name == "chase.budget_stops") {
      found = true;
      EXPECT_EQ(c.value, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(WatchdogTest, HeartbeatRefreshesProgressGauges) {
  obs::Context obs;
  ChaseOptions options;
  options.tuple_budget = 10;
  options.max_rounds = 100000;
  options.obs = &obs;
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  obs::MetricsSnapshot snap = obs.metrics.Snapshot();
  std::int64_t round = -1;
  std::int64_t total = -1;
  std::int64_t nulls = -1;
  for (const obs::GaugeSnapshot& g : snap.gauges) {
    if (g.name == "chase.progress.round") round = g.value;
    if (g.name == "chase.progress.total_tuples") total = g.value;
    if (g.name == "chase.progress.nulls_created") nulls = g.value;
  }
  EXPECT_EQ(round, static_cast<std::int64_t>(result->stats.rounds));
  EXPECT_EQ(total, static_cast<std::int64_t>(result->target.TotalTuples()));
  EXPECT_EQ(nulls, static_cast<std::int64_t>(result->stats.nulls_created));
}

TEST(WatchdogTest, WallBudgetStopsDivergingChase) {
  ChaseOptions options;
  options.wall_budget_us = 2000;  // 2ms: a few rounds at most
  options.max_rounds = 100000000;
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->breach.has_value());
  EXPECT_EQ(result->breach->kind, "wall_us");
  EXPECT_GT(result->breach->observed, result->breach->limit);
}

TEST(WatchdogTest, RssBudgetBelowCurrentUsageTripsImmediately) {
  ChaseOptions options;
  options.rss_budget_kb = 1;  // any live process is over this
  options.max_rounds = 100000;
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->breach.has_value());
  EXPECT_EQ(result->breach->kind, "rss_kb");
  EXPECT_EQ(result->breach->round, 1u);
}

TEST(WatchdogTest, ZeroBudgetsMeanUnlimited) {
  // A terminating rule set under all-zero budgets runs exactly as before.
  Tgd copy;
  copy.body = {Atom{"R", {V("x"), V("y")}}};
  copy.head = {Atom{"Q", {V("x")}}};
  ChaseOptions options;
  auto result = ChaseInstance({copy}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->breach.has_value());
  EXPECT_EQ(result->target.Find("Q")->size(), 1u);
}

TEST(WatchdogTest, PreTrippedExternalTokenStopsAfterFirstRound) {
  obs::CancelToken token;
  token.RequestStop("admission control");
  ChaseOptions options;
  options.cancel = &token;
  options.max_rounds = 100000;
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->breach.has_value());
  EXPECT_EQ(result->breach->kind, "cancel");
  EXPECT_EQ(result->breach->round, 1u);
  EXPECT_NE(result->breach->diagnostic.find("admission control"),
            std::string::npos);
}

TEST(WatchdogTest, BudgetStoppedPartialTargetMapsIntoFixpoint) {
  // A terminating closure that also invents nulls: E(x,y) -> T(x,y),
  // T(x,y), E(y,z) -> T(x,z), T(x,y) -> exists w. P(y,w). Whatever round
  // a tuple budget stops it at, the partial target is a sound prefix of
  // the chase: smaller than the fixpoint and homomorphic into it.
  Tgd copy;
  copy.body = {Atom{"E", {V("x"), V("y")}}};
  copy.head = {Atom{"T", {V("x"), V("y")}}};
  Tgd step;
  step.body = {Atom{"T", {V("x"), V("y")}}, Atom{"E", {V("y"), V("z")}}};
  step.head = {Atom{"T", {V("x"), V("z")}}};
  Tgd invent;
  invent.body = {Atom{"T", {V("x"), V("y")}}};
  invent.head = {Atom{"P", {V("y"), V("w")}}};
  const std::vector<Tgd> tgds = {copy, step, invent};
  Instance chain;
  chain.DeclareRelation("E", 2);
  chain.DeclareRelation("T", 2);
  chain.DeclareRelation("P", 2);
  for (std::int64_t i = 0; i < 24; ++i) {
    chain.InsertUnchecked("E", {Value::Int64(i), Value::Int64(i + 1)});
  }
  auto fixpoint = ChaseInstance(tgds, {}, chain);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  ASSERT_FALSE(fixpoint->breach.has_value());
  for (std::size_t budget : {30u, 100u, 200u}) {
    ChaseOptions options;
    options.tuple_budget = budget;
    auto partial = ChaseInstance(tgds, {}, chain, options);
    ASSERT_TRUE(partial.ok()) << partial.status();
    ASSERT_TRUE(partial->breach.has_value()) << "budget " << budget;
    EXPECT_EQ(partial->breach->kind, "tuples");
    EXPECT_LT(partial->target.TotalTuples(), fixpoint->target.TotalTuples())
        << "budget " << budget;
    EXPECT_TRUE(ExistsHomomorphism(partial->target, fixpoint->target))
        << "budget " << budget;
  }
}

TEST(WatchdogTest, ComputeCoreHonorsCancelToken) {
  // A pre-tripped token returns the input unchanged (still a valid
  // solution, just not minimized).
  Instance db;
  db.DeclareRelation("P", 2);
  ASSERT_TRUE(db.Insert("P", {Value::Int64(1), Value::Int64(2)}).ok());
  ASSERT_TRUE(db.Insert("P", {Value::Int64(1), Value::LabeledNull(7)}).ok());
  obs::CancelToken token;
  token.RequestStop("stop");
  Instance partial = ComputeCore(db, nullptr, &token);
  EXPECT_EQ(partial.TotalTuples(), 2u);
  // Without the token the redundant null-tuple folds away.
  Instance core = ComputeCore(db);
  EXPECT_EQ(core.TotalTuples(), 1u);
}

TEST(WatchdogTest, MaxRoundsErrorCarriesFlightDump) {
  obs::Context obs;
  obs.events.Configure(obs::EventFormat::kText, /*sink=*/nullptr);
  ChaseOptions options;
  options.max_rounds = 5;
  options.obs = &obs;
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("max_rounds"), std::string::npos);
  EXPECT_NE(result.status().message().find("-- flight recorder"),
            std::string::npos);
}

TEST(WatchdogForesightTest, AutoArmsTupleBudgetOnNonTerminatingClosure) {
  // The known-negative classifier case: R(x,y) -> exists z. R(y,z) cycles
  // through a special edge, so an analyzed run with no explicit budget
  // must arm a conservative tuple budget on its own and stop gracefully
  // instead of chasing forever.
  obs::Context obs;
  std::ostringstream sink;
  obs.events.Configure(obs::EventFormat::kText, &sink);
  const analysis::MappingAnalysis analysis =
      analysis::AnalyzeClosure({DivergingTgd()}, {});
  ChaseOptions options;
  options.analysis = &analysis;
  options.max_rounds = 100000000;  // foresight must fire long before this
  options.obs = &obs;
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->breach.has_value());
  EXPECT_EQ(result->breach->kind, "tuples");
  EXPECT_TRUE(result->stats.foresight_armed);
  EXPECT_FALSE(result->stats.predicted_terminating);
  // The warning event announced the arming before the chase started (the
  // sink, not the ring: thousands of budgeted rounds of heartbeats have
  // long since evicted it from the flight recorder).
  std::string events = sink.str();
  std::size_t foresight_at = events.find("chase.foresight");
  ASSERT_NE(foresight_at, std::string::npos);
  EXPECT_NE(events.find("warn", 0), std::string::npos);
  EXPECT_NE(events.find("termination=potentially_non_terminating"),
            std::string::npos);
  EXPECT_NE(events.find("auto_tuple_budget="), std::string::npos);
  EXPECT_LT(foresight_at, events.find("chase.heartbeat"));
  // Mirrored into the metric families explain reads.
  obs::MetricsSnapshot snap = obs.metrics.Snapshot();
  const obs::CounterSnapshot* armed = snap.FindCounter("chase.foresight.armed");
  ASSERT_NE(armed, nullptr);
  EXPECT_EQ(armed->value, 1u);
  const obs::GaugeSnapshot* terminating =
      snap.FindGauge("chase.foresight.terminating");
  ASSERT_NE(terminating, nullptr);
  EXPECT_EQ(terminating->value, 0);
}

TEST(WatchdogForesightTest, ExplicitBudgetSuppressesAutoArm) {
  // An explicit (generous) wall budget means the user already bounded the
  // run; foresight must not stack a tuple budget on top.
  const analysis::MappingAnalysis analysis =
      analysis::AnalyzeClosure({DivergingTgd()}, {});
  ChaseOptions options;
  options.analysis = &analysis;
  options.wall_budget_us = 5000;
  options.max_rounds = 100000000;
  auto result = ChaseInstance({DivergingTgd()}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->breach.has_value());
  EXPECT_EQ(result->breach->kind, "wall_us");
  EXPECT_FALSE(result->stats.foresight_armed);
  EXPECT_FALSE(result->stats.predicted_terminating);
}

TEST(WatchdogForesightTest, TerminatingClosureNeverArms) {
  Tgd copy;
  copy.body = {Atom{"R", {V("x"), V("y")}}};
  copy.head = {Atom{"Q", {V("x")}}};
  const analysis::MappingAnalysis analysis =
      analysis::AnalyzeClosure({copy}, {});
  ChaseOptions options;
  options.analysis = &analysis;
  auto result = ChaseInstance({copy}, {}, SeedInstance(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->breach.has_value());
  EXPECT_FALSE(result->stats.foresight_armed);
  EXPECT_TRUE(result->stats.predicted_terminating);
  EXPECT_LE(result->stats.rounds, result->stats.predicted_rounds);
}

TEST(WatchdogTest, ExchangeForwardsBudgetsAndSkipsCore) {
  // s-t tgd mappings always terminate, so force the budget with a tiny
  // tuple limit and a multi-tuple source.
  model::Schema s = SchemaBuilder("S", Metamodel::kRelational)
                        .Relation("Emp", {{"eid", DataType::Int64()}})
                        .Build();
  model::Schema t = SchemaBuilder("T", Metamodel::kRelational)
                        .Relation("Worker", {{"eid", DataType::Int64()},
                                             {"mgr", DataType::Int64()}})
                        .Build();
  Tgd tgd;
  tgd.body = {Atom{"Emp", {V("e")}}};
  tgd.head = {Atom{"Worker", {V("e"), Term::Var("m")}}};
  Mapping mapping = Mapping::FromTgds("m", s, t, {tgd});
  Instance db = Instance::EmptyFor(s);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.Insert("Emp", {Value::Int64(i)}).ok());
  }
  runtime::ExchangeOptions options;
  options.tuple_budget = 1;
  options.compute_core = true;
  options.track_provenance = true;
  auto result = runtime::Exchange(mapping, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->breach.has_value());
  EXPECT_EQ(result->breach->kind, "tuples");
  // Core minimization was skipped: the partial target is served as-is
  // (pre_core_tuples stays 0, the not-computed marker).
  EXPECT_EQ(result->pre_core_tuples, 0u);
  EXPECT_GT(result->target.TotalTuples(), 0u);
  // Provenance of the partial run is still queryable.
  EXPECT_GT(result->provenance.size(), 0u);
}

}  // namespace
}  // namespace mm2::chase
