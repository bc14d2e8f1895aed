// Differential test for the chase executors: the naive nested-loop path
// (ChaseOptions::naive, the pre-index implementation kept as oracle) must
// agree with the index-backed path and with the semi-naive delta path on
// every randomly generated mapping. Agreement means identical status codes
// and, on success, instances equal up to null renaming — checked as
// homomorphic equivalence plus equal core sizes (cores of hom-equivalent
// instances are isomorphic). Full-tgd closure cases invent no nulls, so
// there the results must be exactly equal.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "instance/instance.h"
#include "instance/value.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "model/schema.h"
#include "text/sexpr.h"
#include "workload/generators.h"

namespace mm2::chase {
namespace {

using instance::Instance;
using instance::Value;
using logic::Atom;
using logic::Egd;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using workload::Rng;

ChaseOptions NaiveMode() {
  ChaseOptions o;
  o.naive = true;
  o.semi_naive = false;
  return o;
}

ChaseOptions IndexedMode() {
  ChaseOptions o;
  o.naive = false;
  o.semi_naive = false;
  return o;
}

ChaseOptions SemiNaiveMode() { return ChaseOptions{}; }  // the default

bool HomEquivalent(const Instance& a, const Instance& b) {
  return ExistsHomomorphism(a, b) && ExistsHomomorphism(b, a);
}

// A random data-exchange scenario: all-Int64 relational schemas (small
// constant domains maximize join hits and egd collisions), s-t tgds with
// joins and existentials, and occasional target key egds.
struct Scenario {
  model::Schema source{"Src", model::Metamodel::kRelational};
  model::Schema target{"Tgt", model::Metamodel::kRelational};
  std::vector<Tgd> tgds;
  std::vector<Egd> egds;
  Instance db;
};

model::Relation IntRelation(const std::string& name, std::size_t arity) {
  std::vector<model::Attribute> attrs;
  for (std::size_t i = 0; i < arity; ++i) {
    attrs.push_back({"a" + std::to_string(i), model::DataType::Int64()});
  }
  return model::Relation(name, std::move(attrs), {0});
}

Scenario MakeScenario(std::uint64_t seed) {
  Rng rng(seed + 1);
  Scenario s;

  std::size_t source_rels = 2 + rng.Uniform(3);  // 2..4
  std::size_t target_rels = 2 + rng.Uniform(2);  // 2..3
  std::vector<std::size_t> src_arity(source_rels);
  std::vector<std::size_t> tgt_arity(target_rels);
  for (std::size_t i = 0; i < source_rels; ++i) {
    src_arity[i] = 1 + rng.Uniform(3);  // 1..3
    s.source.AddRelation(IntRelation("R" + std::to_string(i), src_arity[i]));
  }
  for (std::size_t i = 0; i < target_rels; ++i) {
    tgt_arity[i] = 1 + rng.Uniform(3);
    s.target.AddRelation(IntRelation("T" + std::to_string(i), tgt_arity[i]));
  }

  // Tgds: 1-2 body atoms over shared variables (joins), 1-2 head atoms
  // mixing body variables with existentials.
  std::size_t rules = 2 + rng.Uniform(4);  // 2..5
  for (std::size_t r = 0; r < rules; ++r) {
    Tgd tgd;
    std::vector<std::string> vars;
    std::size_t body_atoms = 1 + rng.Uniform(2);
    for (std::size_t b = 0; b < body_atoms; ++b) {
      std::size_t rel = rng.Uniform(source_rels);
      Atom atom;
      atom.relation = "R" + std::to_string(rel);
      for (std::size_t c = 0; c < src_arity[rel]; ++c) {
        // Reuse an existing variable half the time (join / repeated var),
        // else bind a fresh one.
        if (!vars.empty() && rng.Chance(0.5)) {
          atom.terms.push_back(Term::Var(vars[rng.Uniform(vars.size())]));
        } else {
          std::string v = "x" + std::to_string(vars.size());
          vars.push_back(v);
          atom.terms.push_back(Term::Var(std::move(v)));
        }
      }
      tgd.body.push_back(std::move(atom));
    }
    std::size_t head_atoms = 1 + rng.Uniform(2);
    std::size_t existentials = 0;
    for (std::size_t h = 0; h < head_atoms; ++h) {
      std::size_t rel = rng.Uniform(target_rels);
      Atom atom;
      atom.relation = "T" + std::to_string(rel);
      for (std::size_t c = 0; c < tgt_arity[rel]; ++c) {
        if (rng.Chance(0.3)) {
          atom.terms.push_back(
              Term::Var("y" + std::to_string(existentials++)));
        } else {
          atom.terms.push_back(Term::Var(vars[rng.Uniform(vars.size())]));
        }
      }
      tgd.head.push_back(std::move(atom));
    }
    s.tgds.push_back(std::move(tgd));
  }

  // Occasional key egd on a target relation of arity >= 2: two atoms
  // sharing the key variable force the first non-key column equal.
  if (rng.Chance(0.5)) {
    for (std::size_t rel = 0; rel < target_rels; ++rel) {
      if (tgt_arity[rel] < 2 || rng.Chance(0.5)) continue;
      Egd egd;
      Atom a1, a2;
      a1.relation = a2.relation = "T" + std::to_string(rel);
      a1.terms.push_back(Term::Var("k"));
      a2.terms.push_back(Term::Var("k"));
      for (std::size_t c = 1; c < tgt_arity[rel]; ++c) {
        a1.terms.push_back(Term::Var("u" + std::to_string(c)));
        a2.terms.push_back(Term::Var("v" + std::to_string(c)));
      }
      egd.body = {std::move(a1), std::move(a2)};
      egd.left = "u1";
      egd.right = "v1";
      s.egds.push_back(std::move(egd));
      break;
    }
  }

  // Source data: small domains so bodies actually join and egds actually
  // fire (including constant-vs-constant collisions -> Inconsistent).
  s.db = Instance::EmptyFor(s.source);
  for (std::size_t rel = 0; rel < source_rels; ++rel) {
    std::size_t rows = 3 + rng.Uniform(6);
    for (std::size_t row = 0; row < rows; ++row) {
      instance::Tuple t;
      for (std::size_t c = 0; c < src_arity[rel]; ++c) {
        t.push_back(Value::Int64(static_cast<std::int64_t>(rng.Uniform(4))));
      }
      s.db.InsertUnchecked("R" + std::to_string(rel), std::move(t));
    }
  }
  return s;
}

class ChaseDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseDiffProperty, NaiveIndexedSemiNaiveAgree) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);

  auto naive = RunChase(mapping, s.db, NaiveMode());
  auto indexed = RunChase(mapping, s.db, IndexedMode());
  auto semi = RunChase(mapping, s.db, SemiNaiveMode());

  ASSERT_EQ(naive.status().code(), indexed.status().code())
      << "seed " << GetParam() << ": naive=" << naive.status()
      << " indexed=" << indexed.status();
  ASSERT_EQ(naive.status().code(), semi.status().code())
      << "seed " << GetParam() << ": naive=" << naive.status()
      << " semi=" << semi.status();
  if (!naive.ok()) return;  // all three rejected identically

  // The oracle path never touches the storage-layer indexes; the other two
  // must account their probe traffic.
  EXPECT_EQ(naive->stats.index_probes, 0u);
  EXPECT_EQ(naive->stats.delta_tuples, 0u);

  // Universal solutions are unique up to homomorphic equivalence; firing
  // order may differ, so compare up to null renaming.
  EXPECT_TRUE(HomEquivalent(naive->target, indexed->target))
      << "seed " << GetParam();
  EXPECT_TRUE(HomEquivalent(naive->target, semi->target))
      << "seed " << GetParam();

  // Cores of hom-equivalent instances are isomorphic, hence equal-sized.
  Instance core_naive = ComputeCore(naive->target);
  Instance core_indexed = ComputeCore(indexed->target);
  Instance core_semi = ComputeCore(semi->target);
  EXPECT_EQ(core_naive.TotalTuples(), core_indexed.TotalTuples())
      << "seed " << GetParam();
  EXPECT_EQ(core_naive.TotalTuples(), core_semi.TotalTuples())
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseDiffProperty, ::testing::Range(0, 100));

// Interning must be invisible to results: serializing a chase result to
// text and reparsing it (which re-interns every string and reassigns pool
// ids) must reproduce the *exact* instance — tuple sets, iteration order,
// labeled-null labels, everything Equals checks. Runs over the same 100
// random-mapping seeds as the executor-agreement sweep.
class ChaseSerializeDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseSerializeDiffProperty, ResultsSurviveTextRoundTrip) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);
  auto result = RunChase(mapping, s.db, SemiNaiveMode());
  if (!result.ok()) return;  // Inconsistent scenarios have no instance

  std::string printed = text::InstanceToText(result->target);
  auto reparsed = text::ParseInstance(printed);
  ASSERT_TRUE(reparsed.ok()) << "seed " << GetParam() << ": "
                             << reparsed.status();
  EXPECT_TRUE(result->target.Equals(*reparsed)) << "seed " << GetParam();
  // Printing the reparsed instance is bit-identical: same sorted-set
  // iteration order through the pool-resolved value comparisons.
  EXPECT_EQ(printed, text::InstanceToText(*reparsed))
      << "seed " << GetParam();

  // The source database round-trips the same way.
  std::string db_printed = text::InstanceToText(s.db);
  auto db_reparsed = text::ParseInstance(db_printed);
  ASSERT_TRUE(db_reparsed.ok()) << db_reparsed.status();
  EXPECT_TRUE(s.db.Equals(*db_reparsed)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseSerializeDiffProperty,
                         ::testing::Range(0, 100));

// Full-tgd closure (no existentials, no nulls): the fixpoint is a unique
// set of ground tuples, so all three executors must produce *identical*
// instances, not just hom-equivalent ones. Random graphs chased to their
// transitive closure exercise multi-round delta propagation hard.
class ClosureDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosureDiffProperty, TransitiveClosureExactlyEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  std::size_t nodes = 5 + rng.Uniform(6);
  std::size_t edges = nodes + rng.Uniform(nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    db.InsertUnchecked(
        "R", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes))),
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }

  Tgd copy;
  copy.body = {Atom{"R", {Term::Var("x"), Term::Var("y")}}};
  copy.head = {Atom{"T", {Term::Var("x"), Term::Var("y")}}};
  Tgd step;
  step.body = {Atom{"T", {Term::Var("x"), Term::Var("y")}},
               Atom{"R", {Term::Var("y"), Term::Var("z")}}};
  step.head = {Atom{"T", {Term::Var("x"), Term::Var("z")}}};
  std::vector<Tgd> tgds = {copy, step};

  auto naive = ChaseInstance(tgds, {}, db, NaiveMode());
  auto indexed = ChaseInstance(tgds, {}, db, IndexedMode());
  auto semi = ChaseInstance(tgds, {}, db, SemiNaiveMode());
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ASSERT_TRUE(semi.ok()) << semi.status();

  EXPECT_TRUE(indexed->target.Equals(naive->target)) << "seed " << GetParam();
  EXPECT_TRUE(semi->target.Equals(naive->target)) << "seed " << GetParam();
  // Semi-naive actually consumed deltas (round 1 counts the extension).
  EXPECT_GT(semi->stats.delta_tuples, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureDiffProperty, ::testing::Range(0, 20));

// Stratified-scheduling axis: running the chase with mapping analysis
// attached (ChaseOptions::stratified) must be a pure scheduling
// optimization. Strata only defer egd matching until the tgd strata are
// quiescent (exchange mode) or retire rule groups the flat scheduler
// would have delta-skipped anyway, so the *result* — the instance text,
// which pins down null naming, and every firing-attribution counter —
// must be bit-identical to the flat semi-naive run. Round counts and
// delta-skip tallies legitimately differ (that skipped work is the
// point), so they are deliberately not compared.
ChaseOptions StratifiedMode() {
  ChaseOptions o;
  o.stratified = true;
  return o;
}

void ExpectSameRuleAttribution(const ChaseStats& flat,
                               const ChaseStats& strat, int seed) {
  EXPECT_EQ(flat.tgd_firings, strat.tgd_firings) << "seed " << seed;
  EXPECT_EQ(flat.nulls_created, strat.nulls_created) << "seed " << seed;
  EXPECT_EQ(flat.egd_unifications, strat.egd_unifications) << "seed " << seed;
  EXPECT_EQ(flat.assignments_matched, strat.assignments_matched)
      << "seed " << seed;
  ASSERT_EQ(flat.rules.size(), strat.rules.size()) << "seed " << seed;
  for (std::size_t i = 0; i < flat.rules.size(); ++i) {
    EXPECT_EQ(flat.rules[i].label, strat.rules[i].label) << "seed " << seed;
    EXPECT_EQ(flat.rules[i].firings, strat.rules[i].firings)
        << "seed " << seed << " rule " << flat.rules[i].label;
    EXPECT_EQ(flat.rules[i].triggers_tested, strat.rules[i].triggers_tested)
        << "seed " << seed << " rule " << flat.rules[i].label;
    EXPECT_EQ(flat.rules[i].nulls_created, strat.rules[i].nulls_created)
        << "seed " << seed << " rule " << flat.rules[i].label;
    EXPECT_EQ(flat.rules[i].unifications, strat.rules[i].unifications)
        << "seed " << seed << " rule " << flat.rules[i].label;
  }
}

class ChaseStratifiedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseStratifiedDiffProperty, StratifiedEqualsFlatBitForBit) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);

  auto flat = RunChase(mapping, s.db, SemiNaiveMode());
  auto strat = RunChase(mapping, s.db, StratifiedMode());
  ASSERT_EQ(flat.status().code(), strat.status().code())
      << "seed " << GetParam() << ": flat=" << flat.status()
      << " stratified=" << strat.status();
  if (!flat.ok()) return;

  // Instance text equality is the strongest form: it covers tuple sets,
  // iteration order, and labeled-null names.
  EXPECT_EQ(text::InstanceToText(strat->target),
            text::InstanceToText(flat->target))
      << "seed " << GetParam();
  ExpectSameRuleAttribution(flat->stats, strat->stats, GetParam());

  // The scheduler actually ran, and its telemetry stayed off on the flat
  // side (the disabled path materializes nothing).
  EXPECT_GT(strat->stats.strata_count, 0u) << "seed " << GetParam();
  EXPECT_EQ(flat->stats.strata_count, 0u);
  // Every rule got a stratum; flat rules stay unassigned.
  for (const RuleStats& rule : strat->stats.rules) {
    EXPECT_GE(rule.stratum, 0) << "seed " << GetParam();
  }
  for (const RuleStats& rule : flat->stats.rules) {
    EXPECT_EQ(rule.stratum, -1);
  }
  // S-t scenarios are always weakly acyclic, and the predicted round
  // bound must dominate what either scheduler observed.
  EXPECT_TRUE(strat->stats.predicted_terminating) << "seed " << GetParam();
  EXPECT_LE(flat->stats.rounds, strat->stats.predicted_rounds)
      << "seed " << GetParam();
  EXPECT_LE(strat->stats.rounds, strat->stats.predicted_rounds)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseStratifiedDiffProperty,
                         ::testing::Range(0, 100));

// Closure mode only retires quiescent strata (late activation would
// reorder null invention), so transitive closure over random graphs must
// stay exactly equal too — including when an independent shallow chain
// rides along, the case where retirement skips real delta-check passes.
class ClosureStratifiedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosureStratifiedDiffProperty, StratifiedClosureExactlyEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  db.DeclareRelation("A", 1);
  db.DeclareRelation("B", 1);
  std::size_t nodes = 5 + rng.Uniform(6);
  std::size_t edges = nodes + rng.Uniform(nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    db.InsertUnchecked(
        "R", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes))),
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }
  for (std::size_t a = 0; a < 3; ++a) {
    db.InsertUnchecked(
        "A", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }

  Tgd copy;
  copy.body = {Atom{"R", {Term::Var("x"), Term::Var("y")}}};
  copy.head = {Atom{"T", {Term::Var("x"), Term::Var("y")}}};
  Tgd step;
  step.body = {Atom{"T", {Term::Var("x"), Term::Var("y")}},
               Atom{"R", {Term::Var("y"), Term::Var("z")}}};
  step.head = {Atom{"T", {Term::Var("x"), Term::Var("z")}}};
  // Independent depth-1 stratum: quiescent after one round while the
  // closure stratum keeps iterating — the retirement win.
  Tgd shallow;
  shallow.body = {Atom{"A", {Term::Var("x")}}};
  shallow.head = {Atom{"B", {Term::Var("x")}}};
  std::vector<Tgd> tgds = {copy, step, shallow};

  auto flat = ChaseInstance(tgds, {}, db, SemiNaiveMode());
  auto strat = ChaseInstance(tgds, {}, db, StratifiedMode());
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(strat.ok()) << strat.status();
  EXPECT_TRUE(strat->target.Equals(flat->target)) << "seed " << GetParam();
  ExpectSameRuleAttribution(flat->stats, strat->stats, GetParam());
  EXPECT_GT(strat->stats.strata_count, 0u);
  // Full tgds invent nothing, so the classifier must say terminating and
  // its round bound must hold.
  EXPECT_TRUE(strat->stats.predicted_terminating);
  EXPECT_LE(strat->stats.rounds, strat->stats.predicted_rounds)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureStratifiedDiffProperty,
                         ::testing::Range(0, 20));

// Storage-mode axis: the columnar segment representation must be a pure
// physical-layer swap. Prefix probes answered from sealed segments and the
// batched retain anti-join replace per-tuple set probes, but the match
// order, firing order, and null naming are untouched, so segmented runs
// must be bit-identical to indexed runs — same instance text, same firing
// counters. Only the storage telemetry may differ.
ChaseOptions SegmentedMode(bool semi_naive) {
  ChaseOptions o;
  o.semi_naive = semi_naive;
  o.storage = instance::StorageMode::kSegmented;
  return o;
}

// Baseline with the storage mode pinned: the default kDefault would resolve
// to the segmented backend under MM2_STORAGE=segmented — and this sweep
// needs a genuinely indexed reference run either way.
ChaseOptions IndexedStorageMode(bool semi_naive) {
  ChaseOptions o;
  o.semi_naive = semi_naive;
  o.storage = instance::StorageMode::kIndexed;
  return o;
}

void ExpectSameFiringCounts(const ChaseStats& indexed,
                            const ChaseStats& segmented, int seed) {
  EXPECT_EQ(indexed.rounds, segmented.rounds) << "seed " << seed;
  EXPECT_EQ(indexed.tgd_firings, segmented.tgd_firings) << "seed " << seed;
  EXPECT_EQ(indexed.nulls_created, segmented.nulls_created) << "seed " << seed;
  EXPECT_EQ(indexed.egd_unifications, segmented.egd_unifications)
      << "seed " << seed;
  EXPECT_EQ(indexed.assignments_matched, segmented.assignments_matched)
      << "seed " << seed;
}

class ChaseSegmentedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseSegmentedDiffProperty, StorageModeIsImplementationDetail) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);

  auto naive = RunChase(mapping, s.db, NaiveMode());
  for (bool semi_naive : {false, true}) {
    auto indexed = RunChase(mapping, s.db, IndexedStorageMode(semi_naive));
    auto seg = RunChase(mapping, s.db, SegmentedMode(semi_naive));
    ASSERT_EQ(indexed.status().code(), seg.status().code())
        << "seed " << GetParam() << " semi_naive " << semi_naive
        << ": indexed=" << indexed.status() << " segmented=" << seg.status();
    if (!indexed.ok()) continue;
    EXPECT_TRUE(seg->stats.segmented);
    EXPECT_FALSE(indexed->stats.segmented);
    // Bit-identical result: instance text pins down relation contents,
    // tuple order, and the exact null names.
    EXPECT_EQ(text::InstanceToText(seg->target),
              text::InstanceToText(indexed->target))
        << "seed " << GetParam() << " semi_naive " << semi_naive;
    ExpectSameFiringCounts(indexed->stats, seg->stats, GetParam());
    // And the naive oracle must agree up to null renaming.
    if (naive.ok()) {
      EXPECT_TRUE(HomEquivalent(naive->target, seg->target))
          << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseSegmentedDiffProperty,
                         ::testing::Range(0, 100));

// Transitive closure under segmented storage: full tgds invent no nulls,
// so the fixpoint must be exactly equal — and because the closure rules
// are existential-free the restricted check runs through the batched
// retain path, whose telemetry must show segment probes and retain
// batches actually happened (i.e. the sweep exercises the new code, not a
// silent fallback).
class ClosureSegmentedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosureSegmentedDiffProperty, SegmentedClosureExactlyEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 69997 + 13);
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  std::size_t nodes = 8 + rng.Uniform(9);
  std::size_t edges = nodes + rng.Uniform(2 * nodes);
  for (std::size_t e = 0; e < edges; ++e) {
    db.InsertUnchecked(
        "R", {Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes))),
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(nodes)))});
  }

  Tgd copy;
  copy.body = {Atom{"R", {Term::Var("x"), Term::Var("y")}}};
  copy.head = {Atom{"T", {Term::Var("x"), Term::Var("y")}}};
  Tgd step;
  step.body = {Atom{"T", {Term::Var("x"), Term::Var("y")}},
               Atom{"R", {Term::Var("y"), Term::Var("z")}}};
  step.head = {Atom{"T", {Term::Var("x"), Term::Var("z")}}};
  std::vector<Tgd> tgds = {copy, step};

  auto indexed = ChaseInstance(tgds, {}, db, IndexedStorageMode(true));
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  auto seg = ChaseInstance(tgds, {}, db, SegmentedMode(true));
  ASSERT_TRUE(seg.ok()) << seg.status();
  EXPECT_TRUE(seg->target.Equals(indexed->target)) << "seed " << GetParam();
  EXPECT_EQ(text::InstanceToText(seg->target),
            text::InstanceToText(indexed->target))
      << "seed " << GetParam();
  ExpectSameFiringCounts(indexed->stats, seg->stats, GetParam());
  EXPECT_TRUE(seg->stats.segmented);
  // The segment layer must actually carry the hot path: prefix probes
  // served from sealed segments and head dedup through batched retain.
  EXPECT_GT(seg->stats.segment.probes, 0u) << "seed " << GetParam();
  EXPECT_GT(seg->stats.segment.retain_batches, 0u) << "seed " << GetParam();
  EXPECT_GT(seg->stats.segment.seals, 0u);
  // A segmented run that only ever declined (fallbacks with zero served
  // probes) would mean the tiered view silently never engaged.
  EXPECT_FALSE(seg->stats.segment.fallbacks > 0 &&
               seg->stats.segment.probes == 0)
      << "silent fallback: " << seg->stats.segment.fallbacks
      << " fallbacks with zero served probes (seed " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureSegmentedDiffProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace mm2::chase
