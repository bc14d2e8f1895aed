// Differential test for the chase executors: the naive nested-loop path
// (ChaseOptions::naive, the pre-index implementation kept as oracle) must
// agree with the default path (compiled plans, semi-naive delta passes) on
// every randomly generated mapping. Agreement means identical status codes
// and, on success, instances equal up to null renaming — checked as
// homomorphic equivalence plus equal core sizes (cores of hom-equivalent
// instances are isomorphic). Full-tgd closure cases invent no nulls, so
// there the results must be exactly equal. The stratified sweeps pin the
// foresight contract: attaching the mapping analysis changes nothing the
// chase derives, and its round bound holds.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis.h"
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
  auto semi = RunChase(mapping, s.db, SemiNaiveMode());

  ASSERT_EQ(naive.status().code(), semi.status().code())
      << "seed " << GetParam() << ": naive=" << naive.status()
      << " semi=" << semi.status();
  if (!naive.ok()) return;  // both rejected identically

  // The oracle path never touches the storage-layer indexes or deltas.
  EXPECT_EQ(naive->stats.index_probes, 0u);
  EXPECT_EQ(naive->stats.delta_tuples, 0u);

  // Universal solutions are unique up to homomorphic equivalence; firing
  // order may differ, so compare up to null renaming.
  EXPECT_TRUE(HomEquivalent(naive->target, semi->target))
      << "seed " << GetParam();

  // Cores of hom-equivalent instances are isomorphic, hence equal-sized.
  Instance core_naive = ComputeCore(naive->target);
  Instance core_semi = ComputeCore(semi->target);
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
// set of ground tuples, so both executors must produce *identical*
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
  auto semi = ChaseInstance(tgds, {}, db, SemiNaiveMode());
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(semi.ok()) << semi.status();

  EXPECT_TRUE(semi->target.Equals(naive->target)) << "seed " << GetParam();
  // Semi-naive actually consumed deltas (round 1 counts the extension).
  EXPECT_GT(semi->stats.delta_tuples, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureDiffProperty, ::testing::Range(0, 20));

// Stratified axis: the same sweeps with the stratum analysis attached
// (ChaseOptions::analysis, built by analysis::AnalyzeMapping for RunChase
// and AnalyzeClosure for ChaseInstance). There is one round loop; the
// analysis only stamps foresight (the termination verdict and the
// predicted round bound at the input's active domain). So the *result* —
// the instance text, which pins down null naming, rounds and every
// firing-attribution counter — must be bit-identical to the flat run
// without it, and the predicted bound must dominate the observed rounds.
ChaseOptions AnalyzedMode(const analysis::MappingAnalysis& analysis) {
  ChaseOptions o;
  o.analysis = &analysis;
  return o;
}

void ExpectSameRuleAttribution(const ChaseStats& plain,
                               const ChaseStats& analyzed, int seed) {
  EXPECT_EQ(plain.rounds, analyzed.rounds) << "seed " << seed;
  EXPECT_EQ(plain.tgd_firings, analyzed.tgd_firings) << "seed " << seed;
  EXPECT_EQ(plain.nulls_created, analyzed.nulls_created) << "seed " << seed;
  EXPECT_EQ(plain.egd_unifications, analyzed.egd_unifications)
      << "seed " << seed;
  EXPECT_EQ(plain.assignments_matched, analyzed.assignments_matched)
      << "seed " << seed;
  ASSERT_EQ(plain.rules.size(), analyzed.rules.size()) << "seed " << seed;
  for (std::size_t i = 0; i < plain.rules.size(); ++i) {
    const RuleStats& a = plain.rules[i];
    const RuleStats& b = analyzed.rules[i];
    EXPECT_EQ(a.label, b.label) << "seed " << seed;
    EXPECT_EQ(a.firings, b.firings) << "seed " << seed << " rule " << a.label;
    EXPECT_EQ(a.triggers_tested, b.triggers_tested)
        << "seed " << seed << " rule " << a.label;
    EXPECT_EQ(a.nulls_created, b.nulls_created)
        << "seed " << seed << " rule " << a.label;
    EXPECT_EQ(a.unifications, b.unifications)
        << "seed " << seed << " rule " << a.label;
  }
}

class ChaseStratifiedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseStratifiedDiffProperty, StratifiedEqualsFlatBitForBit) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);
  const analysis::MappingAnalysis analysis = analysis::AnalyzeMapping(mapping);
  EXPECT_FALSE(analysis.strata.empty()) << "seed " << GetParam();

  auto flat = RunChase(mapping, s.db, SemiNaiveMode());
  auto strat = RunChase(mapping, s.db, AnalyzedMode(analysis));
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

  // Foresight is stamped only when an analysis is attached.
  EXPECT_EQ(flat->stats.predicted_rounds, 0u);
  // S-t scenarios are always weakly acyclic, so nothing auto-arms, and the
  // predicted round bound must dominate the observed rounds.
  EXPECT_TRUE(strat->stats.predicted_terminating) << "seed " << GetParam();
  EXPECT_FALSE(strat->stats.foresight_armed) << "seed " << GetParam();
  EXPECT_LE(strat->stats.rounds, strat->stats.predicted_rounds)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseStratifiedDiffProperty,
                         ::testing::Range(0, 100));

// Transitive closure over random graphs with an independent shallow rule
// riding along, so the analysis sees more than one stratum: the analyzed
// run must stay exactly equal to the flat one.
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
  // Independent depth-1 rule: quiet after one round while the closure
  // keeps iterating.
  Tgd shallow;
  shallow.body = {Atom{"A", {Term::Var("x")}}};
  shallow.head = {Atom{"B", {Term::Var("x")}}};
  std::vector<Tgd> tgds = {copy, step, shallow};
  const analysis::MappingAnalysis analysis =
      analysis::AnalyzeClosure(tgds, {});
  ASSERT_GT(analysis.strata.size(), 1u);

  auto flat = ChaseInstance(tgds, {}, db, SemiNaiveMode());
  auto strat = ChaseInstance(tgds, {}, db, AnalyzedMode(analysis));
  ASSERT_TRUE(flat.ok()) << flat.status();
  ASSERT_TRUE(strat.ok()) << strat.status();
  EXPECT_TRUE(strat->target.Equals(flat->target)) << "seed " << GetParam();
  EXPECT_EQ(text::InstanceToText(strat->target),
            text::InstanceToText(flat->target))
      << "seed " << GetParam();
  ExpectSameRuleAttribution(flat->stats, strat->stats, GetParam());
  // Full tgds invent nothing, so the classifier must say terminating and
  // its round bound must hold.
  EXPECT_TRUE(strat->stats.predicted_terminating);
  EXPECT_LE(strat->stats.rounds, strat->stats.predicted_rounds)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureStratifiedDiffProperty,
                         ::testing::Range(0, 20));

// Seal-on-publish axis: the run a chase seals when it publishes its target
// must be a pure read-side addition. Reads the run serves (prefix ranges,
// columnar scans) must answer exactly what reads of the set answer, so a
// sealed target and an unsealed copy of it give identical enumerations and
// answers; the naive oracle, which never seals, agrees up to null renaming.

// Same tuples in fresh relations that hold no run.
Instance Unsealed(const Instance& db) {
  Instance out;
  out.UnionWith(db);
  return out;
}

// Per non-empty relation of `sealed`: a full scan (all and certain answers;
// a columnar scan of the run) and a lookup on every leading value (a
// prefix range of the run) answer over `sealed` as over `plain`.
void ExpectSameReads(const Instance& sealed, const Instance& plain,
                     int seed) {
  for (const auto& [name, rel] : sealed.relations()) {
    if (rel.empty()) continue;
    std::vector<Term> vars;
    for (std::size_t c = 0; c < rel.arity(); ++c) {
      vars.push_back(Term::Var("x" + std::to_string(c)));
    }
    logic::ConjunctiveQuery scan;
    scan.head = Atom{"Q", vars};
    scan.body = {Atom{name, vars}};
    auto all = AllAnswers(scan, sealed);
    auto all_plain = AllAnswers(scan, plain);
    ASSERT_TRUE(all.ok() && all_plain.ok()) << "seed " << seed;
    EXPECT_EQ(*all, *all_plain) << "seed " << seed << " " << name;
    EXPECT_EQ(*CertainAnswers(scan, sealed), *CertainAnswers(scan, plain))
        << "seed " << seed << " " << name;
    std::set<Value> leading;
    for (const instance::Tuple& t : rel.tuples()) leading.insert(t[0]);
    for (const Value& v : leading) {
      std::vector<Term> terms = vars;
      terms[0] = Term::Const(v);
      const std::vector<Atom> lookup = {Atom{name, terms}};
      EXPECT_EQ(MatchAtoms(lookup, sealed).rows,
                MatchAtoms(lookup, plain).rows)
          << "seed " << seed << " " << name << " " << v.ToString();
    }
  }
}

// Every non-empty relation holds a run, sealed exactly once.
void ExpectSealedOnce(const ChaseResult& result, int seed) {
  std::size_t nonempty = 0;
  for (const auto& [name, rel] : result.target.relations()) {
    if (rel.empty()) continue;
    ++nonempty;
    EXPECT_TRUE(rel.SegmentCurrent()) << "seed " << seed << " " << name;
  }
  EXPECT_EQ(result.stats.segment.seals, nonempty) << "seed " << seed;
}

class ChaseSegmentedDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseSegmentedDiffProperty, StorageModeIsImplementationDetail) {
  Scenario s = MakeScenario(static_cast<std::uint64_t>(GetParam()));
  Mapping mapping =
      Mapping::FromTgds("m", s.source, s.target, s.tgds, s.egds);

  auto naive = RunChase(mapping, s.db, NaiveMode());
  auto sealed = RunChase(mapping, s.db, SemiNaiveMode());
  ASSERT_EQ(naive.status().code(), sealed.status().code())
      << "seed " << GetParam() << ": naive=" << naive.status()
      << " sealed=" << sealed.status();
  if (!sealed.ok()) return;
  ExpectSealedOnce(*sealed, GetParam());
  EXPECT_EQ(naive->stats.segment.seals, 0u);  // the oracle never seals
  // The chase reads the source and never seals it.
  for (const auto& [name, rel] : s.db.relations()) {
    EXPECT_FALSE(rel.SegmentCurrent()) << "seed " << GetParam();
  }
  const Instance plain = Unsealed(sealed->target);
  EXPECT_EQ(text::InstanceToText(plain), text::InstanceToText(sealed->target))
      << "seed " << GetParam();
  ExpectSameReads(sealed->target, plain, GetParam());
  EXPECT_TRUE(HomEquivalent(naive->target, sealed->target))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaseSegmentedDiffProperty,
                         ::testing::Range(0, 100));

// Transitive closure with the seal on publish: full tgds invent no nulls,
// so the fixpoint must equal the oracle's exactly, the chase seals R and T
// once each and nothing in between, and the sealed closure answers every
// read like the oracle's unsealed one. Chasing an already-sealed input
// reads R through its run all the way (R is never written) and must not
// change the result.
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

  auto naive = ChaseInstance(tgds, {}, db, NaiveMode());
  ASSERT_TRUE(naive.ok()) << naive.status();
  auto sealed = ChaseInstance(tgds, {}, db, SemiNaiveMode());
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  EXPECT_TRUE(sealed->target.Equals(naive->target)) << "seed " << GetParam();
  EXPECT_EQ(text::InstanceToText(sealed->target),
            text::InstanceToText(naive->target))
      << "seed " << GetParam();
  EXPECT_EQ(sealed->stats.segment.seals, 2u) << "seed " << GetParam();
  ExpectSealedOnce(*sealed, GetParam());
  EXPECT_FALSE(naive->target.Find("T")->SegmentCurrent());
  ExpectSameReads(sealed->target, naive->target, GetParam());

  Instance sealed_input = db;
  sealed_input.PrepareAllSegments();
  auto again = ChaseInstance(tgds, {}, sealed_input, SemiNaiveMode());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(text::InstanceToText(again->target),
            text::InstanceToText(sealed->target))
      << "seed " << GetParam();
  EXPECT_EQ(again->stats.tgd_firings, sealed->stats.tgd_firings);
  EXPECT_EQ(again->stats.assignments_matched,
            sealed->stats.assignments_matched);
  EXPECT_GT(again->stats.segment.probes, 0u) << "seed " << GetParam();
  EXPECT_EQ(again->stats.segment.seals, 1u) << "seed " << GetParam();  // T
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureSegmentedDiffProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace mm2::chase
