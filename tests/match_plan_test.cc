// Compiled match plans (chase/plan.h) against the oracles they replace:
//  - a differential sweep of random atom lists over random instances
//    (unsealed, sealed, and mutated-after-seal relations) checks
//    MatchAtoms, CertainAnswers and AllAnswers against MatchAtomsNaive;
//  - access-path pins check that an outermost lookup bound only on a
//    non-leading column and selective {0, c}-bound head probes never build
//    a hash index, and that an unselective one moves to the hash index
//    without changing the chase result;
//  - a golden firing-order test pins exact instance text (null labels
//    included), firing and null counters and provenance size for fixed
//    exchange scenarios, so no executor change can reorder firings
//    silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "instance/instance.h"
#include "instance/value.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "logic/term.h"
#include "model/schema.h"
#include "text/sexpr.h"
#include "workload/generators.h"

namespace mm2::chase {
namespace {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Egd;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using workload::Rng;

// ---------------------------------------------------------------------------
// Differential sweep
// ---------------------------------------------------------------------------

Value SmallValue(Rng& rng) {
  // Mostly small ints (joins hit), sometimes a labeled null (certain
  // answers must drop it).
  if (rng.Chance(0.1)) {
    return Value::LabeledNull(static_cast<std::int64_t>(rng.Uniform(3)));
  }
  return Value::Int64(static_cast<std::int64_t>(rng.Uniform(4)));
}

Tuple RandomTuple(Rng& rng, std::size_t arity) {
  Tuple t;
  for (std::size_t c = 0; c < arity; ++c) t.push_back(SmallValue(rng));
  return t;
}

// Three relations of arity 1..3, each left in one of four states: never
// sealed, sealed (a current run), or mutated after the seal by inserts or
// by an erase (the run dropped).
Instance RandomInstance(Rng& rng, std::vector<std::size_t>* arities) {
  Instance db;
  arities->clear();
  for (std::size_t r = 0; r < 3; ++r) {
    const std::string name = "R" + std::to_string(r);
    const std::size_t arity = 1 + rng.Uniform(3);
    arities->push_back(arity);
    db.DeclareRelation(name, arity);
    instance::RelationInstance* rel = db.FindMutable(name);
    const std::size_t state = rng.Uniform(4);
    const std::size_t rows = rng.Uniform(12);
    for (std::size_t i = 0; i < rows; ++i) rel->Insert(RandomTuple(rng, arity));
    if (state == 0) continue;
    rel->PrepareSegments();
    if (state == 2) {
      for (std::size_t i = 1 + rng.Uniform(3); i > 0; --i) {
        rel->Insert(RandomTuple(rng, arity));
      }
    } else if (state == 3 && !rel->empty()) {
      rel->Erase(*rel->tuples().begin());
    }
  }
  return db;
}

// 1..3 atoms; any column may hold a constant, variables repeat within and
// across atoms.
std::vector<Atom> RandomAtoms(Rng& rng, const std::vector<std::size_t>& arities,
                              std::set<std::string>* vars) {
  std::vector<Atom> atoms;
  vars->clear();
  std::vector<std::string> pool;
  const std::size_t n = 1 + rng.Uniform(3);
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t r = rng.Uniform(arities.size());
    Atom atom;
    atom.relation = "R" + std::to_string(r);
    for (std::size_t c = 0; c < arities[r]; ++c) {
      if (rng.Chance(0.25)) {
        atom.terms.push_back(Term::Const(SmallValue(rng)));
      } else if (!pool.empty() && rng.Chance(0.4)) {
        atom.terms.push_back(Term::Var(pool[rng.Uniform(pool.size())]));
      } else {
        pool.push_back("v" + std::to_string(pool.size()));
        vars->insert(pool.back());
        atom.terms.push_back(Term::Var(pool.back()));
      }
    }
    atoms.push_back(std::move(atom));
  }
  return atoms;
}

std::vector<Assignment> Sorted(std::vector<Assignment> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

class MatchPlanDiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatchPlanDiffProperty, AgreesWithNaiveOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  std::vector<std::size_t> arities;
  Instance db = RandomInstance(rng, &arities);
  std::set<std::string> vars;
  std::vector<Atom> atoms = RandomAtoms(rng, arities, &vars);

  std::vector<Assignment> naive = MatchAtomsNaive(atoms, db);
  EXPECT_EQ(Sorted(MatchAtoms(atoms, db)), Sorted(naive))
      << "seed " << GetParam();

  // A single atom enumerates in set order on every access path, so the
  // first match is the oracle's first match.
  std::vector<Atom> single = {atoms.front()};
  EXPECT_EQ(MatchAtoms(single, db, 1), MatchAtomsNaive(single, db, 1))
      << "seed " << GetParam();
  EXPECT_EQ(MatchAtoms(single, db), MatchAtomsNaive(single, db))
      << "seed " << GetParam();

  // Certain and possible answers against a projection of the oracle.
  ConjunctiveQuery query;
  query.head.relation = "Q";
  for (const std::string& v : vars) {
    if (rng.Chance(0.6)) query.head.terms.push_back(Term::Var(v));
  }
  if (rng.Chance(0.2)) query.head.terms.push_back(Term::Const(Value::Int64(9)));
  query.body = atoms;
  std::set<Tuple> all;
  std::set<Tuple> certain;
  for (const Assignment& a : naive) {
    Tuple row;
    bool has_null = false;
    for (const Term& t : query.head.terms) {
      row.push_back(t.is_constant() ? t.value() : a.at(t.name()));
      has_null |= row.back().is_labeled_null();
    }
    if (!has_null) certain.insert(row);
    all.insert(std::move(row));
  }
  auto got_all = AllAnswers(query, db);
  auto got_certain = CertainAnswers(query, db);
  ASSERT_TRUE(got_all.ok()) << got_all.status();
  ASSERT_TRUE(got_certain.ok()) << got_certain.status();
  EXPECT_EQ(*got_all, std::vector<Tuple>(all.begin(), all.end()))
      << "seed " << GetParam();
  EXPECT_EQ(*got_certain, std::vector<Tuple>(certain.begin(), certain.end()))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, MatchPlanDiffProperty,
                         ::testing::Range(0, 200));

// ---------------------------------------------------------------------------
// Access-path pins
// ---------------------------------------------------------------------------

TEST(MatchPlanAccessTest, NonLeadingLookupBuildsNoHashIndex) {
  Instance db;
  db.DeclareRelation("T", 2);
  for (std::int64_t i = 0; i < 64; ++i) {
    db.InsertUnchecked("T", {Value::Int64(i), Value::Int64(i % 8)});
  }
  db.PrepareAllSegments();
  ConjunctiveQuery query;
  query.head = Atom{"Q", {Term::Var("x")}};
  query.body = {Atom{"T", {Term::Var("x"), Term::Const(Value::Int64(3))}}};
  const std::uint64_t builds0 = db.IndexStatsTotal().builds;
  auto answers = CertainAnswers(query, db);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->size(), 8u);
  EXPECT_EQ(MatchAtoms(query.body, db).size(), 8u);
  EXPECT_EQ(db.IndexStatsTotal().builds, builds0);
}

model::Relation IntRelation(const std::string& name, std::size_t arity) {
  std::vector<model::Attribute> attrs;
  for (std::size_t i = 0; i < arity; ++i) {
    attrs.push_back({"a" + std::to_string(i), model::DataType::Int64()});
  }
  return model::Relation(name, std::move(attrs), {0});
}

TEST(MatchPlanAccessTest, HeadProbeBoundOnLeadingColumnBuildsNoHashIndex) {
  // S(x, z) -> exists y. T(x, y, z): the restricted-chase probe binds
  // columns {0, 2} of T, served by an ordered range over column 0.
  model::Schema source("Src", model::Metamodel::kRelational);
  source.AddRelation(IntRelation("S", 2));
  model::Schema target("Tgt", model::Metamodel::kRelational);
  target.AddRelation(IntRelation("T", 3));
  Tgd tgd;
  tgd.body = {Atom{"S", {Term::Var("x"), Term::Var("z")}}};
  tgd.head = {Atom{"T", {Term::Var("x"), Term::Var("y"), Term::Var("z")}}};
  Mapping mapping = Mapping::FromTgds("m", source, target, {tgd});
  Instance db = Instance::EmptyFor(source);
  for (std::int64_t i = 0; i < 32; ++i) {
    db.InsertUnchecked("S", {Value::Int64(i % 8), Value::Int64(i)});
  }
  auto result = RunChase(mapping, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.index_builds, 0u);
  EXPECT_EQ(result->stats.tgd_firings, 32u);
  EXPECT_EQ(result->target.Find("T")->size(), 32u);
}

// The same head probe with k distinct leading values over n rows: at k = n
// each probe walks about one row and the ordered range stays; at k = 1
// every probe walks the whole relation, so the plan moves the probe to the
// hash index (one build). Both paths enumerate in set order, so the chase
// reproduces the naive oracle exactly, null labels included.
TEST(MatchPlanAccessTest, UnselectiveLeadingColumnSwitchesToHashIndex) {
  model::Schema source("Src", model::Metamodel::kRelational);
  source.AddRelation(IntRelation("S", 2));
  model::Schema target("Tgt", model::Metamodel::kRelational);
  target.AddRelation(IntRelation("T", 3));
  Tgd tgd;
  tgd.body = {Atom{"S", {Term::Var("x"), Term::Var("z")}}};
  tgd.head = {Atom{"T", {Term::Var("x"), Term::Var("y"), Term::Var("z")}}};
  Mapping mapping = Mapping::FromTgds("m", source, target, {tgd});
  constexpr std::int64_t kRows = 4000;
  for (std::int64_t k : {kRows, std::int64_t{1}}) {
    Instance db = Instance::EmptyFor(source);
    for (std::int64_t i = 0; i < kRows; ++i) {
      db.InsertUnchecked("S", {Value::Int64(i % k), Value::Int64(i)});
    }
    auto result = RunChase(mapping, db);
    ASSERT_TRUE(result.ok()) << result.status();
    ChaseOptions naive;
    naive.naive = true;
    naive.semi_naive = false;
    auto oracle = RunChase(mapping, db, naive);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(text::InstanceToText(result->target),
              text::InstanceToText(oracle->target))
        << "k " << k;
    EXPECT_EQ(result->stats.tgd_firings, static_cast<std::size_t>(kRows));
    if (k == 1) {
      EXPECT_GE(result->stats.index_builds, 1u) << "k " << k;
    } else {
      EXPECT_EQ(result->stats.index_builds, 0u) << "k " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden firing order
// ---------------------------------------------------------------------------

// A random exchange: tgds with joins, body constants and existential
// heads, the same tgds skolemized into SO clauses (some with premise
// equalities), and occasional target key egds.
struct GoldenScenario {
  model::Schema source{"Src", model::Metamodel::kRelational};
  model::Schema target{"Tgt", model::Metamodel::kRelational};
  std::vector<Tgd> tgds;
  logic::SoTgd so;
  std::vector<Egd> egds;
  Instance db;
};

GoldenScenario MakeGoldenScenario(std::uint64_t seed) {
  Rng rng(seed * 31 + 5);
  GoldenScenario s;
  std::vector<std::size_t> src_arity;
  std::vector<std::size_t> tgt_arity;
  for (std::size_t i = 0; i < 3; ++i) {
    src_arity.push_back(1 + rng.Uniform(3));
    s.source.AddRelation(IntRelation("R" + std::to_string(i), src_arity[i]));
    tgt_arity.push_back(1 + rng.Uniform(3));
    s.target.AddRelation(IntRelation("T" + std::to_string(i), tgt_arity[i]));
  }
  logic::NameGenerator functions("f");
  const std::size_t rules = 2 + rng.Uniform(3);
  for (std::size_t r = 0; r < rules; ++r) {
    Tgd tgd;
    std::vector<std::string> vars;
    const std::size_t body_atoms = 1 + rng.Uniform(2);
    for (std::size_t b = 0; b < body_atoms; ++b) {
      const std::size_t rel = rng.Uniform(3);
      Atom atom{"R" + std::to_string(rel), {}};
      for (std::size_t c = 0; c < src_arity[rel]; ++c) {
        if (rng.Chance(0.1)) {
          atom.terms.push_back(Term::Const(
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(4)))));
        } else if (!vars.empty() && rng.Chance(0.5)) {
          atom.terms.push_back(Term::Var(vars[rng.Uniform(vars.size())]));
        } else {
          vars.push_back("x" + std::to_string(vars.size()));
          atom.terms.push_back(Term::Var(vars.back()));
        }
      }
      tgd.body.push_back(std::move(atom));
    }
    if (vars.empty()) vars.push_back("x0");  // all-constant body: no head vars
    std::size_t existentials = 0;
    const std::size_t head_atoms = 1 + rng.Uniform(2);
    for (std::size_t h = 0; h < head_atoms; ++h) {
      const std::size_t rel = rng.Uniform(3);
      Atom atom{"T" + std::to_string(rel), {}};
      for (std::size_t c = 0; c < tgt_arity[rel]; ++c) {
        if (rng.Chance(0.35)) {
          atom.terms.push_back(Term::Var("y" + std::to_string(existentials++)));
        } else {
          atom.terms.push_back(Term::Var(vars[rng.Uniform(vars.size())]));
        }
      }
      tgd.head.push_back(std::move(atom));
    }
    if (tgd.BodyVariables().count("x0") == 0) {
      // The head used a variable no body atom binds; keep the rule valid.
      for (Atom& atom : tgd.head) {
        for (Term& t : atom.terms) {
          if (t.is_variable() && t.name() == "x0") {
            t = Term::Const(Value::Int64(0));
          }
        }
      }
    }
    logic::SoTgdClause clause = logic::Skolemize(tgd, &functions, &s.so.functions);
    // Premise equalities: a Skolem term forced equal to a body value
    // (unifies a null with a constant), or two body values (a filter).
    std::vector<Term> skolems;
    for (const Atom& atom : clause.head) {
      for (const Term& t : atom.terms) {
        if (t.is_function()) skolems.push_back(t);
      }
    }
    const std::set<std::string> body_vars = tgd.BodyVariables();
    std::vector<std::string> bv(body_vars.begin(), body_vars.end());
    if (!skolems.empty() && !bv.empty() && rng.Chance(0.3)) {
      clause.equalities.emplace_back(skolems[rng.Uniform(skolems.size())],
                                     Term::Var(bv[rng.Uniform(bv.size())]));
    }
    if (bv.size() >= 2 && rng.Chance(0.2)) {
      clause.equalities.emplace_back(Term::Var(bv[0]), Term::Var(bv[1]));
    }
    s.so.clauses.push_back(std::move(clause));
    s.tgds.push_back(std::move(tgd));
  }
  for (std::size_t rel = 0; rel < 3; ++rel) {
    if (tgt_arity[rel] < 2 || rng.Chance(0.5)) continue;
    Atom a1{"T" + std::to_string(rel), {Term::Var("k")}};
    Atom a2{"T" + std::to_string(rel), {Term::Var("k")}};
    for (std::size_t c = 1; c < tgt_arity[rel]; ++c) {
      a1.terms.push_back(Term::Var("u" + std::to_string(c)));
      a2.terms.push_back(Term::Var("v" + std::to_string(c)));
    }
    Egd egd;
    egd.body = {std::move(a1), std::move(a2)};
    egd.left = "u1";
    egd.right = "v1";
    s.egds.push_back(std::move(egd));
  }
  s.db = Instance::EmptyFor(s.source);
  for (std::size_t rel = 0; rel < 3; ++rel) {
    const std::size_t rows = 3 + rng.Uniform(8);
    for (std::size_t row = 0; row < rows; ++row) {
      Tuple t;
      for (std::size_t c = 0; c < src_arity[rel]; ++c) {
        t.push_back(Value::Int64(static_cast<std::int64_t>(rng.Uniform(5))));
      }
      s.db.InsertUnchecked("R" + std::to_string(rel), std::move(t));
    }
  }
  return s;
}

struct GoldenRun {
  std::string outcome;  // status text, or the target instance text
  std::size_t tgd_firings = 0;
  std::size_t nulls_created = 0;
  std::size_t provenance = 0;
};

GoldenRun RunGolden(const Mapping& mapping, const Instance& db) {
  ChaseOptions options;
  options.track_provenance = true;
  auto result = RunChase(mapping, db, options);
  if (!result.ok()) return {result.status().ToString(), 0, 0, 0};
  return {text::InstanceToText(result->target), result->stats.tgd_firings,
          result->stats.nulls_created, result->provenance.size()};
}

// Recorded by running this scenario generator against the map-based
// matcher that preceded compiled plans. The chase must reproduce every
// field, null labels included.
struct GoldenCase {
  std::uint64_t seed;
  bool second_order;
  const char* outcome;
  std::size_t tgd_firings;
  std::size_t nulls_created;
  std::size_t provenance;
};

// clang-format off
const GoldenCase kGolden[] = {
    {0, false, R"golden((instance
  (T0)
  (T1 (0) (2) (3) (4))
  (T2 (N0 0) (N1 2) (N2 3) (N3 4))
)
)golden", 4, 4, 8},
    {0, true, R"golden((instance
  (T0)
  (T1 (0) (2) (3) (4))
  (T2 (N0 0) (N1 2) (N2 3) (N3 4))
)
)golden", 4, 4, 8},
    {1, false, R"golden((instance
  (T0 (0 N0) (1 N1))
  (T1 (0) (1) (2))
  (T2 (0) (1) (2) (3) (4))
)
)golden", 8, 2, 10},
    {1, true, R"golden((instance
  (T0 (0 0) (1 1))
  (T1 (0) (1) (2))
  (T2 (0) (1) (2) (3) (4))
)
)golden", 8, 2, 10},
    {2, false, R"golden((instance
  (T0 (0) (1) (2) (4))
  (T1 (0 N0) (N1 0) (N2 0) (N3 1) (N4 3) (N5 3))
  (T2 (0 0 N6) (0 0 N8))
)
)golden", 7, 9, 12},
    {2, true, R"golden((instance
  (T0 (0) (1) (2) (4))
  (T1 (0 N3) (N4 0) (N5 0) (N6 0) (N7 1) (N8 3) (N9 3) (N10 3))
  (T2 (0 0 N11) (0 0 N13))
)
)golden", 12, 14, 14},
    {3, false, R"golden(Inconsistent: egd forces distinct constants equal: 1 = 2)golden", 0, 0, 0},
    {3, true, R"golden(Inconsistent: egd forces distinct constants equal: 1 = 2)golden", 0, 0, 0},
    {4, false, R"golden((instance
  (T0)
  (T1 (N0 N1))
  (T2)
)
)golden", 1, 2, 1},
    {4, true, R"golden((instance
  (T0)
  (T1 (N0 N1) (N2 N3) (N4 N5))
  (T2)
)
)golden", 3, 6, 3},
    {5, false, R"golden((instance
  (T0 (N8 1 1) (N11 3 3))
  (T1 (1 N12) (N0 N1) (N2 1) (N3 2) (N4 3) (N5 4) (N6 N7) (N9 N10))
  (T2)
)
)golden", 8, 13, 10},
    {5, true, R"golden((instance
  (T0 (N32 1 1) (N35 3 3))
  (T1 (1 N36) (N0 N1) (N2 N3) (N4 N5) (N6 N7) (N8 N9) (N10 N11) (N12 N13) (N14 1) (N15 2) (N16 3) (N17 4) (N18 1) (N19 2) (N20 3) (N21 4) (N22 1) (N23 2) (N24 3) (N25 4) (N26 1) (N27 2) (N28 3) (N29 4) (N30 N31) (N33 N34))
  (T2)
)
)golden", 26, 37, 28},
    {6, false, R"golden((instance
  (T0 (0 4 0) (1 0 1) (1 0 4) (2 0 2) (2 2 3) (2 4 0) (4 2 0) (4 3 0) (4 4 4))
  (T1)
  (T2 (N0) (N1) (N2) (N3) (N4) (N5) (N6) (N7) (N8))
)
)golden", 9, 9, 18},
    {6, true, R"golden((instance
  (T0 (2 2 3) (4 4 4))
  (T1)
  (T2 (N0) (N1))
)
)golden", 2, 2, 4},
    {7, false, R"golden((instance
  (T0 (0) (1) (2) (3) (4) (N0) (N1) (N2) (N3))
  (T1 (0 0) (1 1) (2 2) (3 3) (4 4))
  (T2)
)
)golden", 9, 4, 14},
    {7, true, R"golden((instance
  (T0 (0) (1) (2) (3) (4) (N0) (N1) (N2) (N3) (N4) (N5))
  (T1 (0 0) (1 1) (2 2) (3 3) (4 4))
  (T2)
)
)golden", 11, 6, 16},
    {8, false, R"golden((instance
  (T0 (N0) (N1))
  (T1)
  (T2 (1 1 N2))
)
)golden", 2, 3, 3},
    {8, true, R"golden((instance
  (T0 (N0) (N1))
  (T1)
  (T2 (1 1 N2))
)
)golden", 2, 3, 3},
    {9, false, R"golden((instance
  (T0)
  (T1 (N2) (N5))
  (T2 (N0 0 N1) (N3 1 N4))
)
)golden", 2, 6, 4},
    {9, true, R"golden((instance
  (T0)
  (T1 (N2) (N5))
  (T2 (N0 0 N1) (N3 1 N4))
)
)golden", 2, 6, 4},
    {10, false, R"golden((instance
  (T0 (0 N3 0) (1 N7 1) (3 N1 3) (3 N5 3) (4 N9 4))
  (T1 (0 N0 3) (1 N2 0) (1 N4 3) (3 N6 1) (3 N8 4))
  (T2)
)
)golden", 5, 10, 10},
    {10, true, R"golden((instance
  (T0 (0 N3 0) (1 N7 1) (3 N1 3) (3 N5 3) (4 N9 4))
  (T1 (0 N0 3) (1 N2 0) (1 N4 3) (3 N6 1) (3 N8 4))
  (T2)
)
)golden", 5, 10, 10},
    {11, false, R"golden((instance
  (T0 (N0))
  (T1)
  (T2)
)
)golden", 1, 1, 1},
    {11, true, R"golden((instance
  (T0 (1) (3))
  (T1)
  (T2)
)
)golden", 2, 14, 2},
};
// clang-format on

TEST(MatchPlanGoldenTest, FiringOrderMatchesRecordedRuns) {
  for (const GoldenCase& expected : kGolden) {
    GoldenScenario s = MakeGoldenScenario(expected.seed);
    Mapping mapping =
        expected.second_order
            ? Mapping::FromSoTgd("so", s.source, s.target, s.so, s.egds)
            : Mapping::FromTgds("fo", s.source, s.target, s.tgds, s.egds);
    const GoldenRun got = RunGolden(mapping, s.db);
    const std::string where = "seed " + std::to_string(expected.seed) +
                              (expected.second_order ? " (SO)" : " (FO)");
    EXPECT_EQ(got.outcome, expected.outcome) << where;
    EXPECT_EQ(got.tgd_firings, expected.tgd_firings) << where;
    EXPECT_EQ(got.nulls_created, expected.nulls_created) << where;
    EXPECT_EQ(got.provenance, expected.provenance) << where;
  }
}

}  // namespace
}  // namespace mm2::chase
