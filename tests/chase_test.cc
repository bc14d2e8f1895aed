#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "chase/chase.h"
#include "instance/instance.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "model/schema.h"

namespace mm2::chase {
namespace {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Egd;
using logic::Mapping;
using logic::SoTgd;
using logic::SoTgdClause;
using logic::Term;
using logic::Tgd;
using model::DataType;
using model::Metamodel;
using model::SchemaBuilder;

Term V(const char* name) { return Term::Var(name); }

model::Schema SourceSchema() {
  return SchemaBuilder("S", Metamodel::kRelational)
      .Relation("Emp", {{"eid", DataType::Int64()},
                        {"dept", DataType::String()}})
      .Build();
}

model::Schema TargetSchema() {
  return SchemaBuilder("T", Metamodel::kRelational)
      .Relation("Worker", {{"eid", DataType::Int64()},
                           {"mgr", DataType::Int64()}})
      .Relation("Mgr", {{"mid", DataType::Int64()}})
      .Build();
}

Instance SourceDb() {
  Instance db;
  db.DeclareRelation("Emp", 2);
  EXPECT_TRUE(db.Insert("Emp", {Value::Int64(1), Value::String("sales")}).ok());
  EXPECT_TRUE(db.Insert("Emp", {Value::Int64(2), Value::String("eng")}).ok());
  return db;
}

TEST(MatchAtomsTest, SingleAtomBindsVariables) {
  Instance db = SourceDb();
  Matches matches = MatchAtoms({Atom{"Emp", {V("x"), V("d")}}}, db);
  EXPECT_EQ(matches.count, 2u);
  EXPECT_EQ(matches.slots.size(), 2u);
  EXPECT_EQ(matches.rows.size(), 4u);
}

TEST(MatchAtomsTest, ConstantsFilter) {
  Instance db = SourceDb();
  Matches matches = MatchAtoms(
      {Atom{"Emp", {V("x"), Term::Const(Value::String("eng"))}}}, db);
  ASSERT_EQ(matches.count, 1u);
  EXPECT_EQ(matches.row(0)[matches.slots.Find("x")], Value::Int64(2));
}

TEST(MatchAtomsTest, RepeatedVariablesEnforceEquality) {
  Instance db;
  db.DeclareRelation("R", 2);
  ASSERT_TRUE(db.Insert("R", {Value::Int64(1), Value::Int64(1)}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int64(1), Value::Int64(2)}).ok());
  EXPECT_EQ(MatchAtoms({Atom{"R", {V("x"), V("x")}}}, db).count, 1u);
}

TEST(MatchAtomsTest, JoinAcrossAtoms) {
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("S", 2);
  ASSERT_TRUE(db.Insert("R", {Value::Int64(1), Value::Int64(2)}).ok());
  ASSERT_TRUE(db.Insert("S", {Value::Int64(2), Value::Int64(3)}).ok());
  ASSERT_TRUE(db.Insert("S", {Value::Int64(9), Value::Int64(9)}).ok());
  Matches matches = MatchAtoms(
      {Atom{"R", {V("x"), V("y")}}, Atom{"S", {V("y"), V("z")}}}, db);
  ASSERT_EQ(matches.count, 1u);
  EXPECT_EQ(matches.row(0)[matches.slots.Find("z")], Value::Int64(3));
}

TEST(MatchAtomsTest, LimitStopsEarly) {
  Instance db = SourceDb();
  EXPECT_EQ(MatchAtoms({Atom{"Emp", {V("x"), V("d")}}}, db, 1).count, 1u);
}

TEST(MatchAtomsTest, MissingRelationYieldsNoMatches) {
  Instance db = SourceDb();
  EXPECT_EQ(MatchAtoms({Atom{"Nope", {V("x")}}}, db).count, 0u);
}

TEST(ChaseTest, FullTgdCopiesData) {
  // Emp(e, d) -> Worker(e, e) : full tgd, no nulls.
  Tgd tgd;
  tgd.body = {Atom{"Emp", {V("e"), V("d")}}};
  tgd.head = {Atom{"Worker", {V("e"), V("e")}}};
  Mapping m = Mapping::FromTgds("m", SourceSchema(), TargetSchema(), {tgd});
  auto result = RunChase(m, SourceDb());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->target.Find("Worker")->size(), 2u);
  EXPECT_FALSE(result->target.HasLabeledNulls());
  EXPECT_EQ(result->stats.nulls_created, 0u);
}

TEST(ChaseTest, ExistentialsBecomeLabeledNulls) {
  // Emp(e, d) -> Worker(e, m) & Mgr(m): m is existential.
  Tgd tgd;
  tgd.body = {Atom{"Emp", {V("e"), V("d")}}};
  tgd.head = {Atom{"Worker", {V("e"), V("m")}}, Atom{"Mgr", {V("m")}}};
  Mapping m = Mapping::FromTgds("m", SourceSchema(), TargetSchema(), {tgd});
  auto result = RunChase(m, SourceDb());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->target.Find("Worker")->size(), 2u);
  EXPECT_EQ(result->target.Find("Mgr")->size(), 2u);
  EXPECT_TRUE(result->target.HasLabeledNulls());
  EXPECT_EQ(result->stats.nulls_created, 2u);
  // The null in Worker matches the null in Mgr per source tuple.
  for (const Tuple& t : result->target.Find("Worker")->tuples()) {
    EXPECT_TRUE(t[1].is_labeled_null());
    EXPECT_TRUE(result->target.Find("Mgr")->Contains({t[1]}));
  }
}

TEST(ChaseTest, RestrictedChaseDoesNotRefireSatisfiedRules) {
  // The same rule listed twice: the second copy finds its head already
  // satisfied and invents nothing (restricted/standard chase).
  Tgd tgd;
  tgd.body = {Atom{"Emp", {V("e"), V("d")}}};
  tgd.head = {Atom{"Worker", {V("e"), V("m")}}};
  Mapping m =
      Mapping::FromTgds("m", SourceSchema(), TargetSchema(), {tgd, tgd});
  auto result = RunChase(m, SourceDb());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.nulls_created, 2u);  // one per Emp row, not four
  EXPECT_EQ(result->target.Find("Worker")->size(), 2u);
}

TEST(ChaseTest, UniversalSolutionHasHomomorphismIntoOtherSolutions) {
  Tgd tgd;
  tgd.body = {Atom{"Emp", {V("e"), V("d")}}};
  tgd.head = {Atom{"Worker", {V("e"), V("m")}}, Atom{"Mgr", {V("m")}}};
  Mapping m = Mapping::FromTgds("m", SourceSchema(), TargetSchema(), {tgd});
  auto result = RunChase(m, SourceDb());
  ASSERT_TRUE(result.ok());

  // Hand-build another solution with concrete manager ids.
  Instance other;
  other.DeclareRelation("Worker", 2);
  other.DeclareRelation("Mgr", 1);
  ASSERT_TRUE(other.Insert("Worker", {Value::Int64(1), Value::Int64(77)}).ok());
  ASSERT_TRUE(other.Insert("Worker", {Value::Int64(2), Value::Int64(77)}).ok());
  ASSERT_TRUE(other.Insert("Mgr", {Value::Int64(77)}).ok());

  EXPECT_TRUE(ExistsHomomorphism(result->target, other));
  // And not vice versa: `other` equates managers, chase result does not
  // force that, but a homomorphism maps constants to themselves, so 77
  // cannot move; it actually *does* embed. Use a genuinely incompatible
  // instance instead.
  Instance incompatible;
  incompatible.DeclareRelation("Worker", 2);
  incompatible.DeclareRelation("Mgr", 1);
  ASSERT_TRUE(
      incompatible.Insert("Worker", {Value::Int64(1), Value::Int64(77)}).ok());
  ASSERT_TRUE(incompatible.Insert("Mgr", {Value::Int64(77)}).ok());
  EXPECT_FALSE(ExistsHomomorphism(result->target, incompatible));
}

// One join depth per tuple of the left instance: the search must not
// recurse per atom, and planning must stay near-linear in the atom count.
TEST(ChaseTest, HomomorphismOverTwentyThousandTuples) {
  constexpr std::int64_t kTuples = 20000;
  Instance from;
  Instance to;
  from.DeclareRelation("R", 2);
  to.DeclareRelation("R", 2);
  for (std::int64_t i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(from.Insert("R", {Value::Int64(i), Value::LabeledNull(i)}).ok());
    ASSERT_TRUE(to.Insert("R", {Value::Int64(i), Value::Int64(i + 1)}).ok());
  }
  EXPECT_TRUE(ExistsHomomorphism(from, to));
  // A ground tuple absent on the right maps nowhere.
  ASSERT_TRUE(
      from.Insert("R", {Value::Int64(kTuples), Value::Int64(0)}).ok());
  EXPECT_FALSE(ExistsHomomorphism(from, to));
}

TEST(ChaseTest, TargetEgdUnifiesNulls) {
  // Two tgds give each Emp a worker row with an invented manager; the egd
  // says Worker.eid is a key, forcing the two invented managers together.
  Tgd t1;
  t1.body = {Atom{"Emp", {V("e"), V("d")}}};
  t1.head = {Atom{"Worker", {V("e"), V("m")}}};
  Egd key;
  key.body = {Atom{"Worker", {V("e"), V("m1")}},
              Atom{"Worker", {V("e"), V("m2")}}};
  key.left = "m1";
  key.right = "m2";
  Mapping m =
      Mapping::FromTgds("m", SourceSchema(), TargetSchema(), {t1}, {key});
  auto result = RunChase(m, SourceDb());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->target.Find("Worker")->size(), 2u);
}

TEST(ChaseTest, EgdOnConstantsReportsInconsistency) {
  // Source has two tuples with same eid but different depts; egd forces
  // dept equality on target copy -> inconsistent.
  model::Schema src = SourceSchema();
  model::Schema tgt = SchemaBuilder("T2", Metamodel::kRelational)
                          .Relation("D", {{"eid", DataType::Int64()},
                                          {"dept", DataType::String()}})
                          .Build();
  Tgd copy;
  copy.body = {Atom{"Emp", {V("e"), V("d")}}};
  copy.head = {Atom{"D", {V("e"), V("d")}}};
  Egd key;
  key.body = {Atom{"D", {V("e"), V("d1")}}, Atom{"D", {V("e"), V("d2")}}};
  key.left = "d1";
  key.right = "d2";

  Instance db;
  db.DeclareRelation("Emp", 2);
  ASSERT_TRUE(db.Insert("Emp", {Value::Int64(1), Value::String("a")}).ok());
  ASSERT_TRUE(db.Insert("Emp", {Value::Int64(1), Value::String("b")}).ok());

  Mapping m = Mapping::FromTgds("m", src, tgt, {copy}, {key});
  auto result = RunChase(m, db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInconsistent);
}

TEST(ChaseTest, SoTgdFunctionsInventOneNullPerArgumentTuple) {
  // Emp(e, d) -> Worker(e, f(d)): same dept => same invented manager.
  SoTgd so;
  so.functions = {"f"};
  SoTgdClause clause;
  clause.body = {Atom{"Emp", {V("e"), V("d")}}};
  clause.head = {Atom{"Worker", {V("e"), Term::Func("f", {V("d")})}}};
  so.clauses = {clause};
  Mapping m = Mapping::FromSoTgd("m", SourceSchema(), TargetSchema(), so);

  Instance db;
  db.DeclareRelation("Emp", 2);
  ASSERT_TRUE(db.Insert("Emp", {Value::Int64(1), Value::String("sales")}).ok());
  ASSERT_TRUE(db.Insert("Emp", {Value::Int64(2), Value::String("sales")}).ok());
  ASSERT_TRUE(db.Insert("Emp", {Value::Int64(3), Value::String("eng")}).ok());

  auto result = RunChase(m, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.nulls_created, 2u);  // one per distinct dept
  std::map<Value, Value> mgr_of;
  for (const Tuple& t : result->target.Find("Worker")->tuples()) {
    mgr_of[t[0]] = t[1];
  }
  EXPECT_EQ(mgr_of.at(Value::Int64(1)), mgr_of.at(Value::Int64(2)));
  EXPECT_NE(mgr_of.at(Value::Int64(1)), mgr_of.at(Value::Int64(3)));
}

TEST(ChaseTest, SoClauseWithUnboundHeadVariableIsInternalError) {
  // Emp(e, d) -> Worker(e, m): no body atom binds m. Mapping validation
  // does not look inside SO clauses, so the chase itself must refuse it.
  SoTgd so;
  SoTgdClause clause;
  clause.body = {Atom{"Emp", {V("e"), V("d")}}};
  clause.head = {Atom{"Worker", {V("e"), V("m")}}};
  so.clauses = {clause};
  Mapping m = Mapping::FromSoTgd("m", SourceSchema(), TargetSchema(), so);
  auto result = RunChase(m, SourceDb());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find(
                "unbound head variable in SO-tgd clause"),
            std::string::npos);
}

TEST(ChaseTest, ProvenanceRecordsWitnesses) {
  Tgd tgd;
  tgd.body = {Atom{"Emp", {V("e"), V("d")}}};
  tgd.head = {Atom{"Worker", {V("e"), V("e")}}};
  Mapping m = Mapping::FromTgds("m", SourceSchema(), TargetSchema(), {tgd});
  ChaseOptions options;
  options.track_provenance = true;
  auto result = RunChase(m, SourceDb(), options);
  ASSERT_TRUE(result.ok());
  Fact fact{"Worker", {Value::Int64(1), Value::Int64(1)}};
  const std::vector<Witness> witnesses = result->provenance.WitnessesOf(fact);
  ASSERT_EQ(witnesses.size(), 1u);
  ASSERT_EQ(witnesses[0].size(), 1u);
  EXPECT_EQ(witnesses[0][0].relation, "Emp");
  EXPECT_EQ(witnesses[0][0].tuple[0], Value::Int64(1));
}

TEST(ChaseTest, ProvenanceSurvivesEgdDrivenNullMerge) {
  // Two tgds invent independent nulls for the same key; the egd then
  // forces them equal, rewriting one null onto the other everywhere —
  // including inside the provenance map, which must stay queryable via
  // the value that survived the merge.
  Tgd invent_p;
  invent_p.body = {Atom{"S", {V("x")}}};
  invent_p.head = {Atom{"P", {V("x"), Term::Var("n")}}};
  Tgd invent_q;
  invent_q.body = {Atom{"S", {V("x")}}};
  invent_q.head = {Atom{"Q", {V("x"), Term::Var("m")}}};
  Egd same;
  same.body = {Atom{"P", {V("x"), V("a")}}, Atom{"Q", {V("x"), V("b")}}};
  same.left = "a";
  same.right = "b";
  Instance db;
  db.DeclareRelation("S", 1);
  ASSERT_TRUE(db.Insert("S", {Value::Int64(1)}).ok());
  ChaseOptions options;
  options.track_provenance = true;
  auto result = ChaseInstance({invent_p, invent_q}, {same}, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Both relations now carry the same (merged) null.
  const instance::RelationInstance* p = result->target.Find("P");
  const instance::RelationInstance* q = result->target.Find("Q");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(p->size(), 1u);
  ASSERT_EQ(q->size(), 1u);
  Value merged = (*p->tuples().begin())[1];
  ASSERT_TRUE(merged.is_labeled_null());
  EXPECT_EQ((*q->tuples().begin())[1], merged);
  // Lineage is queryable through the rewritten value for BOTH facts...
  for (const char* relation : {"P", "Q"}) {
    Fact fact{relation, {Value::Int64(1), merged}};
    const std::vector<Witness> witnesses =
        result->provenance.WitnessesOf(fact);
    ASSERT_FALSE(witnesses.empty()) << relation;
    EXPECT_EQ(witnesses[0][0].relation, "S");
    EXPECT_EQ(witnesses[0][0].tuple[0], Value::Int64(1));
  }
  // ...and the pre-merge null no longer resolves (exactly one of the two
  // invented labels was rewritten away; probe the one that is not the
  // survivor).
  std::int64_t dead_label = merged.label() == 0 ? 1 : 0;
  Fact stale{"P", {Value::Int64(1), Value::LabeledNull(dead_label)}};
  EXPECT_TRUE(result->provenance.WitnessesOf(stale).empty());
}

TEST(ChaseInstanceTest, ClosesUnderIntraSchemaTgds) {
  // Transitivity: E(x,y) & E(y,z) -> E(x,z).
  Tgd trans;
  trans.body = {Atom{"E", {V("x"), V("y")}}, Atom{"E", {V("y"), V("z")}}};
  trans.head = {Atom{"E", {V("x"), V("z")}}};
  Instance db;
  db.DeclareRelation("E", 2);
  ASSERT_TRUE(db.Insert("E", {Value::Int64(1), Value::Int64(2)}).ok());
  ASSERT_TRUE(db.Insert("E", {Value::Int64(2), Value::Int64(3)}).ok());
  ASSERT_TRUE(db.Insert("E", {Value::Int64(3), Value::Int64(4)}).ok());
  auto result = ChaseInstance({trans}, {}, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->target.Find("E")->size(), 6u);  // transitive closure
}

// Runs with an attached analysis stamp its round bound at the input's
// active domain. The chase counts the domain only when the bound reads it,
// so the stamp must still equal the bound at the true domain size in every
// case: egd-free exchange (a constant), exchange with egds, and closure.
TEST(ChaseTest, ForesightStampsRoundBoundAtActiveDomain) {
  ChaseOptions options;
  Tgd tgd;
  tgd.body = {Atom{"Emp", {V("e"), V("d")}}};
  tgd.head = {Atom{"Worker", {V("e"), V("m")}}};
  Egd key;
  key.body = {Atom{"Worker", {V("e"), V("m1")}},
              Atom{"Worker", {V("e"), V("m2")}}};
  key.left = "m1";
  key.right = "m2";
  for (const std::vector<Egd>& egds :
       {std::vector<Egd>{}, std::vector<Egd>{key}}) {
    Mapping m =
        Mapping::FromTgds("m", SourceSchema(), TargetSchema(), {tgd}, egds);
    analysis::MappingAnalysis a = analysis::AnalyzeMapping(m);
    EXPECT_EQ(a.RoundsBoundReadsDomain(), !egds.empty());
    options.analysis = &a;
    auto result = RunChase(m, SourceDb(), options);
    ASSERT_TRUE(result.ok()) << result.status();
    // SourceDb's active domain: eids 1 and 2, depts "sales" and "eng".
    EXPECT_EQ(result->stats.predicted_rounds, a.PredictedRounds(4));
  }

  Tgd trans;
  trans.body = {Atom{"E", {V("x"), V("y")}}, Atom{"E", {V("y"), V("z")}}};
  trans.head = {Atom{"E", {V("x"), V("z")}}};
  Instance db;
  db.DeclareRelation("E", 2);
  ASSERT_TRUE(db.Insert("E", {Value::Int64(1), Value::Int64(2)}).ok());
  ASSERT_TRUE(db.Insert("E", {Value::Int64(2), Value::Int64(3)}).ok());
  analysis::MappingAnalysis closure = analysis::AnalyzeClosure({trans}, {});
  EXPECT_TRUE(closure.RoundsBoundReadsDomain());
  options.analysis = &closure;
  auto closed = ChaseInstance({trans}, {}, db, options);
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_EQ(closed->stats.predicted_rounds, closure.PredictedRounds(3));
}

TEST(CertainAnswersTest, NullCarryingRowsAreDropped) {
  Instance db;
  db.DeclareRelation("Worker", 2);
  ASSERT_TRUE(db.Insert("Worker", {Value::Int64(1), Value::LabeledNull(0)}).ok());
  ASSERT_TRUE(db.Insert("Worker", {Value::Int64(2), Value::Int64(9)}).ok());

  ConjunctiveQuery all;
  all.head = Atom{"Q", {V("e"), V("m")}};
  all.body = {Atom{"Worker", {V("e"), V("m")}}};
  auto certain = CertainAnswers(all, db);
  ASSERT_TRUE(certain.ok());
  EXPECT_EQ(certain->size(), 1u);  // only the fully-constant row
  auto possible = AllAnswers(all, db);
  EXPECT_EQ(possible->size(), 2u);

  // Projecting away the null column keeps both.
  ConjunctiveQuery ids;
  ids.head = Atom{"Q", {V("e")}};
  ids.body = {Atom{"Worker", {V("e"), V("m")}}};
  auto ids_certain = CertainAnswers(ids, db);
  EXPECT_EQ(ids_certain->size(), 2u);
}

TEST(CertainAnswersTest, JoinOnLabeledNullStillCounts) {
  // Labeled nulls join with themselves (naive tables).
  Instance db;
  db.DeclareRelation("Worker", 2);
  db.DeclareRelation("Mgr", 1);
  ASSERT_TRUE(db.Insert("Worker", {Value::Int64(1), Value::LabeledNull(0)}).ok());
  ASSERT_TRUE(db.Insert("Mgr", {Value::LabeledNull(0)}).ok());
  ConjunctiveQuery q;
  q.head = Atom{"Q", {V("e")}};
  q.body = {Atom{"Worker", {V("e"), V("m")}}, Atom{"Mgr", {V("m")}}};
  auto certain = CertainAnswers(q, db);
  ASSERT_TRUE(certain.ok());
  EXPECT_EQ(certain->size(), 1u);
}

TEST(HomomorphismTest, ConstantsArePinned) {
  Instance a;
  a.DeclareRelation("R", 1);
  ASSERT_TRUE(a.Insert("R", {Value::Int64(1)}).ok());
  Instance b;
  b.DeclareRelation("R", 1);
  ASSERT_TRUE(b.Insert("R", {Value::Int64(2)}).ok());
  EXPECT_FALSE(ExistsHomomorphism(a, b));
  EXPECT_TRUE(ExistsHomomorphism(a, a));
}

TEST(HomomorphismTest, NullsAreFlexible) {
  Instance a;
  a.DeclareRelation("R", 2);
  ASSERT_TRUE(a.Insert("R", {Value::LabeledNull(0), Value::LabeledNull(0)}).ok());
  Instance b;
  b.DeclareRelation("R", 2);
  ASSERT_TRUE(b.Insert("R", {Value::Int64(5), Value::Int64(5)}).ok());
  EXPECT_TRUE(ExistsHomomorphism(a, b));
  // Repeated null must map consistently.
  Instance c;
  c.DeclareRelation("R", 2);
  ASSERT_TRUE(c.Insert("R", {Value::Int64(5), Value::Int64(6)}).ok());
  EXPECT_FALSE(ExistsHomomorphism(a, c));
}

TEST(CoreTest, RedundantNullTupleIsFolded) {
  // {Worker(1, 9), Worker(1, N0)}: N0 -> 9 is a retraction; the core is
  // just the constant tuple.
  Instance db;
  db.DeclareRelation("Worker", 2);
  ASSERT_TRUE(db.Insert("Worker", {Value::Int64(1), Value::Int64(9)}).ok());
  ASSERT_TRUE(db.Insert("Worker", {Value::Int64(1), Value::LabeledNull(0)}).ok());
  Instance core = ComputeCore(db);
  EXPECT_EQ(core.Find("Worker")->size(), 1u);
  EXPECT_FALSE(core.HasLabeledNulls());
}

TEST(CoreTest, NonRedundantNullsSurvive) {
  Instance db;
  db.DeclareRelation("Worker", 2);
  ASSERT_TRUE(db.Insert("Worker", {Value::Int64(1), Value::LabeledNull(0)}).ok());
  ASSERT_TRUE(db.Insert("Worker", {Value::Int64(2), Value::LabeledNull(1)}).ok());
  Instance core = ComputeCore(db);
  EXPECT_EQ(core.Find("Worker")->size(), 2u);
  EXPECT_TRUE(core.HasLabeledNulls());
}

TEST(CoreTest, ChaseThenCoreMatchesMinimalSolution) {
  // Two tgds deriving overlapping targets: the blowup folds away.
  Tgd t1;
  t1.body = {Atom{"Emp", {V("e"), V("d")}}};
  t1.head = {Atom{"Worker", {V("e"), V("m")}}};
  Tgd t2;  // redundant: re-derives with another existential
  t2.body = {Atom{"Emp", {V("e"), V("d")}}};
  t2.head = {Atom{"Worker", {V("e"), V("m2")}}};
  Mapping m =
      Mapping::FromTgds("m", SourceSchema(), TargetSchema(), {t1, t2});
  auto result = RunChase(m, SourceDb());
  ASSERT_TRUE(result.ok());
  Instance core = ComputeCore(result->target);
  EXPECT_EQ(core.Find("Worker")->size(), 2u);  // one row per source Emp
}

}  // namespace
}  // namespace mm2::chase
