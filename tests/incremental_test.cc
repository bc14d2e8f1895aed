// Incremental exchange: delta-driven target maintenance (runtime layer)
// and what it rests on — the canonical-null-renaming comparator
// InstanceEqualsUpToNulls, the tombstone-aware DeltaSince log, and the
// seal points (a chase from an empty frontier seals its target once on
// publish; a resumed maintain pass seals nothing).
//
// The centerpiece is a 100-seed differential sweep: random head-disjoint
// mappings, random insert/erase batches, MaintainExchange vs a full
// re-chase of the mutated source. The maintained target must be equal to
// the re-chased one up to a labeled-null bijection, with identical certain
// answers (the null-free tuples), and the returned target delta must
// replay the old target into the new one exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "instance/instance.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "model/schema.h"
#include "runtime/runtime.h"
#include "workload/generators.h"

namespace mm2::runtime {
namespace {

using instance::Instance;
using instance::InstanceEqualsUpToNulls;
using instance::RelationInstance;
using instance::Tuple;
using instance::Value;
using logic::Atom;
using logic::Egd;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using workload::Rng;

Term V(const std::string& name) { return Term::Var(name); }

// ---------------------------------------------------------------------------
// InstanceEqualsUpToNulls
// ---------------------------------------------------------------------------

TEST(EqualsUpToNullsTest, GroundInstancesCompareExactly) {
  Instance a;
  a.DeclareRelation("R", 2);
  ASSERT_TRUE(a.Insert("R", {Value::Int64(1), Value::String("x")}).ok());
  Instance b = a;
  EXPECT_TRUE(InstanceEqualsUpToNulls(a, b));
  ASSERT_TRUE(b.Insert("R", {Value::Int64(2), Value::String("y")}).ok());
  EXPECT_FALSE(InstanceEqualsUpToNulls(a, b));
}

TEST(EqualsUpToNullsTest, RenamedNullsAreEqual) {
  Instance a;
  a.DeclareRelation("R", 2);
  a.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(10)});
  a.InsertUnchecked("R", {Value::Int64(2), Value::LabeledNull(11)});
  Instance b;
  b.DeclareRelation("R", 2);
  b.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(77)});
  b.InsertUnchecked("R", {Value::Int64(2), Value::LabeledNull(33)});
  EXPECT_FALSE(a.Equals(b));
  EXPECT_TRUE(InstanceEqualsUpToNulls(a, b));
}

TEST(EqualsUpToNullsTest, SharedNullStructureMustMatch) {
  // Left shares one null across two rows; right uses two distinct nulls.
  // No bijection can align them.
  Instance a;
  a.DeclareRelation("R", 2);
  a.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(5)});
  a.InsertUnchecked("R", {Value::Int64(2), Value::LabeledNull(5)});
  Instance b;
  b.DeclareRelation("R", 2);
  b.InsertUnchecked("R", {Value::Int64(1), Value::LabeledNull(8)});
  b.InsertUnchecked("R", {Value::Int64(2), Value::LabeledNull(9)});
  EXPECT_FALSE(InstanceEqualsUpToNulls(a, b));
}

TEST(EqualsUpToNullsTest, CrossRelationBijectionIsGlobal) {
  // The same null appearing in two relations must map consistently.
  Instance a;
  a.DeclareRelation("R", 1);
  a.DeclareRelation("S", 1);
  a.InsertUnchecked("R", {Value::LabeledNull(1)});
  a.InsertUnchecked("S", {Value::LabeledNull(1)});
  Instance b;
  b.DeclareRelation("R", 1);
  b.DeclareRelation("S", 1);
  b.InsertUnchecked("R", {Value::LabeledNull(2)});
  b.InsertUnchecked("S", {Value::LabeledNull(3)});
  EXPECT_FALSE(InstanceEqualsUpToNulls(a, b));
  // Aligning S to the same null restores the bijection.
  Instance c;
  c.DeclareRelation("R", 1);
  c.DeclareRelation("S", 1);
  c.InsertUnchecked("R", {Value::LabeledNull(2)});
  c.InsertUnchecked("S", {Value::LabeledNull(2)});
  EXPECT_TRUE(InstanceEqualsUpToNulls(a, c));
}

TEST(EqualsUpToNullsTest, EmptyRelationsAreIgnored) {
  Instance a;
  a.DeclareRelation("R", 1);
  a.DeclareRelation("Empty", 3);
  a.InsertUnchecked("R", {Value::Int64(1)});
  Instance b;
  b.DeclareRelation("R", 1);
  b.InsertUnchecked("R", {Value::Int64(1)});
  EXPECT_TRUE(InstanceEqualsUpToNulls(a, b));
}

// ---------------------------------------------------------------------------
// Tombstone-aware DeltaSince
// ---------------------------------------------------------------------------

Tuple Row2(std::int64_t a, std::int64_t b) {
  return {Value::Int64(a), Value::Int64(b)};
}

std::vector<Tuple> Rows(const RelationInstance::TupleRefs& refs) {
  std::vector<Tuple> rows;
  for (const Tuple* t : refs) rows.push_back(*t);
  return rows;
}

TEST(TombstoneDeltaViewTest, UnsealedSuffixSkipsTombstones) {
  RelationInstance rel(2);
  for (std::int64_t i = 0; i < 8; ++i) rel.Insert(Row2(i, i));
  rel.PrepareSegments();
  const std::size_t mark = rel.Watermark();
  // Post-seal epoch: inserts and an erase of one of them. The first insert
  // dropped the run; the delta is the log either way.
  rel.Insert(Row2(50, 50));
  rel.Insert(Row2(51, 51));
  ASSERT_TRUE(rel.Erase(Row2(50, 50)));
  EXPECT_FALSE(rel.SegmentCurrent());
  EXPECT_EQ(Rows(rel.DeltaSince(mark)), std::vector<Tuple>{Row2(51, 51)});
}

TEST(TombstoneDeltaViewTest, SizeContractHoldsAcrossWatermarks) {
  RelationInstance rel(2);
  std::vector<Tuple> inserted;  // insertion order, the log's order
  auto insert = [&](std::int64_t i) {
    rel.Insert(Row2(i, i));
    inserted.push_back(Row2(i, i));
  };
  for (std::int64_t i = 0; i < 12; ++i) insert(i);
  rel.PrepareSegments();
  for (std::int64_t i = 12; i < 15; ++i) insert(i);
  rel.PrepareSegments();
  ASSERT_TRUE(rel.Erase(Row2(2, 2)));
  ASSERT_TRUE(rel.Erase(Row2(13, 13)));
  insert(99);
  for (std::size_t mark = 0; mark <= rel.Watermark(); ++mark) {
    std::vector<Tuple> expect;
    for (std::size_t i = mark; i < inserted.size(); ++i) {
      if (rel.Contains(inserted[i])) expect.push_back(inserted[i]);
    }
    ASSERT_EQ(Rows(rel.DeltaSince(mark)), expect) << "watermark " << mark;
  }
}

// ---------------------------------------------------------------------------
// Targeted DRed cases
// ---------------------------------------------------------------------------

// R(x, y) -> T(y): T(5) is derivable from two source rows, but provenance
// records only the first derivation (duplicate insertions are no-ops).
// Deleting the recorded witness must over-delete T(5) and then re-derive it
// from the surviving row — the returned delta is empty.
TEST(MaintainDRedTest, OverDeleteThenRederiveSharedFact) {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "R", {{"a", model::DataType::Int64(), false},
            {"b", model::DataType::Int64(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(
      model::Relation("T", {{"b", model::DataType::Int64(), false}}, {}));
  Tgd tgd;
  tgd.body = {Atom{"R", {V("x"), V("y")}}};
  tgd.head = {Atom{"T", {V("y")}}};
  Mapping m = Mapping::FromTgds("m", src, tgt, {tgd});

  Instance source = Instance::EmptyFor(src);
  ASSERT_TRUE(source.Insert("R", Row2(1, 5)).ok());
  ASSERT_TRUE(source.Insert("R", Row2(2, 5)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_TRUE(session.target.Find("T")->Contains({Value::Int64(5)}));

  Delta delta;
  delta.deletes.DeclareRelation("R", 2);
  delta.deletes.InsertUnchecked("R", Row2(1, 5));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_TRUE(maintained.value().Empty());
  EXPECT_EQ(session.fallbacks, 0u);
  EXPECT_TRUE(session.target.Find("T")->Contains({Value::Int64(5)}));

  // Deleting the second row removes the last derivation for good.
  Delta delta2;
  delta2.deletes.DeclareRelation("R", 2);
  delta2.deletes.InsertUnchecked("R", Row2(2, 5));
  auto maintained2 = MaintainExchange(session, delta2);
  ASSERT_TRUE(maintained2.ok()) << maintained2.status().message();
  EXPECT_EQ(maintained2.value().deletes.TotalTuples(), 1u);
  EXPECT_EQ(session.target.Find("T")->size(), 0u);
  EXPECT_EQ(session.fallbacks, 0u);
}

// One deleted source row feeds two rules (a copy and a join): both derived
// facts must go, in one maintain.
TEST(MaintainDRedTest, CascadingDeleteAcrossRules) {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "R", {{"a", model::DataType::Int64(), false},
            {"b", model::DataType::Int64(), false}}, {}));
  src.AddRelation(model::Relation(
      "S", {{"b", model::DataType::Int64(), false},
            {"c", model::DataType::Int64(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(model::Relation(
      "A", {{"a", model::DataType::Int64(), false},
            {"b", model::DataType::Int64(), false}}, {}));
  tgt.AddRelation(model::Relation(
      "B", {{"a", model::DataType::Int64(), false},
            {"c", model::DataType::Int64(), false}}, {}));
  Tgd copy;
  copy.body = {Atom{"R", {V("x"), V("y")}}};
  copy.head = {Atom{"A", {V("x"), V("y")}}};
  Tgd join;
  join.body = {Atom{"R", {V("x"), V("y")}}, Atom{"S", {V("y"), V("z")}}};
  join.head = {Atom{"B", {V("x"), V("z")}}};
  Mapping m = Mapping::FromTgds("m", src, tgt, {copy, join});

  Instance source = Instance::EmptyFor(src);
  ASSERT_TRUE(source.Insert("R", Row2(1, 5)).ok());
  ASSERT_TRUE(source.Insert("S", Row2(5, 7)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_TRUE(session.target.Find("B")->Contains(Row2(1, 7)));

  Delta delta;
  delta.deletes.DeclareRelation("R", 2);
  delta.deletes.InsertUnchecked("R", Row2(1, 5));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(maintained.value().deletes.TotalTuples(), 2u);
  EXPECT_EQ(session.target.Find("A")->size(), 0u);
  EXPECT_EQ(session.target.Find("B")->size(), 0u);
  EXPECT_EQ(session.fallbacks, 0u);
}

// Egd-merged nulls: S(k) invents P(k,n) and R(k,v) copies P(k,v) in the
// same round; the key egd then unifies the null with the ground value,
// leaving one merged target fact holding BOTH derivations as witnesses.
// (The existential tgd must run first — the restricted probe would see a
// ground P(k,v) as satisfying ∃n P(k,n) and never invent the null.)
Mapping KeyedExistentialMapping() {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "S", {{"k", model::DataType::Int64(), false}}, {}));
  src.AddRelation(model::Relation(
      "R", {{"k", model::DataType::Int64(), false},
            {"v", model::DataType::Int64(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(model::Relation(
      "P", {{"k", model::DataType::Int64(), false},
            {"n", model::DataType::Int64(), false}}, {}));
  Tgd exist;
  exist.body = {Atom{"S", {V("k")}}};
  exist.head = {Atom{"P", {V("k"), V("n")}}};  // n existential
  Tgd copy;
  copy.body = {Atom{"R", {V("k"), V("v")}}};
  copy.head = {Atom{"P", {V("k"), V("v")}}};
  Egd key;
  key.body = {Atom{"P", {V("k"), V("n1")}}, Atom{"P", {V("k"), V("n2")}}};
  key.left = "n1";
  key.right = "n2";
  return Mapping::FromTgds("m", src, tgt, {exist, copy}, {key});
}

// Deleting one of the two derivations keeps the merged fact through its
// surviving witness — no fallback, no target change (the counting
// shortcut applied to an egd-merged fact).
TEST(MaintainDRedTest, EgdMergedFactKeptBySurvivingWitness) {
  Mapping m = KeyedExistentialMapping();
  Instance source;
  source.DeclareRelation("S", 1);
  source.DeclareRelation("R", 2);
  ASSERT_TRUE(source.Insert("S", {Value::Int64(1)}).ok());
  ASSERT_TRUE(source.Insert("R", Row2(1, 10)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  // The egd merged the invented null into the ground copy.
  ASSERT_EQ(session.target.Find("P")->size(), 1u);
  ASSERT_TRUE(session.target.Find("P")->Contains(Row2(1, 10)));

  Delta delta;
  delta.deletes.DeclareRelation("S", 1);
  delta.deletes.InsertUnchecked("S", {Value::Int64(1)});
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_TRUE(maintained.value().Empty());
  EXPECT_EQ(session.fallbacks, 0u);
  EXPECT_EQ(session.target.Find("P")->size(), 1u);

  // Cross-check against a from-scratch exchange of the mutated source.
  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target));
}

// Deleting BOTH derivations over-deletes the merged fact, which witnessed
// the unification — the maintain must fall back to a full re-chase and
// still land on the right instance.
TEST(MaintainDRedTest, DeletingMergedFactFallsBackToRechase) {
  Mapping m = KeyedExistentialMapping();
  Instance source;
  source.DeclareRelation("S", 1);
  source.DeclareRelation("R", 2);
  ASSERT_TRUE(source.Insert("S", {Value::Int64(1)}).ok());
  ASSERT_TRUE(source.Insert("R", Row2(1, 10)).ok());
  ASSERT_TRUE(source.Insert("R", Row2(2, 30)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_EQ(session.target.Find("P")->size(), 2u);

  // Remove both derivations of the merged P(1,10): the DRed candidate is a
  // unification witness, so the maintain must rebuild from scratch.
  Delta delta;
  delta.deletes.DeclareRelation("S", 1);
  delta.deletes.InsertUnchecked("S", {Value::Int64(1)});
  delta.deletes.DeclareRelation("R", 2);
  delta.deletes.InsertUnchecked("R", Row2(1, 10));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(session.fallbacks, 1u);
  EXPECT_EQ(session.target.Find("P")->size(), 1u);
  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target));

  // The session survives the fallback: later maintains resume normally.
  Delta insert;
  insert.inserts.DeclareRelation("R", 2);
  insert.inserts.InsertUnchecked("R", Row2(3, 40));
  auto maintained2 = MaintainExchange(session, insert);
  ASSERT_TRUE(maintained2.ok()) << maintained2.status().message();
  EXPECT_EQ(maintained2.value().inserts.TotalTuples(), 1u);
  EXPECT_EQ(session.fallbacks, 1u);
}

// Insert-only maintain with an egd merge at maintain time: the null
// invented at Begin is unified with a ground copy arriving via the delta,
// and RewriteValue books the -null/+ground pair into the reported delta.
TEST(MaintainDRedTest, InsertOnlyMaintainMatchesRechase) {
  Mapping m = KeyedExistentialMapping();
  Instance source;
  source.DeclareRelation("S", 1);
  source.DeclareRelation("R", 2);
  ASSERT_TRUE(source.Insert("S", {Value::Int64(1)}).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_EQ(session.target.Find("P")->size(), 1u);
  Instance before = session.target;

  Delta delta;
  delta.inserts.DeclareRelation("R", 2);
  delta.inserts.InsertUnchecked("R", Row2(1, 30));  // same key: egd merges
  delta.inserts.InsertUnchecked("R", Row2(2, 40));  // new key: ground copy
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(session.fallbacks, 0u);
  EXPECT_EQ(session.target.Find("P")->size(), 2u);
  EXPECT_TRUE(session.target.Find("P")->Contains(Row2(1, 30)));
  EXPECT_TRUE(session.target.Find("P")->Contains(Row2(2, 40)));
  // The merge retracts the invented null: one delete, two inserts, and
  // replaying the delta onto the pre-maintain target lands exactly on the
  // maintained instance.
  EXPECT_EQ(maintained.value().deletes.TotalTuples(), 1u);
  EXPECT_EQ(maintained.value().inserts.TotalTuples(), 2u);
  ASSERT_TRUE(ApplyDelta(maintained.value(), &before).ok());
  EXPECT_TRUE(before.Equals(session.target));

  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target));
}

// R(k, v) -> T(k, v) under a key egd on T.
Mapping KeyedCopyMapping() {
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(model::Relation(
      "R", {{"k", model::DataType::Int64(), false},
            {"v", model::DataType::Int64(), false}}, {}));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(model::Relation(
      "T", {{"k", model::DataType::Int64(), false},
            {"v", model::DataType::Int64(), false}}, {}));
  Tgd copy;
  copy.body = {Atom{"R", {V("k"), V("v")}}};
  copy.head = {Atom{"T", {V("k"), V("v")}}};
  Egd key;
  key.body = {Atom{"T", {V("k"), V("v1")}}, Atom{"T", {V("k"), V("v2")}}};
  key.left = "v1";
  key.right = "v2";
  return Mapping::FromTgds("m", src, tgt, {copy}, {key});
}

// A maintain whose resumed chase fails (the key egd equates two constants)
// has already applied its delta to the source and handed the target and
// provenance to the chase. The session must not resume over nothing: it is
// emptied, and the next maintain rebuilds through the counted fallback.
TEST(MaintainDRedTest, FailedMaintainFallsBackOnNextCall) {
  Mapping m = KeyedCopyMapping();
  Instance source;
  source.DeclareRelation("R", 2);
  ASSERT_TRUE(source.Insert("R", Row2(1, 10)).ok());
  ASSERT_TRUE(source.Insert("R", Row2(2, 20)).ok());
  auto begun = BeginExchangeSession(m, std::move(source));
  ASSERT_TRUE(begun.ok()) << begun.status().message();
  ExchangeSession session = std::move(begun.value());
  ASSERT_EQ(session.target.Find("T")->size(), 2u);

  Delta clash;
  clash.inserts.DeclareRelation("R", 2);
  clash.inserts.InsertUnchecked("R", Row2(1, 11));
  auto failed = MaintainExchange(session, clash);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInconsistent);
  EXPECT_EQ(session.target.TotalTuples(), 0u);
  EXPECT_EQ(session.provenance.size(), 0u);

  Delta repair;
  repair.deletes.DeclareRelation("R", 2);
  repair.deletes.InsertUnchecked("R", Row2(1, 11));
  repair.inserts.DeclareRelation("R", 2);
  repair.inserts.InsertUnchecked("R", Row2(3, 30));
  auto maintained = MaintainExchange(session, repair);
  ASSERT_TRUE(maintained.ok()) << maintained.status().message();
  EXPECT_EQ(session.fallbacks, 1u);
  EXPECT_EQ(maintained.value().inserts.TotalTuples(), 3u);
  EXPECT_EQ(session.target.Find("T")->size(), 3u);
  auto full = Exchange(m, session.source, ExchangeOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target));
}

TEST(MaintainDRedTest, BeginRejectsComputeCore) {
  Mapping m = KeyedExistentialMapping();
  ExchangeOptions options;
  options.compute_core = true;
  auto begun = BeginExchangeSession(m, Instance{}, options);
  EXPECT_FALSE(begun.ok());
}

// ---------------------------------------------------------------------------
// 100-seed differential sweep
// ---------------------------------------------------------------------------

// A random head-disjoint mapping: every tgd writes its own target relation,
// so the resumed restricted chase and a from-scratch chase agree up to null
// renaming (cross-rule firing-order effects need overlapping heads). Bodies
// join on the shared key variable; heads project body variables and
// occasionally invent an existential.
struct SweepCase {
  Mapping mapping;
  Instance source;
  std::vector<std::size_t> arity;  // per source relation
};

SweepCase MakeSweepCase(Rng* rng) {
  const std::size_t nsrc = 2 + rng->Uniform(2);
  model::Schema src("Src", model::Metamodel::kRelational);
  std::vector<std::size_t> arity(nsrc);
  for (std::size_t i = 0; i < nsrc; ++i) {
    arity[i] = 2 + rng->Uniform(2);
    std::vector<model::Attribute> attrs;
    for (std::size_t c = 0; c < arity[i]; ++c) {
      attrs.push_back(
          {"c" + std::to_string(c), model::DataType::Int64(), false});
    }
    src.AddRelation(
        model::Relation("S" + std::to_string(i), std::move(attrs), {}));
  }

  const std::size_t ntgd = 2 + rng->Uniform(3);
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  std::vector<Tgd> tgds;
  for (std::size_t t = 0; t < ntgd; ++t) {
    Tgd tgd;
    std::vector<std::string> body_vars;
    const std::size_t natoms = 1 + rng->Uniform(2);
    for (std::size_t a = 0; a < natoms; ++a) {
      const std::size_t rel = rng->Uniform(nsrc);
      Atom atom;
      atom.relation = "S" + std::to_string(rel);
      for (std::size_t c = 0; c < arity[rel]; ++c) {
        // Position 0 is the key; atoms of one body share it (the join).
        std::string var = c == 0 ? "k"
                                 : "v" + std::to_string(a) + "_" +
                                       std::to_string(c);
        if (c != 0 || a == 0) body_vars.push_back(var);
        atom.terms.push_back(V(var));
      }
      tgd.body.push_back(std::move(atom));
    }
    const std::size_t head_arity = 1 + rng->Uniform(3);
    Atom head;
    head.relation = "T" + std::to_string(t);
    std::vector<model::Attribute> attrs;
    for (std::size_t c = 0; c < head_arity; ++c) {
      if (rng->Chance(0.25)) {
        head.terms.push_back(V("e" + std::to_string(c)));  // existential
      } else {
        head.terms.push_back(V(body_vars[rng->Uniform(body_vars.size())]));
      }
      attrs.push_back(
          {"h" + std::to_string(c), model::DataType::Int64(), false});
    }
    tgd.head.push_back(std::move(head));
    tgt.AddRelation(model::Relation(head.relation, std::move(attrs), {}));
    tgds.push_back(std::move(tgd));
  }

  SweepCase out{Mapping::FromTgds("sweep", src, tgt, std::move(tgds)),
                Instance::EmptyFor(src), std::move(arity)};
  const std::size_t rows = 6 + rng->Uniform(10);
  for (std::size_t i = 0; i < out.arity.size(); ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      Tuple tuple;
      tuple.push_back(Value::Int64(static_cast<std::int64_t>(r)));
      for (std::size_t c = 1; c < out.arity[i]; ++c) {
        tuple.push_back(
            Value::Int64(static_cast<std::int64_t>(rng->Uniform(20))));
      }
      out.source.InsertUnchecked("S" + std::to_string(i), std::move(tuple));
    }
  }
  return out;
}

// A random batch against the session's current source: brand-new keyed
// rows, duplicates of existing rows (join fan-out on shared keys), and
// erases of existing rows.
Delta MakeRandomDelta(const SweepCase& c, const Instance& current,
                      std::size_t epoch, Rng* rng) {
  Delta delta;
  for (std::size_t i = 0; i < c.arity.size(); ++i) {
    const std::string name = "S" + std::to_string(i);
    delta.inserts.DeclareRelation(name, c.arity[i]);
    delta.deletes.DeclareRelation(name, c.arity[i]);
    const std::size_t ninserts = rng->Uniform(4);
    for (std::size_t j = 0; j < ninserts; ++j) {
      Tuple tuple;
      // Half the inserts reuse live key range (extending joins), half
      // introduce fresh keys.
      const std::int64_t key =
          rng->Chance(0.5)
              ? static_cast<std::int64_t>(rng->Uniform(16))
              : static_cast<std::int64_t>(1000 + epoch * 100 + j);
      tuple.push_back(Value::Int64(key));
      for (std::size_t col = 1; col < c.arity[i]; ++col) {
        tuple.push_back(
            Value::Int64(static_cast<std::int64_t>(rng->Uniform(20))));
      }
      const RelationInstance* rel = current.Find(name);
      if (rel != nullptr && rel->Contains(tuple)) continue;
      if (delta.inserts.Find(name)->Contains(tuple)) continue;
      delta.inserts.InsertUnchecked(name, std::move(tuple));
    }
    const RelationInstance* rel = current.Find(name);
    if (rel == nullptr || rel->size() == 0) continue;
    std::vector<Tuple> live(rel->tuples().begin(), rel->tuples().end());
    const std::size_t nerases = rng->Uniform(3);
    std::set<std::size_t> picked;
    for (std::size_t j = 0; j < nerases && picked.size() < live.size(); ++j) {
      std::size_t idx = rng->Uniform(live.size());
      if (!picked.insert(idx).second) continue;
      delta.deletes.InsertUnchecked(name, live[idx]);
    }
  }
  return delta;
}

// The support-index invariant deletion maintenance relies on: the
// session's provenance keys are exactly the target's facts, every fact
// keeps at least one witness, and every witness fact lists the fact it
// supports among its dependents.
::testing::AssertionResult SupportIndexConsistent(
    const ExchangeSession& session) {
  std::set<chase::Fact> target_facts;
  for (const auto& [name, rel] : session.target.relations()) {
    for (const Tuple& t : rel.tuples()) target_facts.insert({name, t});
  }
  std::set<chase::Fact> keys;
  for (const auto& [fact, witnesses] : session.provenance.entries()) {
    keys.insert(fact);
    if (witnesses.empty()) {
      return ::testing::AssertionFailure()
             << fact.ToString() << " has no witness";
    }
    for (const chase::Witness& witness : witnesses) {
      for (const chase::Fact& f : witness) {
        auto it = session.state.dependents.find(f);
        if (it == session.state.dependents.end() ||
            std::find(it->second.begin(), it->second.end(), fact) ==
                it->second.end()) {
          return ::testing::AssertionFailure()
                 << "witness fact " << f.ToString() << " of "
                 << fact.ToString() << " does not list it as a dependent";
        }
      }
    }
  }
  if (keys != target_facts) {
    return ::testing::AssertionFailure()
           << keys.size() << " provenance keys vs " << target_facts.size()
           << " target facts";
  }
  return ::testing::AssertionSuccess();
}

TEST(IncrementalSweepTest, HundredSeedsMatchFullRechase) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    SweepCase c = MakeSweepCase(&rng);
    auto begun = BeginExchangeSession(c.mapping, c.source);
    ASSERT_TRUE(begun.ok()) << "seed " << seed << ": "
                            << begun.status().message();
    ExchangeSession session = std::move(begun.value());
    ASSERT_TRUE(SupportIndexConsistent(session)) << "seed " << seed;

    const std::size_t epochs = 2 + rng.Uniform(2);
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      Delta delta = MakeRandomDelta(c, session.source, epoch, &rng);
      Instance before = session.target;
      auto maintained = MaintainExchange(session, delta);
      ASSERT_TRUE(maintained.ok())
          << "seed " << seed << " epoch " << epoch << ": "
          << maintained.status().message();
      ASSERT_TRUE(SupportIndexConsistent(session))
          << "seed " << seed << " epoch " << epoch;

      // The returned delta replays the old target into the new one.
      ASSERT_TRUE(ApplyDelta(maintained.value(), &before).ok())
          << "seed " << seed << " epoch " << epoch;
      ASSERT_TRUE(before.Equals(session.target))
          << "seed " << seed << " epoch " << epoch;

      // Differential: a full exchange of the mutated source agrees up to
      // null renaming.
      auto full = Exchange(c.mapping, session.source, ExchangeOptions{});
      ASSERT_TRUE(full.ok()) << "seed " << seed << " epoch " << epoch;
      ASSERT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target))
          << "seed " << seed << " epoch " << epoch << "\nmaintained:\n"
          << session.target.ToString() << "\nrechased:\n"
          << full.value().target.ToString();

      // Certain answers (null-free rows per relation) are identical, not
      // just isomorphic.
      for (const auto& [name, rel] : full.value().target.relations()) {
        std::set<Tuple> expect;
        for (const Tuple& t : rel.tuples()) {
          bool ground = true;
          for (const Value& v : t) ground &= !v.is_labeled_null();
          if (ground) expect.insert(t);
        }
        std::set<Tuple> got;
        const RelationInstance* mine = session.target.Find(name);
        if (mine != nullptr) {
          for (const Tuple& t : mine->tuples()) {
            bool ground = true;
            for (const Value& v : t) ground &= !v.is_labeled_null();
            if (ground) got.insert(t);
          }
        }
        ASSERT_EQ(got, expect)
            << "seed " << seed << " epoch " << epoch << " relation " << name;
      }
    }
    // Egd-free head-disjoint sweeps never hit the unification fallback.
    EXPECT_EQ(session.fallbacks, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Seal points
// ---------------------------------------------------------------------------

// A chase from an empty frontier published `target`: every non-empty
// relation holds a current run, sealed once, and nothing else ran.
::testing::AssertionResult SealedOnPublish(const Instance& target,
                                           const chase::ChaseStats& stats) {
  std::size_t nonempty = 0;
  for (const auto& [name, rel] : target.relations()) {
    if (rel.empty()) continue;
    ++nonempty;
    if (!rel.SegmentCurrent()) {
      return ::testing::AssertionFailure() << name << " holds no run";
    }
  }
  if (stats.segment.seals != nonempty) {
    return ::testing::AssertionFailure()
           << stats.segment.seals << " seals for " << nonempty
           << " non-empty relations";
  }
  if (stats.segment.compactions != 0 || stats.segment.merged_rows != 0 ||
      stats.segment.retain_candidates != 0) {
    return ::testing::AssertionFailure() << "run maintenance inside the chase";
  }
  return ::testing::AssertionSuccess();
}

// Certain answers of "Q(x0, ..) :- R(x0, ..)" per relation of `expected`,
// over `expected` and over `got`, must agree.
::testing::AssertionResult SameCertainAnswers(const Instance& got,
                                              const Instance& expected) {
  for (const auto& [name, rel] : expected.relations()) {
    logic::ConjunctiveQuery query;
    query.head.relation = "Q";
    Atom atom;
    atom.relation = name;
    for (std::size_t c = 0; c < rel.arity(); ++c) {
      atom.terms.push_back(V("x" + std::to_string(c)));
    }
    query.head.terms = atom.terms;
    query.body = {atom};
    auto want = chase::CertainAnswers(query, expected);
    auto have = chase::CertainAnswers(query, got);
    if (!want.ok() || !have.ok() || *want != *have) {
      return ::testing::AssertionFailure()
             << "certain answers over " << name << " differ";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SealPointTest, ChaseInstanceSealsOncePerRelation) {
  Instance chain;
  chain.DeclareRelation("R", 2);
  chain.DeclareRelation("T", 2);
  for (std::int64_t i = 0; i < 64; ++i) {
    chain.InsertUnchecked("R", Row2(i, i + 1));
  }
  Tgd copy{{Atom{"R", {V("x"), V("y")}}}, {Atom{"T", {V("x"), V("y")}}}};
  Tgd step{{Atom{"T", {V("x"), V("y")}}, Atom{"R", {V("y"), V("z")}}},
           {Atom{"T", {V("x"), V("z")}}}};
  auto closed = chase::ChaseInstance({copy, step}, {}, chain);
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_EQ(closed->target.Find("T")->size(), 64u * 65u / 2u);
  EXPECT_EQ(closed->stats.segment.seals, 2u);  // R and T, once each
  EXPECT_TRUE(SealedOnPublish(closed->target, closed->stats));
  // The input is untouched: it never had a run and still has none.
  EXPECT_FALSE(chain.Find("R")->SegmentCurrent());
}

TEST(SealPointTest, RunChaseAndSessionSealOnPublish) {
  Rng rng(11);
  SweepCase c = MakeSweepCase(&rng);
  auto chased = chase::RunChase(c.mapping, c.source);
  ASSERT_TRUE(chased.ok()) << chased.status();
  ASSERT_GT(chased->target.TotalTuples(), 0u);
  EXPECT_TRUE(SealedOnPublish(chased->target, chased->stats));

  auto begun = BeginExchangeSession(c.mapping, c.source);
  ASSERT_TRUE(begun.ok()) << begun.status();
  EXPECT_TRUE(SealedOnPublish(begun->target, begun->last_stats));
  // The session source stays plain: the chase reads it, never seals it.
  for (const auto& [name, rel] : begun->source.relations()) {
    EXPECT_FALSE(rel.SegmentCurrent()) << name;
  }
}

model::Relation IntRel(const std::string& name, std::size_t arity) {
  std::vector<model::Attribute> attrs;
  for (std::size_t c = 0; c < arity; ++c) {
    attrs.push_back({"c" + std::to_string(c), model::DataType::Int64(), false});
  }
  return model::Relation(name, std::move(attrs), {});
}

TEST(SealPointTest, ResumedMaintainSealsNothing) {
  // S(k, v) -> T(k, v);  S(k, v) -> exists y. U(k, y, v)
  model::Schema src("Src", model::Metamodel::kRelational);
  src.AddRelation(IntRel("S", 2));
  model::Schema tgt("Tgt", model::Metamodel::kRelational);
  tgt.AddRelation(IntRel("T", 2));
  tgt.AddRelation(IntRel("U", 3));
  Tgd to_t{{Atom{"S", {V("k"), V("v")}}}, {Atom{"T", {V("k"), V("v")}}}};
  Tgd to_u{{Atom{"S", {V("k"), V("v")}}},
           {Atom{"U", {V("k"), V("y"), V("v")}}}};
  Mapping mapping = Mapping::FromTgds("m", src, tgt, {to_t, to_u});
  Instance source = Instance::EmptyFor(src);
  for (std::int64_t k = 0; k < 16; ++k) {
    source.InsertUnchecked("S", Row2(k, k % 4));
  }
  auto begun = BeginExchangeSession(mapping, source);
  ASSERT_TRUE(begun.ok()) << begun.status();
  ExchangeSession session = std::move(begun.value());
  ASSERT_TRUE(SealedOnPublish(session.target, session.last_stats));

  Delta delta;
  delta.inserts.DeclareRelation("S", 2);
  delta.deletes.DeclareRelation("S", 2);
  delta.inserts.InsertUnchecked("S", Row2(100, 5));
  delta.deletes.InsertUnchecked("S", Row2(3, 3));
  auto maintained = MaintainExchange(session, delta);
  ASSERT_TRUE(maintained.ok()) << maintained.status();
  ASSERT_EQ(session.fallbacks, 0u);
  EXPECT_EQ(maintained->inserts.TotalTuples(), 2u);
  EXPECT_EQ(maintained->deletes.TotalTuples(), 2u);
  // Delta-sized: the resumed pass sealed nothing, and both maintained
  // relations dropped the run sealed at the session's opening.
  EXPECT_EQ(session.last_stats.segment.seals, 0u);
  for (const char* name : {"T", "U"}) {
    EXPECT_FALSE(session.target.Find(name)->SegmentProbePrefix({}).has_value())
        << name;
  }
  // Readers of the unsealed target see what a fresh, sealed exchange of
  // the post-delta source answers.
  auto fresh = Exchange(mapping, session.source, ExchangeOptions{});
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(fresh->target.Find("U")->SegmentCurrent());
  EXPECT_TRUE(SameCertainAnswers(session.target, fresh->target));
  EXPECT_TRUE(InstanceEqualsUpToNulls(session.target, fresh->target));
}

// The sweep again, watching the seal points: every session opens with a
// target sealed on publish, resumed maintain passes seal nothing and drop
// the runs of every relation they change, and readers of the maintained
// (unsealed) target get the certain answers a fresh, sealed exchange
// gives.
TEST(IncrementalSweepTest, SegmentedStorageSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919);
    SweepCase c = MakeSweepCase(&rng);
    auto begun = BeginExchangeSession(c.mapping, c.source);
    ASSERT_TRUE(begun.ok()) << "seed " << seed;
    ExchangeSession session = std::move(begun.value());
    ASSERT_TRUE(SupportIndexConsistent(session)) << "seed " << seed;
    ASSERT_TRUE(SealedOnPublish(session.target, session.last_stats))
        << "seed " << seed;
    for (std::size_t epoch = 0; epoch < 2; ++epoch) {
      Delta delta = MakeRandomDelta(c, session.source, epoch, &rng);
      const std::size_t fallbacks = session.fallbacks;
      auto maintained = MaintainExchange(session, delta);
      ASSERT_TRUE(maintained.ok())
          << "seed " << seed << " epoch " << epoch << ": "
          << maintained.status().message();
      ASSERT_TRUE(SupportIndexConsistent(session))
          << "seed " << seed << " epoch " << epoch;
      if (session.fallbacks == fallbacks) {
        EXPECT_EQ(session.last_stats.segment.seals, 0u)
            << "seed " << seed << " epoch " << epoch;
        for (const Instance* side :
             {&maintained->inserts, &maintained->deletes}) {
          for (const auto& [name, rel] : side->relations()) {
            if (rel.empty()) continue;
            EXPECT_FALSE(session.target.Find(name)->SegmentCurrent())
                << "seed " << seed << " epoch " << epoch << " " << name;
          }
        }
      } else {
        EXPECT_TRUE(SealedOnPublish(session.target, session.last_stats))
            << "seed " << seed << " epoch " << epoch;
      }
      auto full = Exchange(c.mapping, session.source, ExchangeOptions{});
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(InstanceEqualsUpToNulls(session.target, full.value().target))
          << "seed " << seed << " epoch " << epoch;
      EXPECT_TRUE(SameCertainAnswers(session.target, full.value().target))
          << "seed " << seed << " epoch " << epoch;
    }
  }
}

}  // namespace
}  // namespace mm2::runtime
