#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "instance/instance.h"
#include "instance/value.h"
#include "model/schema.h"

namespace mm2::instance {
namespace {

using model::DataType;
using model::Metamodel;
using model::SchemaBuilder;

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Null().is_any_null());
  EXPECT_FALSE(Value::Null().is_labeled_null());
  EXPECT_EQ(Value::Int64(42).int64(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).dbl(), 2.5);
  EXPECT_EQ(Value::String("hi").str(), "hi");
  EXPECT_TRUE(Value::Bool(true).boolean());
  EXPECT_EQ(Value::Date(100).date(), 100);
  Value n = Value::LabeledNull(7);
  EXPECT_TRUE(n.is_labeled_null());
  EXPECT_TRUE(n.is_any_null());
  EXPECT_FALSE(n.is_constant());
  EXPECT_EQ(n.label(), 7);
}

TEST(ValueTest, EqualityIsKindAndPayload) {
  EXPECT_EQ(Value::Int64(1), Value::Int64(1));
  EXPECT_NE(Value::Int64(1), Value::Int64(2));
  EXPECT_NE(Value::Int64(1), Value::Double(1.0));  // distinct kinds
  EXPECT_EQ(Value::LabeledNull(3), Value::LabeledNull(3));
  EXPECT_NE(Value::LabeledNull(3), Value::LabeledNull(4));
  EXPECT_NE(Value::Null(), Value::LabeledNull(0));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, OrderingIsTotalAndConsistent) {
  std::vector<Value> vs = {Value::Null(), Value::Int64(1), Value::Int64(2),
                           Value::String("a"), Value::LabeledNull(0)};
  for (const Value& a : vs) {
    EXPECT_FALSE(a < a);
    for (const Value& b : vs) {
      if (a == b) continue;
      EXPECT_NE(a < b, b < a) << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int64(5).ToString(), "5");
  EXPECT_EQ(Value::String("x").ToString(), "\"x\"");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::LabeledNull(12).ToString(), "N12");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Date(3).ToString(), "date:3");
}

TEST(ValueTest, HashAgreesWithEquality) {
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_EQ(Value::Int64(9).Hash(), Value::Int64(9).Hash());
  // Different kinds with same payload should (very likely) differ.
  EXPECT_NE(Value::Int64(9).Hash(), Value::LabeledNull(9).Hash());
}

TEST(RelationInstanceTest, SetSemantics) {
  RelationInstance rel(2);
  const Tuple* node = rel.Insert({Value::Int64(1), Value::String("a")});
  EXPECT_EQ(node, &*rel.tuples().begin());  // the stored tuple's node
  EXPECT_EQ(rel.Insert({Value::Int64(1), Value::String("a")}), nullptr);
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains({Value::Int64(1), Value::String("a")}));
  EXPECT_TRUE(rel.Erase({Value::Int64(1), Value::String("a")}));
  EXPECT_FALSE(rel.Erase({Value::Int64(1), Value::String("a")}));
  EXPECT_TRUE(rel.empty());
}

TEST(RelationInstanceTest, ProbeFindsMatchesInSetOrder) {
  RelationInstance rel(2);
  rel.Insert({Value::Int64(1), Value::String("b")});
  rel.Insert({Value::Int64(1), Value::String("a")});
  rel.Insert({Value::Int64(2), Value::String("c")});

  const RelationInstance::TupleRefs* hits =
      rel.Probe({0}, {Value::Int64(1)});
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), 2u);
  // Buckets keep set order, so probe enumeration matches a full scan.
  EXPECT_EQ((*(*hits)[0])[1], Value::String("a"));
  EXPECT_EQ((*(*hits)[1])[1], Value::String("b"));

  EXPECT_EQ(rel.Probe({0}, {Value::Int64(9)}), nullptr);
  // Multi-column keys and non-prefix columns work too.
  const RelationInstance::TupleRefs* exact =
      rel.Probe({0, 1}, {Value::Int64(2), Value::String("c")});
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->size(), 1u);
  const RelationInstance::TupleRefs* by_second =
      rel.Probe({1}, {Value::String("a")});
  ASSERT_NE(by_second, nullptr);
  EXPECT_EQ(by_second->size(), 1u);
}

TEST(RelationInstanceTest, IndexMaintainedAcrossMutations) {
  RelationInstance rel(2);
  IndexStats stats;
  rel.Insert({Value::Int64(1), Value::Int64(10)});
  // Build the index.
  ASSERT_NE(rel.Probe({0}, {Value::Int64(1)}, &stats), nullptr);

  rel.Insert({Value::Int64(1), Value::Int64(11)});  // maintained, not rebuilt
  const RelationInstance::TupleRefs* hits =
      rel.Probe({0}, {Value::Int64(1)}, &stats);
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 2u);

  rel.Erase({Value::Int64(1), Value::Int64(10)});
  hits = rel.Probe({0}, {Value::Int64(1)}, &stats);
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*(*hits)[0])[1], Value::Int64(11));

  rel.Clear();
  EXPECT_EQ(rel.Probe({0}, {Value::Int64(1)}, &stats), nullptr);

  // Insert/Erase maintained the one lazily built index in place; Clear
  // dropped it, so the post-Clear probe rebuilt (over the empty set).
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.probes, 4u);
  EXPECT_EQ(stats.probe_hits, 4u);  // 1 + 2 + 1 + 0 tuples yielded
}

TEST(RelationInstanceTest, CopyAndMoveKeepStorageCoherent) {
  RelationInstance rel(2);
  rel.Insert({Value::Int64(1), Value::Int64(10)});
  rel.Insert({Value::Int64(2), Value::Int64(20)});
  rel.Insert({Value::Int64(3), Value::Int64(30)});
  ASSERT_NE(rel.Probe({0}, {Value::Int64(1)}), nullptr);

  // Copies rebuild over their own set nodes: same contents, independent
  // mutations.
  RelationInstance copy = rel;
  EXPECT_EQ(copy.size(), 3u);
  const RelationInstance::TupleRefs* hits =
      copy.Probe({0}, {Value::Int64(2)});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 1u);
  copy.Insert({Value::Int64(4), Value::Int64(40)});
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_EQ(rel.size(), 3u);

  // Moves steal the set nodes, so probes stay valid afterwards.
  RelationInstance moved = std::move(rel);
  hits = moved.Probe({0}, {Value::Int64(3)});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 1u);
}

TEST(RelationInstanceTest, ConcurrentProbesAreSafe) {
  RelationInstance rel(2);
  for (int i = 0; i < 64; ++i) {
    rel.Insert({Value::Int64(i % 8), Value::Int64(i)});
  }
  // Lazy index construction races on first probe; every reader must see a
  // fully built index (this is the scenario --tsan runs watch).
  std::vector<std::thread> readers;
  std::vector<std::size_t> totals(4, 0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&rel, &totals, t] {
      std::size_t sum = 0;
      for (int key = 0; key < 8; ++key) {
        const RelationInstance::TupleRefs* hits =
            rel.Probe({0}, {Value::Int64(key)});
        if (hits != nullptr) sum += hits->size();
      }
      totals[static_cast<std::size_t>(t)] = sum;
    });
  }
  for (std::thread& t : readers) t.join();
  for (std::size_t sum : totals) EXPECT_EQ(sum, 64u);
}

TEST(InstanceTest, InsertRejectsArityMismatchBeforeTouchingStorage) {
  // Regression: a mis-shaped tuple used to slip through into the extension;
  // now Insert rejects it before any index entry exists.
  Instance db;
  db.DeclareRelation("R", 2);
  ASSERT_TRUE(db.Insert("R", {Value::Int64(1), Value::Int64(2)}).ok());
  const RelationInstance* rel = db.Find("R");

  EXPECT_EQ(db.Insert("R", {Value::Int64(7)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Insert("R", {Value::Int64(7), Value::Int64(8),
                            Value::Int64(9)})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rel->size(), 1u);
}

#ifndef NDEBUG
TEST(InstanceDeathTest, InsertUncheckedAssertsOnArityMismatch) {
  Instance db;
  db.DeclareRelation("R", 2);
  EXPECT_DEATH(db.InsertUnchecked("R", {Value::Int64(1)}), "arity");
}
#endif

TEST(InstanceTest, CheckedInsertValidatesShape) {
  Instance db;
  db.DeclareRelation("R", 2);
  EXPECT_TRUE(db.Insert("R", {Value::Int64(1), Value::Int64(2)}).ok());
  EXPECT_EQ(db.Insert("Missing", {Value::Int64(1)}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.Insert("R", {Value::Int64(1)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(InstanceTest, EraseReportsMissingTuple) {
  Instance db;
  db.DeclareRelation("R", 1);
  ASSERT_TRUE(db.Insert("R", {Value::Int64(1)}).ok());
  EXPECT_TRUE(db.Erase("R", {Value::Int64(1)}).ok());
  EXPECT_FALSE(db.Erase("R", {Value::Int64(1)}).ok());
  EXPECT_FALSE(db.Erase("Nope", {Value::Int64(1)}).ok());
}

TEST(InstanceTest, LabeledNullDetection) {
  Instance db;
  db.DeclareRelation("R", 1);
  EXPECT_FALSE(db.HasLabeledNulls());
  EXPECT_EQ(db.MaxNullLabel(), -1);
  ASSERT_TRUE(db.Insert("R", {Value::LabeledNull(5)}).ok());
  EXPECT_TRUE(db.HasLabeledNulls());
  EXPECT_EQ(db.MaxNullLabel(), 5);
}

TEST(InstanceTest, EqualsIgnoresEmptyRelations) {
  Instance a;
  a.DeclareRelation("R", 1);
  a.DeclareRelation("Empty", 1);
  ASSERT_TRUE(a.Insert("R", {Value::Int64(1)}).ok());
  Instance b;
  b.DeclareRelation("R", 1);
  ASSERT_TRUE(b.Insert("R", {Value::Int64(1)}).ok());
  EXPECT_TRUE(a.Equals(b));
  ASSERT_TRUE(b.Insert("R", {Value::Int64(2)}).ok());
  EXPECT_FALSE(a.Equals(b));
}

TEST(InstanceTest, MinusAndUnion) {
  Instance a;
  a.DeclareRelation("R", 1);
  ASSERT_TRUE(a.Insert("R", {Value::Int64(1)}).ok());
  ASSERT_TRUE(a.Insert("R", {Value::Int64(2)}).ok());
  Instance b;
  b.DeclareRelation("R", 1);
  ASSERT_TRUE(b.Insert("R", {Value::Int64(2)}).ok());

  Instance diff = a.Minus(b);
  EXPECT_EQ(diff.Find("R")->size(), 1u);
  EXPECT_TRUE(diff.Find("R")->Contains({Value::Int64(1)}));

  b.UnionWith(a);
  EXPECT_EQ(b.Find("R")->size(), 2u);
}

TEST(InstanceTest, EmptyForDeclaresSchemaRelations) {
  model::Schema s = SchemaBuilder("S", Metamodel::kRelational)
                        .Relation("R", {{"a", DataType::Int64()},
                                        {"b", DataType::String()}})
                        .Build();
  Instance db = Instance::EmptyFor(s);
  ASSERT_TRUE(db.HasRelation("R"));
  EXPECT_EQ(db.Find("R")->arity(), 2u);
}

model::Schema PersonSchema() {
  return SchemaBuilder("ER", Metamodel::kEntityRelationship)
      .EntityType("Person", "",
                  {{"Id", DataType::Int64()}, {"Name", DataType::String()}})
      .EntityType("Employee", "Person", {{"Dept", DataType::String()}})
      .EntityType("Customer", "Person",
                  {{"CreditScore", DataType::Int64()},
                   {"BillingAddr", DataType::String()}})
      .EntitySet("Persons", "Person")
      .Build();
}

TEST(EntitySetLayoutTest, ColumnsUnionInHierarchyOrder) {
  model::Schema er = PersonSchema();
  auto layout =
      ComputeEntitySetLayout(er, *er.FindEntitySet("Persons"));
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->columns,
            (std::vector<std::string>{"Id", "Name", "Dept", "CreditScore",
                                      "BillingAddr"}));
  EXPECT_EQ(layout->arity(), 6u);  // +1 for $type
  EXPECT_EQ(layout->ColumnIndex("Dept"), 2u);
  EXPECT_EQ(layout->ColumnIndex("Nope"), EntitySetLayout::kNpos);
  EXPECT_EQ(layout->columns_of_type.at("Person"),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(layout->columns_of_type.at("Customer"),
            (std::vector<std::size_t>{0, 1, 3, 4}));
}

TEST(EntitySetLayoutTest, MakeEntityTuplePadsWithNulls) {
  model::Schema er = PersonSchema();
  auto layout = ComputeEntitySetLayout(er, *er.FindEntitySet("Persons"));
  ASSERT_TRUE(layout.ok());

  auto tuple = MakeEntityTuple(*layout, er, "Employee",
                               {Value::Int64(1), Value::String("Ada"),
                                Value::String("R&D")});
  ASSERT_TRUE(tuple.ok());
  ASSERT_EQ(tuple->size(), 6u);
  EXPECT_EQ((*tuple)[0], Value::String("Employee"));
  EXPECT_EQ((*tuple)[1], Value::Int64(1));
  EXPECT_EQ((*tuple)[2], Value::String("Ada"));
  EXPECT_EQ((*tuple)[3], Value::String("R&D"));
  EXPECT_TRUE((*tuple)[4].is_null());
  EXPECT_TRUE((*tuple)[5].is_null());
}

TEST(EntitySetLayoutTest, MakeEntityTupleValidatesTypeAndArity) {
  model::Schema er = PersonSchema();
  auto layout = ComputeEntitySetLayout(er, *er.FindEntitySet("Persons"));
  ASSERT_TRUE(layout.ok());
  EXPECT_FALSE(MakeEntityTuple(*layout, er, "Alien", {}).ok());
  EXPECT_FALSE(
      MakeEntityTuple(*layout, er, "Person", {Value::Int64(1)}).ok());
}

TEST(EntitySetLayoutTest, AbstractTypeCannotBeInstantiated) {
  model::Schema er =
      SchemaBuilder("ER", Metamodel::kEntityRelationship)
          .EntityType("Shape", "", {{"Id", DataType::Int64()}}, true)
          .EntityType("Circle", "Shape", {{"R", DataType::Double()}})
          .EntitySet("Shapes", "Shape")
          .Build();
  auto layout = ComputeEntitySetLayout(er, *er.FindEntitySet("Shapes"));
  ASSERT_TRUE(layout.ok());
  EXPECT_FALSE(MakeEntityTuple(*layout, er, "Shape", {Value::Int64(1)}).ok());
  EXPECT_TRUE(MakeEntityTuple(*layout, er, "Circle",
                              {Value::Int64(1), Value::Double(2.0)})
                  .ok());
}

}  // namespace
}  // namespace mm2::instance
