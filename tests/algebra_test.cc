#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "algebra/expr.h"
#include "instance/instance.h"
#include "model/schema.h"

namespace mm2::algebra {
namespace {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using model::DataType;
using model::Metamodel;
using model::SchemaBuilder;

Catalog TwoTableCatalog() {
  Catalog c;
  c.Add("Names", {"SID", "Name"});
  c.Add("Addresses", {"AID", "Address", "Country"});
  return c;
}

Instance StudentsDb() {
  Instance db;
  db.DeclareRelation("Names", 2);
  db.DeclareRelation("Addresses", 3);
  auto ins = [&](const char* rel, Tuple t) {
    ASSERT_TRUE(db.Insert(rel, std::move(t)).ok());
  };
  ins("Names", {Value::Int64(1), Value::String("Ada")});
  ins("Names", {Value::Int64(2), Value::String("Bob")});
  ins("Names", {Value::Int64(3), Value::String("Cyd")});
  ins("Addresses", {Value::Int64(1), Value::String("12 Oak"),
                    Value::String("US")});
  ins("Addresses", {Value::Int64(2), Value::String("5 Rue"),
                    Value::String("FR")});
  return db;
}

TEST(ScalarEvalTest, ColumnsAndLiterals) {
  std::vector<std::string> cols = {"a", "b"};
  Tuple row = {Value::Int64(1), Value::String("x")};
  auto v = EvaluateScalar(*Col("b"), cols, row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::String("x"));
  EXPECT_FALSE(EvaluateScalar(*Col("zzz"), cols, row).ok());
  EXPECT_EQ(*EvaluateScalar(*Lit(Value::Bool(true)), cols, row),
            Value::Bool(true));
}

TEST(ScalarEvalTest, ComparisonsWithNumericPromotion) {
  std::vector<std::string> cols = {"i", "d"};
  Tuple row = {Value::Int64(2), Value::Double(2.0)};
  auto eq = EvaluateScalar(*Scalar::Eq(Col("i"), Col("d")), cols, row);
  EXPECT_EQ(*eq, Value::Bool(true));
  auto lt = EvaluateScalar(
      *Scalar::Compare(Scalar::CompareOp::kLt, Col("i"), Lit(Value::Int64(3))),
      cols, row);
  EXPECT_EQ(*lt, Value::Bool(true));
  auto ge = EvaluateScalar(
      *Scalar::Compare(Scalar::CompareOp::kGe, Col("i"), Lit(Value::Int64(3))),
      cols, row);
  EXPECT_EQ(*ge, Value::Bool(false));
}

TEST(ScalarEvalTest, NullComparisonsAreFalse) {
  std::vector<std::string> cols = {"a"};
  Tuple row = {Value::Null()};
  EXPECT_EQ(*EvaluateScalar(*ColEqLit("a", Value::Int64(1)), cols, row),
            Value::Bool(false));
  EXPECT_EQ(*EvaluateScalar(*Scalar::IsNull(Col("a")), cols, row),
            Value::Bool(true));
  // Labeled nulls are values: equal labels compare equal... but only via
  // same-kind equality.
  Tuple row2 = {Value::LabeledNull(3)};
  EXPECT_EQ(*EvaluateScalar(*Scalar::Eq(Col("a"), Lit(Value::LabeledNull(3))),
                            cols, row2),
            Value::Bool(true));
  EXPECT_EQ(*EvaluateScalar(*Scalar::IsNull(Col("a")), cols, row2),
            Value::Bool(false));
}

TEST(ScalarEvalTest, BooleanConnectives) {
  std::vector<std::string> cols = {"a"};
  Tuple row = {Value::Int64(5)};
  ScalarRef t = ColEqLit("a", Value::Int64(5));
  ScalarRef f = ColEqLit("a", Value::Int64(6));
  EXPECT_EQ(*EvaluateScalar(*Scalar::And({t, t}), cols, row),
            Value::Bool(true));
  EXPECT_EQ(*EvaluateScalar(*Scalar::And({t, f}), cols, row),
            Value::Bool(false));
  EXPECT_EQ(*EvaluateScalar(*Scalar::Or({f, t}), cols, row),
            Value::Bool(true));
  EXPECT_EQ(*EvaluateScalar(*Scalar::Not(f), cols, row), Value::Bool(true));
  EXPECT_EQ(*EvaluateScalar(*Scalar::And({}), cols, row), Value::Bool(true));
  EXPECT_EQ(*EvaluateScalar(*Scalar::Or({}), cols, row), Value::Bool(false));
}

TEST(ScalarEvalTest, InList) {
  std::vector<std::string> cols = {"t"};
  Tuple row = {Value::String("Employee")};
  ScalarRef in = Scalar::In(
      Col("t"), {Value::String("Employee"), Value::String("Customer")});
  EXPECT_EQ(*EvaluateScalar(*in, cols, row), Value::Bool(true));
  Tuple row2 = {Value::String("Person")};
  EXPECT_EQ(*EvaluateScalar(*in, cols, row2), Value::Bool(false));
}

TEST(ScalarEvalTest, CaseSelectsFirstMatchingBranch) {
  std::vector<std::string> cols = {"x"};
  ScalarRef expr = Scalar::Case(
      {{ColEqLit("x", Value::Int64(1)), Lit(Value::String("one"))},
       {ColEqLit("x", Value::Int64(2)), Lit(Value::String("two"))}},
      Lit(Value::String("many")));
  EXPECT_EQ(*EvaluateScalar(*expr, cols, {Value::Int64(1)}),
            Value::String("one"));
  EXPECT_EQ(*EvaluateScalar(*expr, cols, {Value::Int64(2)}),
            Value::String("two"));
  EXPECT_EQ(*EvaluateScalar(*expr, cols, {Value::Int64(9)}),
            Value::String("many"));
  // Without an ELSE the result is NULL.
  ScalarRef no_else = Scalar::Case(
      {{ColEqLit("x", Value::Int64(1)), Lit(Value::String("one"))}}, nullptr);
  EXPECT_TRUE(
      EvaluateScalar(*no_else, cols, {Value::Int64(9)})->is_null());
}

TEST(EvalTest, ScanAndSelect) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  auto t = Evaluate(*Expr::Select(Expr::Scan("Addresses"),
                                  ColEqLit("Country", Value::String("US"))),
                    cat, db);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 1u);
  EXPECT_EQ(t->rows[0][1], Value::String("12 Oak"));
}

TEST(EvalTest, ScanMissingRelationFails) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  EXPECT_FALSE(Evaluate(*Expr::Scan("Nope"), cat, db).ok());
}

TEST(EvalTest, ProjectRenamesAndComputes) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  auto t = Evaluate(
      *Expr::Project(Expr::Scan("Names"),
                     {{"id", Col("SID")},
                      {"is_ada", ColEqLit("Name", Value::String("Ada"))}}),
      cat, db);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->columns, (std::vector<std::string>{"id", "is_ada"}));
  ASSERT_EQ(t->rows.size(), 3u);
  std::size_t ada_true = 0;
  for (const Tuple& row : t->rows) {
    if (row[1] == Value::Bool(true)) ++ada_true;
  }
  EXPECT_EQ(ada_true, 1u);
}

TEST(EvalTest, InnerJoinMatchesKeys) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  auto t = Evaluate(*Expr::Join(Expr::Scan("Names"), Expr::Scan("Addresses"),
                                Expr::JoinKind::kInner, {{"SID", "AID"}}),
                    cat, db);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->columns.size(), 5u);
  EXPECT_EQ(t->rows.size(), 2u);  // Cyd has no address
}

TEST(EvalTest, LeftOuterJoinPadsWithNulls) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  auto t = Evaluate(*Expr::Join(Expr::Scan("Names"), Expr::Scan("Addresses"),
                                Expr::JoinKind::kLeftOuter, {{"SID", "AID"}}),
                    cat, db);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows.size(), 3u);
  bool found_padded = false;
  for (const Tuple& row : t->rows) {
    if (row[1] == Value::String("Cyd")) {
      found_padded = true;
      EXPECT_TRUE(row[2].is_null());
      EXPECT_TRUE(row[4].is_null());
    }
  }
  EXPECT_TRUE(found_padded);
}

TEST(EvalTest, JoinRejectsColumnCollision) {
  Instance db = StudentsDb();
  Catalog cat;
  cat.Add("Names", {"SID", "Name"});
  cat.Add("Addresses", {"SID", "Address", "Country"});
  auto t = Evaluate(*Expr::Join(Expr::Scan("Names"), Expr::Scan("Addresses"),
                                Expr::JoinKind::kInner, {{"SID", "SID"}}),
                    cat, db);
  EXPECT_FALSE(t.ok());
}

TEST(EvalTest, NullKeysNeverJoin) {
  Instance db;
  db.DeclareRelation("L", 1);
  db.DeclareRelation("R", 1);
  ASSERT_TRUE(db.Insert("L", {Value::Null()}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Null()}).ok());
  Catalog cat;
  cat.Add("L", {"a"});
  cat.Add("R", {"b"});
  auto t = Evaluate(*Expr::Join(Expr::Scan("L"), Expr::Scan("R"),
                                Expr::JoinKind::kInner, {{"a", "b"}}),
                    cat, db);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->rows.empty());
}

TEST(EvalTest, CrossJoinAndConst) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  // Local × {"US"}: the Fig. 6 composition idiom.
  ExprRef us = Expr::Const({"Country2"}, {{Value::String("US")}});
  auto t = Evaluate(*Expr::Join(Expr::Scan("Names"), us,
                                Expr::JoinKind::kCross, {}),
                    cat, db);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows.size(), 3u);
  for (const Tuple& row : t->rows) {
    EXPECT_EQ(row[2], Value::String("US"));
  }
}

TEST(EvalTest, UnionDifferenceDistinct) {
  Instance db;
  db.DeclareRelation("A", 1);
  db.DeclareRelation("B", 1);
  ASSERT_TRUE(db.Insert("A", {Value::Int64(1)}).ok());
  ASSERT_TRUE(db.Insert("A", {Value::Int64(2)}).ok());
  ASSERT_TRUE(db.Insert("B", {Value::Int64(2)}).ok());
  Catalog cat;
  cat.Add("A", {"x"});
  cat.Add("B", {"x"});

  auto u = Evaluate(*Expr::Union({Expr::Scan("A"), Expr::Scan("B")}), cat, db);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->rows.size(), 3u);  // UNION ALL keeps the duplicate 2

  auto dedup = Evaluate(
      *Expr::Distinct(Expr::Union({Expr::Scan("A"), Expr::Scan("B")})), cat,
      db);
  EXPECT_EQ(dedup->rows.size(), 2u);

  auto d = Evaluate(*Expr::Difference(Expr::Scan("A"), Expr::Scan("B")), cat,
                    db);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->rows.size(), 1u);
  EXPECT_EQ(d->rows[0][0], Value::Int64(1));
}

TEST(EvalTest, UnionArityMismatchFails) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  EXPECT_FALSE(
      Evaluate(*Expr::Union({Expr::Scan("Names"), Expr::Scan("Addresses")}),
               cat, db)
          .ok());
  EXPECT_FALSE(Evaluate(*Expr::Union({}), cat, db).ok());
}

TEST(CatalogTest, FromSchemaIncludesEntitySets) {
  model::Schema er =
      SchemaBuilder("ER", Metamodel::kEntityRelationship)
          .EntityType("Person", "", {{"Id", DataType::Int64()},
                                     {"Name", DataType::String()}})
          .EntityType("Employee", "Person", {{"Dept", DataType::String()}})
          .EntitySet("Persons", "Person")
          .Build();
  auto cat = Catalog::FromSchema(er);
  ASSERT_TRUE(cat.ok());
  auto cols = cat->ColumnsOf("Persons");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(*cols,
            (std::vector<std::string>{"$type", "Id", "Name", "Dept"}));
}

TEST(TableTest, SetEqualsIgnoresOrderAndDuplicates) {
  Table a{{"x"}, {{Value::Int64(1)}, {Value::Int64(2)}}};
  Table b{{"x"}, {{Value::Int64(2)}, {Value::Int64(1)}, {Value::Int64(1)}}};
  EXPECT_TRUE(a.SetEquals(b));
  Table c{{"y"}, {{Value::Int64(1)}, {Value::Int64(2)}}};
  EXPECT_FALSE(a.SetEquals(c));  // column names differ
}

TEST(MaterializeTest, WritesSetSemantics) {
  Table t{{"x"}, {{Value::Int64(1)}, {Value::Int64(1)}, {Value::Int64(2)}}};
  Instance db;
  Materialize(t, "Out", &db);
  EXPECT_EQ(db.Find("Out")->size(), 2u);
}

TEST(EvalIndexTest, JoinWithScanRightSideProbesIndexes) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  auto t = Evaluate(*Expr::Join(Expr::Scan("Names"), Expr::Scan("Addresses"),
                                Expr::JoinKind::kInner, {{"SID", "AID"}}),
                    cat, db);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows.size(), 2u);
  // The left rows probed the Addresses key through the hash index, so a
  // later probe finds it built; the join seals nothing.
  instance::IndexStats stats;
  const instance::RelationInstance* addresses = db.Find("Addresses");
  ASSERT_NE(addresses->Probe({0}, {Value::Int64(1)}, &stats), nullptr);
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_FALSE(addresses->SegmentCurrent());
}

TEST(EvalIndexTest, ProbeJoinAgreesWithGenericHashJoin) {
  Instance db = StudentsDb();
  Catalog cat = TwoTableCatalog();
  // A no-op Select wrapper takes the right child off the scan fast path,
  // forcing the generic hash join over the same rows.
  for (Expr::JoinKind kind :
       {Expr::JoinKind::kInner, Expr::JoinKind::kLeftOuter}) {
    auto probe =
        Evaluate(*Expr::Join(Expr::Scan("Names"), Expr::Scan("Addresses"),
                             kind, {{"SID", "AID"}}),
                 cat, db);
    auto generic = Evaluate(
        *Expr::Join(Expr::Scan("Names"),
                    Expr::Select(Expr::Scan("Addresses"), Scalar::And({})),
                    kind, {{"SID", "AID"}}),
        cat, db);
    ASSERT_TRUE(probe.ok() && generic.ok());
    EXPECT_EQ(probe->columns, generic->columns);
    EXPECT_TRUE(probe->SetEquals(*generic));
    EXPECT_EQ(probe->rows, generic->rows);  // same enumeration order too
  }
}

TEST(EvalIndexTest, SelectOnKeyUsesIndexAndKeepsFullPredicate) {
  Instance db;
  db.DeclareRelation("N", 2);
  ASSERT_TRUE(db.Insert("N", {Value::Int64(1), Value::String("a")}).ok());
  ASSERT_TRUE(db.Insert("N", {Value::Int64(1), Value::String("b")}).ok());
  ASSERT_TRUE(db.Insert("N", {Value::Int64(2), Value::String("a")}).ok());
  Catalog cat;
  cat.Add("N", {"k", "s"});

  // k = 1 seeds the probe; the conjoined s = "a" must still filter.
  auto t = Evaluate(
      *Expr::Select(Expr::Scan("N"),
                    Scalar::And({ColEqLit("k", Value::Int64(1)),
                                 ColEqLit("s", Value::String("a"))})),
      cat, db);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 1u);
  EXPECT_EQ(t->rows[0][1], Value::String("a"));
  // The select probed k's hash index: a later probe finds it built.
  instance::IndexStats stats;
  ASSERT_NE(db.Find("N")->Probe({0}, {Value::Int64(1)}, &stats), nullptr);
  EXPECT_EQ(stats.builds, 0u);
}

TEST(EvalIndexTest, SelectFastPathHandlesNumericPromotion) {
  // The scan path compares numerics promoted to double, so a Double
  // literal matches Int64 rows; the probe path must enumerate every stored
  // representation of the key rather than probing just the literal's kind.
  Instance db;
  db.DeclareRelation("N", 2);
  ASSERT_TRUE(db.Insert("N", {Value::Int64(2), Value::String("int")}).ok());
  ASSERT_TRUE(db.Insert("N", {Value::Double(2.0), Value::String("dbl")}).ok());
  ASSERT_TRUE(db.Insert("N", {Value::Int64(3), Value::String("three")}).ok());
  Catalog cat;
  cat.Add("N", {"k", "s"});

  auto by_double = Evaluate(
      *Expr::Select(Expr::Scan("N"), ColEqLit("k", Value::Double(2.0))),
      cat, db);
  ASSERT_TRUE(by_double.ok());
  EXPECT_EQ(by_double->rows.size(), 2u);  // Int64(2) and Double(2.0)
  auto by_int = Evaluate(
      *Expr::Select(Expr::Scan("N"), ColEqLit("k", Value::Int64(2))),
      cat, db);
  ASSERT_TRUE(by_int.ok());
  EXPECT_EQ(by_int->rows.size(), 2u);

  // Beyond 2^53 double promotion is lossy; the fast path bows out and the
  // scan path's (documented) promoted comparison decides.
  auto huge = Evaluate(
      *Expr::Select(Expr::Scan("N"), ColEqLit("k", Value::Double(1e300))),
      cat, db);
  ASSERT_TRUE(huge.ok());
  EXPECT_TRUE(huge->rows.empty());
}

TEST(SqlPrinterTest, RendersReadableSql) {
  ExprRef query = Expr::Project(
      Expr::Select(Expr::Scan("Empl"), ColEqLit("Dept", Value::String("R&D"))),
      {{"Id", Col("Id")}});
  std::string sql = query->ToSql();
  EXPECT_NE(sql.find("SELECT Id"), std::string::npos);
  EXPECT_NE(sql.find("WHERE Dept = \"R&D\""), std::string::npos);
  std::string alg = query->ToString();
  EXPECT_NE(alg.find("σ"), std::string::npos);
  EXPECT_NE(alg.find("π"), std::string::npos);
}

}  // namespace
}  // namespace mm2::algebra
