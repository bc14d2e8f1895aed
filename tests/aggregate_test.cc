// Tests for grouped aggregation — the "first-order logic with aggregation"
// expressiveness item of Section 2, backing the OLAP usage scenario.
#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "algebra/expr.h"
#include "instance/instance.h"

namespace mm2::algebra {
namespace {

using instance::Instance;
using instance::Tuple;
using instance::Value;

Catalog SalesCatalog() {
  Catalog c;
  c.Add("Sales", {"Region", "Product", "Amount"});
  return c;
}

Instance SalesDb() {
  Instance db;
  db.DeclareRelation("Sales", 3);
  auto add = [&](const char* region, const char* product, double amount) {
    db.InsertUnchecked("Sales", {Value::String(region),
                                 Value::String(product),
                                 Value::Double(amount)});
  };
  add("EU", "widget", 10.0);
  add("EU", "widget", 15.0);
  add("EU", "gadget", 20.0);
  add("US", "widget", 5.0);
  return db;
}

std::map<Tuple, Tuple> ByKey(const Table& t, std::size_t key_cols) {
  std::map<Tuple, Tuple> out;
  for (const Tuple& row : t.rows) {
    Tuple key(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(key_cols));
    out[key] = row;
  }
  return out;
}

TEST(AggregateTest, GroupBySums) {
  ExprRef cube = Expr::Aggregate(
      Expr::Scan("Sales"), {"Region"},
      {{Expr::AggOp::kSum, "Amount", "Total"},
       {Expr::AggOp::kCount, "", "Rows"}});
  auto t = Evaluate(*cube, SalesCatalog(), SalesDb());
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->columns,
            (std::vector<std::string>{"Region", "Total", "Rows"}));
  auto rows = ByKey(*t, 1);
  ASSERT_EQ(rows.size(), 2u);
  // Sales has set semantics, but these rows are all distinct.
  EXPECT_EQ(rows.at({Value::String("EU")})[1], Value::Double(45.0));
  EXPECT_EQ(rows.at({Value::String("EU")})[2], Value::Int64(3));
  EXPECT_EQ(rows.at({Value::String("US")})[1], Value::Double(5.0));
}

TEST(AggregateTest, MultiColumnGroupBy) {
  ExprRef cube = Expr::Aggregate(
      Expr::Scan("Sales"), {"Region", "Product"},
      {{Expr::AggOp::kMax, "Amount", "Best"}});
  auto t = Evaluate(*cube, SalesCatalog(), SalesDb());
  ASSERT_TRUE(t.ok());
  auto rows = ByKey(*t, 2);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.at({Value::String("EU"), Value::String("widget")})[2],
            Value::Double(15.0));
}

TEST(AggregateTest, GlobalAggregateWithoutGroupBy) {
  ExprRef total = Expr::Aggregate(
      Expr::Scan("Sales"), {},
      {{Expr::AggOp::kCount, "", "N"},
       {Expr::AggOp::kMin, "Amount", "Lo"},
       {Expr::AggOp::kMax, "Amount", "Hi"},
       {Expr::AggOp::kAvg, "Amount", "Mean"}});
  auto t = Evaluate(*total, SalesCatalog(), SalesDb());
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 1u);
  const Tuple& row = t->rows[0];
  EXPECT_EQ(row[0], Value::Int64(4));
  EXPECT_EQ(row[1], Value::Double(5.0));
  EXPECT_EQ(row[2], Value::Double(20.0));
  EXPECT_EQ(row[3], Value::Double(12.5));
}

TEST(AggregateTest, EmptyInputGlobalGroupStillEmitsRow) {
  Instance empty;
  empty.DeclareRelation("Sales", 3);
  ExprRef total = Expr::Aggregate(
      Expr::Scan("Sales"), {},
      {{Expr::AggOp::kCount, "", "N"}, {Expr::AggOp::kSum, "Amount", "S"}});
  auto t = Evaluate(*total, SalesCatalog(), empty);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 1u);
  EXPECT_EQ(t->rows[0][0], Value::Int64(0));
  EXPECT_TRUE(t->rows[0][1].is_null());  // SUM over nothing is NULL
  // With a GROUP BY there are no groups, hence no rows.
  ExprRef grouped = Expr::Aggregate(Expr::Scan("Sales"), {"Region"},
                                    {{Expr::AggOp::kCount, "", "N"}});
  auto g = Evaluate(*grouped, SalesCatalog(), empty);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->rows.empty());
}

TEST(AggregateTest, NullsAreSkipped) {
  Instance db;
  db.DeclareRelation("Sales", 3);
  db.InsertUnchecked("Sales", {Value::String("EU"), Value::String("w"),
                               Value::Double(10.0)});
  db.InsertUnchecked("Sales",
                     {Value::String("EU"), Value::String("x"), Value::Null()});
  ExprRef agg = Expr::Aggregate(
      Expr::Scan("Sales"), {"Region"},
      {{Expr::AggOp::kCount, "Amount", "NonNull"},
       {Expr::AggOp::kCount, "", "All"},
       {Expr::AggOp::kAvg, "Amount", "Mean"}});
  auto t = Evaluate(*agg, SalesCatalog(), db);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->rows.size(), 1u);
  EXPECT_EQ(t->rows[0][1], Value::Int64(1));  // COUNT(Amount) skips NULL
  EXPECT_EQ(t->rows[0][2], Value::Int64(2));  // COUNT(*) does not
  EXPECT_EQ(t->rows[0][3], Value::Double(10.0));
}

TEST(AggregateTest, MinMaxWorkOnStrings) {
  ExprRef agg = Expr::Aggregate(Expr::Scan("Sales"), {},
                                {{Expr::AggOp::kMin, "Product", "First"},
                                 {Expr::AggOp::kMax, "Product", "Last"}});
  auto t = Evaluate(*agg, SalesCatalog(), SalesDb());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows[0][0], Value::String("gadget"));
  EXPECT_EQ(t->rows[0][1], Value::String("widget"));
}

TEST(AggregateTest, MissingColumnsAreErrors) {
  ExprRef bad_group = Expr::Aggregate(Expr::Scan("Sales"), {"Nope"},
                                      {{Expr::AggOp::kCount, "", "N"}});
  EXPECT_FALSE(Evaluate(*bad_group, SalesCatalog(), SalesDb()).ok());
  ExprRef bad_input = Expr::Aggregate(Expr::Scan("Sales"), {},
                                      {{Expr::AggOp::kSum, "Nope", "S"}});
  EXPECT_FALSE(Evaluate(*bad_input, SalesCatalog(), SalesDb()).ok());
}

TEST(AggregateTest, PrintersRenderIt) {
  ExprRef cube = Expr::Aggregate(
      Expr::Select(Expr::Select(Expr::Scan("Sales"),
                                ColEqLit("Region", Value::String("EU"))),
                   Lit(Value::Bool(true))),
      {"Product"}, {{Expr::AggOp::kSum, "Amount", "Total"}});
  EXPECT_NE(cube->ToString().find("γ"), std::string::npos);
  EXPECT_NE(cube->ToSql().find("GROUP BY Product"), std::string::npos);
}

}  // namespace
}  // namespace mm2::algebra
