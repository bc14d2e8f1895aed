// OLAP: the paper's "OLAP databases, which map data sources into data
// cubes" usage scenario. An OLTP snowflake is loaded into a flat warehouse
// table through an engineered mapping (compiled to a set-oriented loader,
// the Section 5 batch-loading path), then rolled up with grouped
// aggregation.
//
// Build & run:  ./build/examples/olap_cube
#include <iostream>

#include "algebra/eval.h"
#include "logic/formula.h"
#include "model/schema.h"
#include "transgen/relational.h"

using mm2::instance::Instance;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Term;
using mm2::model::DataType;

namespace {

int Fail(const mm2::Status& status) {
  std::cerr << "error: " << status << std::endl;
  return 1;
}

mm2::logic::Term V(const char* name) { return Term::Var(name); }

}  // namespace

int main() {
  // OLTP side: orders referencing a product dimension.
  mm2::model::Schema oltp =
      mm2::model::SchemaBuilder("OLTP", mm2::model::Metamodel::kRelational)
          .Relation("Orders", {{"OrderId", DataType::Int64()},
                               {"ProductId", DataType::Int64()},
                               {"Qty", DataType::Int64()},
                               {"Price", DataType::Double()}},
                    {"OrderId"})
          .Relation("Products", {{"ProductId", DataType::Int64()},
                                 {"Name", DataType::String()},
                                 {"Category", DataType::String()}},
                    {"ProductId"})
          .ForeignKey("Orders", {"ProductId"}, "Products", {"ProductId"})
          .Build();
  // Warehouse side: one flat fact table.
  mm2::model::Schema warehouse =
      mm2::model::SchemaBuilder("DW", mm2::model::Metamodel::kRelational)
          .Relation("Fact", {{"OrderId", DataType::Int64()},
                             {"Category", DataType::String()},
                             {"Qty", DataType::Int64()},
                             {"Price", DataType::Double()}},
                    {"OrderId"})
          .Build();

  // The engineered ETL mapping: Fact rows join Orders with Products.
  mm2::logic::Tgd etl;
  etl.body = {Atom{"Orders", {V("o"), V("p"), V("q"), V("pr")}},
              Atom{"Products", {V("p"), V("n"), V("c")}}};
  etl.head = {Atom{"Fact", {V("o"), V("c"), V("q"), V("pr")}}};
  mm2::logic::Mapping mapping =
      mm2::logic::Mapping::FromTgds("etl", oltp, warehouse, {etl});
  std::cout << mapping.ToString() << "\n\n";

  // Compile to a batch loader and print its SQL.
  auto compiled = mm2::transgen::CompileRelationalMapping(mapping);
  if (!compiled.ok()) return Fail(compiled.status());
  std::cout << compiled->ToString() << "\n";

  // OLTP data.
  Instance db = Instance::EmptyFor(oltp);
  auto order = [&](int id, int product, int qty, double price) {
    (void)db.Insert("Orders", {Value::Int64(id), Value::Int64(product),
                               Value::Int64(qty), Value::Double(price)});
  };
  (void)db.Insert("Products", {Value::Int64(1), Value::String("widget"),
                               Value::String("tools")});
  (void)db.Insert("Products", {Value::Int64(2), Value::String("gadget"),
                               Value::String("tools")});
  (void)db.Insert("Products", {Value::Int64(3), Value::String("manual"),
                               Value::String("books")});
  order(100, 1, 2, 9.5);
  order(101, 2, 1, 24.0);
  order(102, 3, 5, 7.0);
  order(103, 1, 1, 9.5);

  // Load.
  auto loaded = mm2::transgen::ExecuteCompiledMapping(*compiled, mapping, db);
  if (!loaded.ok()) return Fail(loaded.status());
  std::cout << "warehouse:\n" << loaded->ToString() << "\n";

  // Roll up: revenue and volume per category. (Revenue uses Qty*Price —
  // approximated here as SUM over Price with COUNT/SUM of Qty since the
  // algebra has no arithmetic projection; the cube shape is the point.)
  mm2::algebra::ExprRef cube = mm2::algebra::Expr::Aggregate(
      mm2::algebra::Expr::Scan("Fact"), {"Category"},
      {{mm2::algebra::Expr::AggOp::kCount, "", "Orders"},
       {mm2::algebra::Expr::AggOp::kSum, "Qty", "Units"},
       {mm2::algebra::Expr::AggOp::kAvg, "Price", "AvgPrice"},
       {mm2::algebra::Expr::AggOp::kMax, "Price", "TopPrice"}});
  std::cout << "cube query:\n" << cube->ToSql() << "\n\n";

  auto catalog = mm2::algebra::Catalog::FromSchema(warehouse);
  if (!catalog.ok()) return Fail(catalog.status());
  auto result = mm2::algebra::Evaluate(*cube, *catalog, *loaded);
  if (!result.ok()) return Fail(result.status());
  std::cout << "category roll-up:\n" << result->ToString();
  return 0;
}
