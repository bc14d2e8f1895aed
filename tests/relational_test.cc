// Tests for the flat relational mapping compiler (the Section 5 "batch
// loading" fast path): compiled plans must agree with the chase wherever
// the flat NULL approximation is exact, and refuse the cases that need
// genuine labeled-null machinery.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "chase/chase.h"
#include "engine/engine.h"
#include "transgen/relational.h"
#include "workload/generators.h"

namespace mm2::transgen {
namespace {

using instance::Instance;
using instance::Value;
using logic::Atom;
using logic::Egd;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using model::DataType;
using model::Metamodel;
using model::SchemaBuilder;

Term V(const char* name) { return Term::Var(name); }
Term C(const char* s) { return Term::Const(Value::String(s)); }

model::Schema Src() {
  return SchemaBuilder("S", Metamodel::kRelational)
      .Relation("Names", {{"SID", DataType::Int64()},
                          {"Name", DataType::String()}},
                {"SID"})
      .Relation("Addresses", {{"SID", DataType::Int64()},
                              {"Address", DataType::String()},
                              {"Country", DataType::String()}},
                {"SID"})
      .Build();
}

model::Schema Tgt() {
  return SchemaBuilder("T", Metamodel::kRelational)
      .Relation("Students", {{"Name", DataType::String()},
                             {"Address", DataType::String()}})
      .Relation("Locals", {{"SID", DataType::Int64()},
                           {"Address", DataType::String()}})
      .Build();
}

Instance SrcDb() {
  Instance db;
  db.DeclareRelation("Names", 2);
  db.DeclareRelation("Addresses", 3);
  EXPECT_TRUE(db.Insert("Names", {Value::Int64(1), Value::String("Ada")}).ok());
  EXPECT_TRUE(db.Insert("Names", {Value::Int64(2), Value::String("Bob")}).ok());
  EXPECT_TRUE(db.Insert("Addresses", {Value::Int64(1), Value::String("12 Oak"),
                                      Value::String("US")})
                  .ok());
  EXPECT_TRUE(db.Insert("Addresses", {Value::Int64(2), Value::String("5 Rue"),
                                      Value::String("FR")})
                  .ok());
  return db;
}

TEST(RelationalCompileTest, JoinBodyCompilesAndAgreesWithChase) {
  // Students(n, a) :- Names(s, n) & Addresses(s, a, c).
  Tgd tgd;
  tgd.body = {Atom{"Names", {V("s"), V("n")}},
              Atom{"Addresses", {V("s"), V("a"), V("c")}}};
  tgd.head = {Atom{"Students", {V("n"), V("a")}}};
  Mapping m = Mapping::FromTgds("m", Src(), Tgt(), {tgd});

  auto compiled = CompileRelationalMapping(m);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->null_approximations, 0u);
  ASSERT_EQ(compiled->loaders.size(), 1u);

  auto fast = ExecuteCompiledMapping(*compiled, m, SrcDb());
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto slow = chase::RunChase(m, SrcDb());
  ASSERT_TRUE(slow.ok());
  EXPECT_TRUE(fast->Equals(slow->target))
      << "fast:\n" << fast->ToString() << "slow:\n" << slow->target.ToString();
}

TEST(RelationalCompileTest, ConstantsBecomeSelections) {
  // Locals(s, a) :- Addresses(s, a, "US").
  Tgd tgd;
  tgd.body = {Atom{"Addresses", {V("s"), V("a"), C("US")}}};
  tgd.head = {Atom{"Locals", {V("s"), V("a")}}};
  Mapping m = Mapping::FromTgds("m", Src(), Tgt(), {tgd});
  auto compiled = CompileRelationalMapping(m);
  ASSERT_TRUE(compiled.ok());
  auto fast = ExecuteCompiledMapping(*compiled, m, SrcDb());
  ASSERT_TRUE(fast.ok());
  ASSERT_EQ(fast->Find("Locals")->size(), 1u);
  EXPECT_TRUE(fast->Find("Locals")->Contains(
      {Value::Int64(1), Value::String("12 Oak")}));
}

TEST(RelationalCompileTest, RepeatedVariableWithinAtom) {
  // Self-equal columns: Locals(s, a) :- Addresses(s, a, a) (address ==
  // country, contrived but exercises the local selection path).
  Tgd tgd;
  tgd.body = {Atom{"Addresses", {V("s"), V("a"), V("a")}}};
  tgd.head = {Atom{"Locals", {V("s"), V("a")}}};
  Mapping m = Mapping::FromTgds("m", Src(), Tgt(), {tgd});
  auto compiled = CompileRelationalMapping(m);
  ASSERT_TRUE(compiled.ok());
  Instance db = SrcDb();
  ASSERT_TRUE(db.Insert("Addresses", {Value::Int64(3), Value::String("X"),
                                      Value::String("X")})
                  .ok());
  auto fast = ExecuteCompiledMapping(*compiled, m, db);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->Find("Locals")->size(), 1u);
  auto slow = chase::RunChase(m, db);
  ASSERT_TRUE(slow.ok());
  EXPECT_TRUE(fast->Equals(slow->target));
}

TEST(RelationalCompileTest, DisconnectedAtomsCrossProduct) {
  Tgd tgd;
  tgd.body = {Atom{"Names", {V("s"), V("n")}},
              Atom{"Addresses", {V("s2"), V("a"), V("c")}}};
  tgd.head = {Atom{"Students", {V("n"), V("a")}}};
  Mapping m = Mapping::FromTgds("m", Src(), Tgt(), {tgd});
  auto compiled = CompileRelationalMapping(m);
  ASSERT_TRUE(compiled.ok());
  auto fast = ExecuteCompiledMapping(*compiled, m, SrcDb());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->Find("Students")->size(), 4u);  // 2 x 2
  auto slow = chase::RunChase(m, SrcDb());
  EXPECT_TRUE(fast->Equals(slow->target));
}

TEST(RelationalCompileTest, ExistentialsBecomeNullColumns) {
  // Locals(s, a) with a existential: flat NULL approximation.
  Tgd tgd;
  tgd.body = {Atom{"Names", {V("s"), V("n")}}};
  tgd.head = {Atom{"Locals", {V("s"), V("a")}}};
  Mapping m = Mapping::FromTgds("m", Src(), Tgt(), {tgd});
  auto compiled = CompileRelationalMapping(m);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->null_approximations, 1u);
  auto fast = ExecuteCompiledMapping(*compiled, m, SrcDb());
  ASSERT_TRUE(fast.ok());
  for (const instance::Tuple& t : fast->Find("Locals")->tuples()) {
    EXPECT_TRUE(t[1].is_null());  // plain NULL, not labeled
  }
}

TEST(RelationalCompileTest, MultipleTgdsUnion) {
  Tgd from_names;
  from_names.body = {Atom{"Names", {V("s"), V("n")}}};
  from_names.head = {Atom{"Students", {V("n"), V("n")}}};
  Tgd from_addresses;
  from_addresses.body = {Atom{"Addresses", {V("s"), V("a"), V("c")}}};
  from_addresses.head = {Atom{"Students", {V("a"), V("a")}}};
  Mapping m =
      Mapping::FromTgds("m", Src(), Tgt(), {from_names, from_addresses});
  auto compiled = CompileRelationalMapping(m);
  ASSERT_TRUE(compiled.ok());
  auto fast = ExecuteCompiledMapping(*compiled, m, SrcDb());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->Find("Students")->size(), 4u);
  auto slow = chase::RunChase(m, SrcDb());
  EXPECT_TRUE(fast->Equals(slow->target));
}

TEST(RelationalCompileTest, RejectsChaseOnlyFeatures) {
  Tgd tgd;
  tgd.body = {Atom{"Names", {V("s"), V("n")}}};
  tgd.head = {Atom{"Locals", {V("s"), V("n")}}};
  Egd key;
  key.body = {Atom{"Locals", {V("s"), V("a")}},
              Atom{"Locals", {V("s"), V("b")}}};
  key.left = "a";
  key.right = "b";
  Mapping with_egd = Mapping::FromTgds("m", Src(), Tgt(), {tgd}, {key});
  EXPECT_EQ(CompileRelationalMapping(with_egd).status().code(),
            StatusCode::kUnsupported);

  logic::SoTgd so;
  Mapping second_order = Mapping::FromSoTgd("so", Src(), Tgt(), so);
  EXPECT_EQ(CompileRelationalMapping(second_order).status().code(),
            StatusCode::kUnsupported);
}

TEST(RelationalCompileTest, AgreesWithChaseOnEvolutionChains) {
  // Property sweep: the lossless evolution-chain mappings compile exactly.
  for (std::size_t attrs : {2u, 4u, 6u}) {
    mm2::workload::EvolutionChain chain =
        mm2::workload::MakeEvolutionChain(2, attrs);
    mm2::workload::Rng rng(attrs);
    Instance db = mm2::workload::MakeChainInstance(chain, 15, &rng);
    Instance current = db;
    for (const Mapping& step : chain.steps) {
      auto compiled = CompileRelationalMapping(step);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      auto fast = ExecuteCompiledMapping(*compiled, step, current);
      ASSERT_TRUE(fast.ok());
      auto slow = chase::RunChase(step, current);
      ASSERT_TRUE(slow.ok());
      EXPECT_TRUE(fast->Equals(slow->target)) << "attrs=" << attrs;
      current = *fast;
    }
  }
}

TEST(RelationalCompileTest, ToStringListsLoaders) {
  Tgd tgd;
  tgd.body = {Atom{"Names", {V("s"), V("n")}}};
  tgd.head = {Atom{"Students", {V("n"), V("n")}}};
  Mapping m = Mapping::FromTgds("m", Src(), Tgt(), {tgd});
  auto compiled = CompileRelationalMapping(m);
  ASSERT_TRUE(compiled.ok());
  EXPECT_NE(compiled->ToString().find("loader for Students"),
            std::string::npos);
}

// E(x0, x1), E(x1, x2), ..., E(x<n-1>, x<n>) -> Path(x0, x<n>): a chain
// body of `atoms` atoms over one binary source relation.
Mapping ChainMapping(std::size_t atoms) {
  model::Schema source = SchemaBuilder("ChainSrc", Metamodel::kRelational)
                             .Relation("E", {{"a", DataType::Int64()},
                                             {"b", DataType::Int64()}})
                             .Build();
  model::Schema target = SchemaBuilder("ChainTgt", Metamodel::kRelational)
                             .Relation("Path", {{"a", DataType::Int64()},
                                                {"b", DataType::Int64()}})
                             .Build();
  auto var = [](std::size_t i) { return Term::Var("x" + std::to_string(i)); };
  Tgd tgd;
  tgd.body.reserve(atoms);
  for (std::size_t i = 0; i < atoms; ++i) {
    tgd.body.push_back(Atom{"E", {var(i), var(i + 1)}});
  }
  tgd.head = {Atom{"Path", {var(0), var(atoms)}}};
  return Mapping::FromTgds("deep", source, target, {tgd});
}

// The compiled loader is a join tree one level per body atom, and `ToSql`
// and the tree's destructor recurse once per level, so an overlong body is
// refused up front: both `sql` (which prints CompileRelationalMapping) and
// `batchload` answer InvalidArgument naming the limit and the chase,
// instead of overflowing the stack.
TEST(RelationalCompileTest, RefusesBodiesBeyondTheAtomLimit) {
  const Mapping deep = ChainMapping(30000);
  auto compiled = CompileRelationalMapping(deep);
  ASSERT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = compiled.status().message();
  EXPECT_NE(message.find("30000 atoms"), std::string::npos) << message;
  EXPECT_NE(message.find(std::to_string(kMaxCompiledBodyAtoms)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("use exchange"), std::string::npos) << message;

  engine::Engine engine;
  ASSERT_TRUE(engine.repo().PutSchema(deep.source()).ok());
  ASSERT_TRUE(engine.repo().PutSchema(deep.target()).ok());
  ASSERT_TRUE(engine.repo().PutMapping(deep).ok());
  Instance db = Instance::EmptyFor(deep.source());
  ASSERT_TRUE(db.Insert("E", {Value::Int64(0), Value::Int64(1)}).ok());
  ASSERT_TRUE(engine.repo().PutInstance("G", std::move(db)).ok());
  auto loaded = engine.RunScript("batchload Out deep G");
  ASSERT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("use exchange"), std::string::npos)
      << loaded.status().message();
  EXPECT_FALSE(engine.repo().HasInstance("Out"));
}

TEST(RelationalCompileTest, CompilesABodyAtTheAtomLimit) {
  auto compiled = CompileRelationalMapping(ChainMapping(kMaxCompiledBodyAtoms));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->loaders.count("Path"), 1u);
}

// A body at the limit must also run, within the default stack under the
// sanitizers too, and load what the chase derives. E holds a 3-cycle, each
// of whose nodes starts exactly one path of every length, and a 3-edge
// tail whose paths die out after a few joins.
TEST(RelationalCompileTest, ExecutesABodyAtTheAtomLimit) {
  const Mapping deep = ChainMapping(kMaxCompiledBodyAtoms);
  auto compiled = CompileRelationalMapping(deep);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  Instance db = Instance::EmptyFor(deep.source());
  const std::vector<std::pair<std::int64_t, std::int64_t>> edges = {
      {0, 1}, {1, 2}, {2, 0}, {10, 11}, {11, 12}, {12, 13}};
  for (const auto& [from, to] : edges) {
    ASSERT_TRUE(db.Insert("E", {Value::Int64(from), Value::Int64(to)}).ok());
  }
  auto fast = ExecuteCompiledMapping(*compiled, deep, db);
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto slow = chase::RunChase(deep, db);
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_TRUE(fast->Equals(slow->target))
      << "fast:\n" << fast->ToString() << "slow:\n" << slow->target.ToString();
  EXPECT_EQ(fast->Find("Path")->size(), 3u);

  // The loader's plan evaluates to the same rows through the algebra's
  // join loop, one level per atom.
  auto catalog = algebra::Catalog::FromSchema(deep.source());
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  auto table = algebra::Evaluate(*compiled->loaders.at("Path"), *catalog, db);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(std::set<instance::Tuple>(table->rows.begin(), table->rows.end()),
            fast->Find("Path")->tuples());
  EXPECT_EQ(table->rows.size(), 3u);
}

}  // namespace
}  // namespace mm2::transgen
