#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "text/sexpr.h"

namespace mm2::text {
namespace {

using instance::Instance;
using instance::Value;
using model::DataType;
using model::Metamodel;
using model::SchemaBuilder;

model::Schema SampleSchema() {
  return SchemaBuilder("S", Metamodel::kRelational)
      .Relation("Names", {{"SID", DataType::Int64()},
                          {"Name", DataType::String()},
                          {"Score", DataType::Double(), true}},
                {"SID"})
      .Relation("Addresses", {{"SID", DataType::Int64()},
                              {"City", DataType::String()}},
                {"SID"})
      .ForeignKey("Addresses", {"SID"}, "Names", {"SID"})
      .Build();
}

TEST(SexprSchemaTest, RoundTripsRelational) {
  model::Schema original = SampleSchema();
  std::string rendered = SchemaToText(original);
  auto parsed = ParseSchema(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << rendered;
  EXPECT_EQ(parsed->name(), "S");
  EXPECT_EQ(parsed->metamodel(), Metamodel::kRelational);
  ASSERT_EQ(parsed->relations().size(), 2u);
  const model::Relation* names = parsed->FindRelation("Names");
  ASSERT_NE(names, nullptr);
  EXPECT_EQ(names->AttributeNames(),
            (std::vector<std::string>{"SID", "Name", "Score"}));
  EXPECT_TRUE(names->IsKeyAttribute(0));
  EXPECT_TRUE(names->attribute(2).nullable);
  EXPECT_TRUE(names->attribute(2).type->Equals(*DataType::Double()));
  ASSERT_EQ(parsed->foreign_keys().size(), 1u);
  EXPECT_EQ(parsed->foreign_keys()[0].to_relation, "Names");
  // Idempotence: rendering the parse matches the original rendering.
  EXPECT_EQ(SchemaToText(*parsed), rendered);
}

TEST(SexprSchemaTest, RoundTripsEr) {
  model::Schema er =
      SchemaBuilder("ER", Metamodel::kEntityRelationship)
          .EntityType("Person", "", {{"Id", DataType::Int64()}}, false)
          .EntityType("Employee", "Person", {{"Dept", DataType::String()}})
          .EntityType("Ghost", "Person", {}, true)
          .EntitySet("Persons", "Person")
          .Build();
  std::string rendered = SchemaToText(er);
  auto parsed = ParseSchema(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << rendered;
  EXPECT_EQ(parsed->entity_types().size(), 3u);
  EXPECT_EQ(parsed->FindEntityType("Employee")->parent, "Person");
  EXPECT_TRUE(parsed->FindEntityType("Ghost")->abstract);
  ASSERT_EQ(parsed->entity_sets().size(), 1u);
  EXPECT_EQ(parsed->entity_sets()[0].root_type, "Person");
  EXPECT_EQ(SchemaToText(*parsed), rendered);
}

TEST(SexprInstanceTest, RoundTripsAllValueKinds) {
  Instance db;
  db.DeclareRelation("R", 6);
  ASSERT_TRUE(db.Insert("R", {Value::Int64(-42), Value::Double(2.5),
                              Value::String("a \"quoted\" \\ string"),
                              Value::Bool(true), Value::Date(100),
                              Value::LabeledNull(7)})
                  .ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int64(1), Value::Double(0.0),
                              Value::String(""), Value::Bool(false),
                              Value::Null(), Value::Null()})
                  .ok());
  std::string rendered = InstanceToText(db);
  auto parsed = ParseInstance(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << rendered;
  EXPECT_TRUE(parsed->Equals(db))
      << rendered << "\nparsed:\n" << parsed->ToString();
}

TEST(SexprInstanceTest, CommentsAndWhitespaceIgnored) {
  auto parsed = ParseInstance(R"(
; a comment
(instance
  (Names (1 "Ada") ; inline comment
         (2 "Bob"))
)
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("Names")->size(), 2u);
}

TEST(SexprParseErrorTest, ReportsOffset) {
  EXPECT_FALSE(ParseSchema("(schema X unknownmeta)").ok());
  EXPECT_FALSE(ParseSchema("(notaschema X relational)").ok());
  EXPECT_FALSE(ParseSchema("(schema X relational").ok());  // missing ')'
  EXPECT_FALSE(ParseSchema("").ok());
  EXPECT_FALSE(ParseInstance("(instance (R (unparsable!)))").ok());
  EXPECT_FALSE(ParseInstance("(instance (R (1) (1 2)))").ok());  // arity
  auto err = ParseSchema("(schema X relational (relation))");
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("offset"), std::string::npos);
}

std::string Nested(std::size_t depth) {
  return std::string(depth, '(') + std::string(depth, ')');
}

// Every parser entry point shares one S-expression reader; hostile nesting
// must come back as InvalidArgument instead of recursing until the stack
// runs out.
std::vector<Status> ParseAllForms(const std::string& text) {
  return {ParseSchema(text).status(), ParseInstance(text).status(),
          ParseMapping(text).status()};
}

TEST(SexprParseErrorTest, DeepNestingIsRefused) {
  for (const Status& status : ParseAllForms(Nested(50000))) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find(
                  "nesting deeper than " + std::to_string(kMaxNestingDepth) +
                  " at offset " + std::to_string(kMaxNestingDepth)),
              std::string::npos)
        << status;
  }
}

TEST(SexprParseErrorTest, NestingAtTheLimitReachesTheShapeCheck) {
  for (const Status& status : ParseAllForms(Nested(kMaxNestingDepth))) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_EQ(status.message().find("nesting deeper"), std::string::npos)
        << status;
  }
  for (const Status& status : ParseAllForms(Nested(kMaxNestingDepth + 1))) {
    EXPECT_NE(status.message().find("nesting deeper"), std::string::npos)
        << status;
  }
}

TEST(SexprParseErrorTest, SchemaValidationStillApplies) {
  // Structurally fine, semantically broken (dangling fk).
  auto parsed = ParseSchema(
      "(schema X relational (relation R (attr a int64)) "
      "(fk R (a) Missing (b)))");
  EXPECT_FALSE(parsed.ok());
}

TEST(SexprInstanceTest, NumericEdgeCases) {
  auto parsed = ParseInstance("(instance (R (-5 +3 1.5e2)))");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const instance::Tuple& t = *parsed->Find("R")->tuples().begin();
  EXPECT_EQ(t[0], Value::Int64(-5));
  EXPECT_EQ(t[1], Value::Int64(3));
  EXPECT_EQ(t[2], Value::Double(150.0));
}

}  // namespace
}  // namespace mm2::text
