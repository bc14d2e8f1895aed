#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
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

// -- the value grammar -------------------------------------------------------

std::uint64_t Bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double FromBits(std::uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(ValueGrammarTest, EveryValueKindRoundTripsThroughInstanceText) {
  std::vector<double> doubles = {0.0,     -0.0,     1e-05,    1e+23,
                                 DBL_MAX, -DBL_MAX, DBL_MIN,  DBL_TRUE_MIN,
                                 0.1,     1.0 / 3,  -2.5,     123456789.0};
  std::mt19937_64 rng(2007);
  while (doubles.size() < 2000) {
    // Random bit patterns (finite ones only), and every tenth a subnormal.
    std::uint64_t bits = rng();
    if (doubles.size() % 10 == 0) bits &= 0x800fffffffffffffULL;
    if (std::isfinite(FromBits(bits))) doubles.push_back(FromBits(bits));
  }
  Instance db;
  db.DeclareRelation("D", 2);
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    db.InsertUnchecked("D", {Value::Int64(static_cast<std::int64_t>(i)),
                             Value::Double(doubles[i])});
  }
  db.DeclareRelation("V", 1);
  for (const Value& v :
       {Value::Int64(INT64_MIN), Value::Int64(INT64_MAX), Value::Int64(0),
        Value::String("two  spaces, (parens), \"quotes\" and \\"),
        Value::String(""), Value::String("; not a comment"),
        Value::Bool(true), Value::Bool(false), Value::Null(),
        Value::Date(-719162), Value::Date(19000), Value::LabeledNull(0),
        Value::LabeledNull(INT64_MAX)}) {
    db.InsertUnchecked("V", {v});
  }
  const std::string rendered = InstanceToText(db);
  auto parsed = ParseInstance(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->Equals(db));
  // Equality treats -0.0 as 0.0; the grammar keeps every bit.
  for (const instance::Tuple& row : parsed->Find("D")->tuples()) {
    const double want = doubles[static_cast<std::size_t>(row[0].int64())];
    EXPECT_EQ(Bits(row[1].dbl()), Bits(want)) << row[1].dbl();
  }
}

TEST(ValueGrammarTest, SavedDoublesLoadBack) {
  auto parsed = ParseInstance(
      "(instance (R (1.0000000000000001e-05 1.2345678901234569e+23 -2E-3)))");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const instance::Tuple& t = *parsed->Find("R")->tuples().begin();
  EXPECT_EQ(t[0], Value::Double(1e-05));
  EXPECT_EQ(t[1], Value::Double(1.2345678901234569e+23));
  EXPECT_EQ(t[2], Value::Double(-0.002));
}

TEST(ValueGrammarTest, ReadsEveryForm) {
  struct Case {
    const char* token;
    Value want;
  };
  for (const Case& c : std::vector<Case>{
           {"42", Value::Int64(42)},
           {"-7", Value::Int64(-7)},
           {"+3", Value::Int64(3)},
           {"-9223372036854775808", Value::Int64(INT64_MIN)},
           {"1.5", Value::Double(1.5)},
           {".5", Value::Double(0.5)},
           {"5.", Value::Double(5.0)},
           {"2e3", Value::Double(2000.0)},
           {"-1E-05", Value::Double(-1e-05)},
           {"\"a \\\"b\\\" \\\\ c\"", Value::String("a \"b\" \\ c")},
           {"\"\"", Value::String("")},
           {"#t", Value::Bool(true)},
           {"#f", Value::Bool(false)},
           {"null", Value::Null()},
           {"N7", Value::LabeledNull(7)},
           {"d:123", Value::Date(123)},
           {"d:-3", Value::Date(-3)},
       }) {
    Result<Value> v = ParseValue(c.token);
    ASSERT_TRUE(v.ok()) << c.token << ": " << v.status();
    EXPECT_EQ(*v, c.want) << c.token;
  }
}

TEST(ValueGrammarTest, RejectsEverythingElse) {
  for (const char* token :
       {"", "nan", "-nan", "NaN", "inf", "-inf", "+inf", "infinity", "0x10",
        "1e999", "-1e999", "1e-999", "N-3", "N+3", "N", "N7x", "N1.5", "d:",
        "d:1.5", "d:x", "1e", "1e+", ".", "-", "+-5", "--5", "1.2.3", "1,5",
        "99999999999999999999", "\"open", "\"a\"b", "\"a\\\"", "#x", "#true",
        "NULL", "true", "x", "5 ", " 5"}) {
    Result<Value> v = ParseValue(token);
    ASSERT_FALSE(v.ok()) << "'" << token << "' read as " << v->ToString();
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << token;
  }
}

TEST(ValueGrammarTest, MappingConstantsUseTheGrammar) {
  // String atoms keep their escapes until the value grammar reads them;
  // an exponent constant reads as a double.
  auto parsed = ParseMapping(R"((mapping m
  (source (schema S relational (relation R (attr a string) (attr b double))))
  (target (schema T relational (relation U (attr a string))))
  (tgd (body (R a 1e-05)) (head (U "x \"y\" z")))))");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const logic::Tgd& tgd = parsed->tgds().front();
  EXPECT_EQ(tgd.body[0].terms[1],
            logic::Term::Const(Value::Double(1e-05)));
  EXPECT_EQ(tgd.head[0].terms[0],
            logic::Term::Const(Value::String("x \"y\" z")));
}

}  // namespace
}  // namespace mm2::text
