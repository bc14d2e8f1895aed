#include <gtest/gtest.h>

#include "text/query.h"

namespace mm2::text {
namespace {

using instance::Value;
using logic::Term;

TEST(QueryParserTest, ParsesJoinQuery) {
  auto q = ParseQuery("Q(x, y) :- Listing(s, x, \"CS\"), Person(s, y)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->head.relation, "Q");
  ASSERT_EQ(q->head.terms.size(), 2u);
  EXPECT_EQ(q->head.terms[0], Term::Var("x"));
  ASSERT_EQ(q->body.size(), 2u);
  EXPECT_EQ(q->body[0].relation, "Listing");
  EXPECT_EQ(q->body[0].terms[2], Term::Const(Value::String("CS")));
  EXPECT_EQ(q->body[1].terms[0], Term::Var("s"));
}

TEST(QueryParserTest, LiteralForms) {
  auto q = ParseQuery(
      "Q(x) :- R(x, 42, -7, 2.5, #t, #f, null, \"with \\\" quote\")");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& terms = q->body[0].terms;
  EXPECT_EQ(terms[1], Term::Const(Value::Int64(42)));
  EXPECT_EQ(terms[2], Term::Const(Value::Int64(-7)));
  EXPECT_EQ(terms[3], Term::Const(Value::Double(2.5)));
  EXPECT_EQ(terms[4], Term::Const(Value::Bool(true)));
  EXPECT_EQ(terms[5], Term::Const(Value::Bool(false)));
  EXPECT_EQ(terms[6], Term::Const(Value::Null()));
  EXPECT_EQ(terms[7], Term::Const(Value::String("with \" quote")));
}

TEST(QueryParserTest, WhitespaceInsensitive) {
  auto compact = ParseQuery("Q(x):-R(x,y),S(y)");
  auto spaced = ParseQuery("  Q( x )  :-  R( x , y ) ,  S( y )  ");
  ASSERT_TRUE(compact.ok() && spaced.ok());
  EXPECT_EQ(compact->ToString(), spaced->ToString());
}

TEST(QueryParserTest, DollarColumnsParse) {
  // $type appears in entity-set queries.
  auto q = ParseQuery("Q(t) :- Persons($type, i, n), T(t)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body[0].terms[0], Term::Var("$type"));
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("Q(x)").ok());                  // no body
  EXPECT_FALSE(ParseQuery("Q(x) :- ").ok());              // empty body
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x").ok());           // unclosed
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x) extra").ok());    // trailing junk
  EXPECT_FALSE(ParseQuery("Q(z) :- R(x)").ok());          // unsafe head
  EXPECT_FALSE(ParseQuery("Q(x) :- R(\"open").ok());      // bad string
  EXPECT_FALSE(ParseQuery("Q(x) :- R(#x)").ok());         // bad bool
}

TEST(QueryParserTest, RoundTripThroughToString) {
  for (const char* text :
       {"Q(x) :- R(x, \"a\"), S(x, 3)", "Q(x) :- R(x, #t, null, 2.5, d:3)",
        "Q(x) :- R(x, \"a \\\"b\\\"\", 1e-05, 1e-07, -2.0)"}) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status() << " from " << text;
    auto again = ParseQuery(QueryToText(*q));
    ASSERT_TRUE(again.ok()) << again.status() << " from " << QueryToText(*q);
    EXPECT_EQ(again->ToString(), q->ToString());
    EXPECT_EQ(again->head, q->head) << QueryToText(*q);
    EXPECT_EQ(again->body, q->body) << QueryToText(*q);
  }
  auto q = ParseQuery("Q(x) :- R(x, #t, null, 2.5, d:3)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(QueryToText(*q), "Q(x) :- R(x, #t, null, 2.5, d:3)");
}

TEST(QueryParserTest, ConstantsUseTheInstanceValueGrammar) {
  auto q = ParseQuery("Q(x) :- R(x, 1e-05)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body[0].terms[1], Term::Const(Value::Double(1e-05)));
  // Dates read as constants; N7 is a bare identifier, so a variable.
  q = ParseQuery("Q(x) :- R(x, d:-3, -2E+3, N7, \"a, (b)\")");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& terms = q->body[0].terms;
  EXPECT_EQ(terms[1], Term::Const(Value::Date(-3)));
  EXPECT_EQ(terms[2], Term::Const(Value::Double(-2000.0)));
  EXPECT_EQ(terms[3], Term::Var("N7"));
  EXPECT_EQ(terms[4], Term::Const(Value::String("a, (b)")));
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x, 0x10)").ok());
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x, 1e999)").ok());
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x, 1abc)").ok());
}

TEST(FactLiteralTest, ReadsAGroundAtom) {
  auto fact = ParseFact(
      "  Flat(1, \"a, (b) \\\"c\\\"  d\", -2.5e-3, N7, null, #f, d:3)  ");
  ASSERT_TRUE(fact.ok()) << fact.status();
  EXPECT_EQ(fact->relation, "Flat");
  const instance::Tuple want = {
      Value::Int64(1),       Value::String("a, (b) \"c\"  d"),
      Value::Double(-2.5e-3), Value::LabeledNull(7),
      Value::Null(),          Value::Bool(false),
      Value::Date(3)};
  EXPECT_EQ(fact->tuple, want);
}

TEST(FactLiteralTest, NullaryFactsHaveAnEmptyTuple) {
  for (const char* text : {"Empty()", "Empty( )", " Empty ( ) "}) {
    auto fact = ParseFact(text);
    ASSERT_TRUE(fact.ok()) << text << ": " << fact.status();
    EXPECT_EQ(fact->relation, "Empty");
    EXPECT_TRUE(fact->tuple.empty()) << text;
  }
}

TEST(FactLiteralTest, RejectsMalformedFacts) {
  for (const char* text :
       {"", "R", "R(", "R(1", "(1)", "R(1) x", "R(1)(2)", "R(1,,2)", "R(,)",
        "R(1,)", "R(,1)", "R(x)", "R(1 2)", "R(\"open)", "R(nan)", "R(inf)",
        "R(0x10)", "R(1e999)", "R(N-3)", "R(\"a\"b)"}) {
    auto fact = ParseFact(text);
    ASSERT_FALSE(fact.ok()) << "'" << text << "' read as " << fact->relation;
    EXPECT_EQ(fact.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

}  // namespace
}  // namespace mm2::text
