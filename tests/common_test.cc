#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace mm2 {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("relation 'R'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "relation 'R'");
  EXPECT_EQ(s.ToString(), "NotFound: relation 'R'");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unsupported("").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::Inconsistent("").code(), StatusCode::kInconsistent);
  EXPECT_EQ(Status::NotExpressible("").code(), StatusCode::kNotExpressible);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  MM2_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  MM2_ASSIGN_OR_RETURN(int half, HalfOf(x));
  return HalfOf(half);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = HalfOf(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> err = HalfOf(3);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.value_or(-7), -7);
}

TEST(ResultTest, AssignOrReturnChains) {
  EXPECT_EQ(*QuarterOf(8), 2);
  EXPECT_FALSE(QuarterOf(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(QuarterOf(5).ok());
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, CaseAndAffixes) {
  EXPECT_EQ(ToLower("CamelCase_9"), "camelcase_9");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

// The rest starts after the n-th word even when that word occurs again
// later in the line, and keeps the spacing inside it.
TEST(StringsTest, RestAfterWords) {
  const std::string line =
      "  answer mapSSp S\tQ(n, a) :- NamesP(s, n),  S(s, \"a  b\")  ";
  EXPECT_EQ(RestAfterWords(line, 3),
            "Q(n, a) :- NamesP(s, n),  S(s, \"a  b\")");
  EXPECT_EQ(RestAfterWords(line, 1),
            "mapSSp S\tQ(n, a) :- NamesP(s, n),  S(s, \"a  b\")");
  EXPECT_EQ(RestAfterWords("why", 1), "");
  EXPECT_EQ(RestAfterWords("why   ", 1), "");
  EXPECT_EQ(RestAfterWords("a b", 5), "");
  EXPECT_EQ(RestAfterWords(" a  b ", 0), "a  b");
  EXPECT_EQ(RestAfterWords("", 0), "");
}

TEST(StringsTest, TokenizeSnakeAndCamel) {
  EXPECT_EQ(TokenizeIdentifier("billing_addr"),
            (std::vector<std::string>{"billing", "addr"}));
  EXPECT_EQ(TokenizeIdentifier("BillingAddr"),
            (std::vector<std::string>{"billing", "addr"}));
  EXPECT_EQ(TokenizeIdentifier("custBillingAddr2"),
            (std::vector<std::string>{"cust", "billing", "addr", "2"}));
  EXPECT_EQ(TokenizeIdentifier("HTTPServer"),
            (std::vector<std::string>{"http", "server"}));
  EXPECT_EQ(TokenizeIdentifier(""), (std::vector<std::string>{}));
  EXPECT_EQ(TokenizeIdentifier("___"), (std::vector<std::string>{}));
}

TEST(StringsTest, EditDistance) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(StringsTest, EditSimilarityBounds) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  double sim = EditSimilarity("CustName", "CustomerName");
  EXPECT_GT(sim, 0.5);
  EXPECT_LT(sim, 1.0);
}

TEST(StringsTest, TrigramSimilarity) {
  EXPECT_DOUBLE_EQ(TrigramSimilarity("abcdef", "abcdef"), 1.0);
  EXPECT_EQ(TrigramSimilarity("abcdef", "uvwxyz"), 0.0);
  // Short strings fall back to edit similarity.
  EXPECT_DOUBLE_EQ(TrigramSimilarity("ab", "ab"), 1.0);
  EXPECT_GT(TrigramSimilarity("EmployeeName", "EmplName"), 0.2);
}

}  // namespace
}  // namespace mm2
