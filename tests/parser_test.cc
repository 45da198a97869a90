#include "qmap/expr/parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace qmap {
namespace {

TEST(Parser, SingleConstraint) {
  Result<Query> q = ParseQuery("[ln = \"Clancy\"]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ToString(), "[ln = \"Clancy\"]");
}

TEST(Parser, PrecedenceAndBindsTighter) {
  Result<Query> q = ParseQuery("[a = 1] or [b = 2] and [c = 3]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ToString(), "[a = 1] ∨ ([b = 2] ∧ [c = 3])");
}

TEST(Parser, ParensOverridePrecedence) {
  Result<Query> q = ParseQuery("([a = 1] or [b = 2]) and [c = 3]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ToString(), "([a = 1] ∨ [b = 2]) ∧ [c = 3]");
}

TEST(Parser, PunctConnectives) {
  Result<Query> q = ParseQuery("[a = 1] & [b = 2] | [c = 3]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind(), NodeKind::kOr);
}

TEST(Parser, TrueLiteral) {
  Result<Query> q = ParseQuery("true");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->is_true());
}

TEST(Parser, AllOperators) {
  for (const char* text :
       {"[a = 1]", "[a < 1]", "[a <= 1]", "[a > 1]", "[a >= 1]",
        "[a contains \"x\"]", "[a starts \"x\"]", "[a during date(1997, 5)]"}) {
    EXPECT_TRUE(ParseQuery(text).ok()) << text;
  }
}

TEST(Parser, ValueLiterals) {
  Result<Constraint> date = ParseConstraint("[pdate during date(1997, 5, 12)]");
  ASSERT_TRUE(date.ok());
  EXPECT_EQ(date->rhs_value().AsDate(), (Date{1997, 5, 12}));

  Result<Constraint> range = ParseConstraint("[xrange = range(10, 30)]");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->rhs_value().AsRange(), (Range{10, 30}));

  Result<Constraint> point = ParseConstraint("[cll = point(10, 20)]");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->rhs_value().AsPoint(), (Point{10, 20}));

  Result<Constraint> real = ParseConstraint("[w = 2.5]");
  ASSERT_TRUE(real.ok());
  EXPECT_EQ(real->rhs_value().kind(), ValueKind::kDouble);
}

TEST(Parser, JoinConstraint) {
  Result<Constraint> c = ParseConstraint("[fac[1].ln = fac[2].ln]");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->is_join());
  EXPECT_EQ(c->lhs.instance, 1);
  EXPECT_EQ(c->rhs_attr().instance, 2);
}

TEST(Parser, QualifiedAttributePath) {
  Result<Constraint> c =
      ParseConstraint("[fac.aubib.bib contains \"data(near)mining\"]");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->lhs.view, "fac");
  EXPECT_EQ(c->lhs.name, "aubib.bib");
}

TEST(Parser, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("[a = ]").ok());
  EXPECT_FALSE(ParseQuery("[a 1]").ok());
  EXPECT_FALSE(ParseQuery("([a = 1]").ok());
  EXPECT_FALSE(ParseQuery("[a = 1] [b = 2]").ok());  // trailing input
  EXPECT_FALSE(ParseQuery("[a = 1] and").ok());
  EXPECT_FALSE(ParseQuery("[date(1997) = 1]").ok());  // literal on LHS
}

TEST(Parser, NumberLiteralsThatDoNotFitFailToParse) {
  // Each literal names a value outside the field it fills: an int64 value,
  // an int view index, an int date() argument.
  const struct {
    const char* text;
    const char* message;
  } kCases[] = {
      {"[a = 99999999999999999999]",
       "number 99999999999999999999 out of range at offset 5"},
      {"[a = 9223372036854775808]",
       "number 9223372036854775808 out of range at offset 5"},
      {"[fac[4294967297].ln = 1]",
       "number 4294967297 out of range at offset 5"},
      {"[d = date(99999999999)]", "number 99999999999 out of range at offset 10"},
      {"[d = date(1997, 1, -2147483649)]",
       "number -2147483649 out of range at offset 19"},
  };
  for (const auto& c : kCases) {
    Result<Query> q = ParseQuery(c.text);
    ASSERT_FALSE(q.ok()) << c.text << " parsed as " << q->ToString();
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << c.text;
    EXPECT_EQ(q.status().message(), c.message) << c.text;
  }
}

TEST(Parser, LargestInRangeNumberLiteralsParseAsBefore) {
  // 9223372036854774784 is the largest double below 2^63.
  Result<Constraint> high = ParseConstraint("[a = 9223372036854774784]");
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high->rhs_value().AsInt(), int64_t{9223372036854774784});
  EXPECT_EQ(high->ToString(), "[a = 9223372036854774784]");
  Result<Constraint> low = ParseConstraint("[a = -9223372036854775808]");
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->rhs_value().AsInt(), std::numeric_limits<int64_t>::min());

  Result<Constraint> index = ParseConstraint("[fac[2147483647].ln = 1]");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->lhs.instance, std::numeric_limits<int>::max());

  Result<Constraint> date =
      ParseConstraint("[d during date(2147483647, -2147483648, 1)]");
  ASSERT_TRUE(date.ok());
  EXPECT_EQ(date->rhs_value().AsDate(),
            (Date{std::numeric_limits<int>::max(),
                  std::numeric_limits<int>::min(), 1}));
}

TEST(Parser, RoundTripThroughToString) {
  // ToString output of a parsed tree re-parses to an equal tree (with
  // and/or spelled out).
  Result<Query> q =
      ParseQuery("([a = 1] or ([b = 2] and [c = 3])) and [d contains \"x\"]");
  ASSERT_TRUE(q.ok());
  std::string text = q->ToString();
  // Replace the pretty connectives with parseable ones.
  size_t pos;
  while ((pos = text.find("∧")) != std::string::npos) text.replace(pos, 3, "&");
  while ((pos = text.find("∨")) != std::string::npos) text.replace(pos, 3, "|");
  Result<Query> reparsed = ParseQuery(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ(*reparsed, *q);
}

}  // namespace
}  // namespace qmap
