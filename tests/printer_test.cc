#include "qmap/expr/printer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/expr/parser.h"
#include "query_twins.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

// The renderer as it was before it appended in place, kept as a test-only
// oracle: string concatenation, with numbers formatted by snprintf. The
// printer must produce its bytes exactly.
std::string OracleNumber(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string OracleInt(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

std::string OracleValue(const Value& value) {
  switch (value.kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInt:
      return OracleInt(value.AsInt());
    case ValueKind::kDouble:
      return OracleNumber(value.AsDouble());
    case ValueKind::kString: {
      std::string out = "\"";
      for (char c : value.AsString()) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      return out + "\"";
    }
    case ValueKind::kDate: {
      const Date& d = value.AsDate();
      std::string out = "date(" + std::to_string(d.year);
      if (d.month.has_value()) out += ", " + std::to_string(*d.month);
      if (d.day.has_value()) out += ", " + std::to_string(*d.day);
      return out + ")";
    }
    case ValueKind::kRange: {
      const Range& r = value.AsRange();
      return "range(" + OracleNumber(r.lo) + ", " + OracleNumber(r.hi) + ")";
    }
    case ValueKind::kPoint: {
      const Point& p = value.AsPoint();
      return "point(" + OracleNumber(p.x) + ", " + OracleNumber(p.y) + ")";
    }
  }
  return "null";
}

std::string OracleText(const Query& query) {
  switch (query.kind()) {
    case NodeKind::kTrue:
      return "true";
    case NodeKind::kLeaf: {
      const Constraint& c = query.constraint();
      const std::string rhs = c.is_join() ? c.rhs_attr().ToString()
                                          : OracleValue(c.rhs_value());
      return "[" + c.lhs.ToString() + " " + std::string(OpName(c.op)) + " " +
             rhs + "]";
    }
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      const char* sep = query.kind() == NodeKind::kAnd ? " and " : " or ";
      std::string out;
      for (size_t i = 0; i < query.children().size(); ++i) {
        if (i > 0) out += sep;
        const Query& child = query.children()[i];
        const bool parens =
            child.kind() == NodeKind::kAnd || child.kind() == NodeKind::kOr;
        out += parens ? "(" + OracleText(child) + ")" : OracleText(child);
      }
      return out;
    }
  }
  return "true";
}

TEST(Printer, Values) {
  EXPECT_EQ(ToParseableText(Value::Int(3)), "3");
  EXPECT_EQ(ToParseableText(Value::Real(2.5)), "2.5");
  EXPECT_EQ(ToParseableText(Value::Str("a \"b\"")), "\"a \\\"b\\\"\"");
  EXPECT_EQ(ToParseableText(Value::OfDate(Date{1997, 5, {}})), "date(1997, 5)");
  EXPECT_EQ(ToParseableText(Value::OfDate(Date{1997, 5, 12})), "date(1997, 5, 12)");
  EXPECT_EQ(ToParseableText(Value::OfRange(Range{10, 30})), "range(10, 30)");
  EXPECT_EQ(ToParseableText(Value::OfPoint(Point{1.5, 2})), "point(1.5, 2)");
}

TEST(Printer, QueriesUseKeywordConnectives) {
  Query q = Q("([a = 1] or [b = 2]) and [c = 3]");
  EXPECT_EQ(ToParseableText(q), "([a = 1] or [b = 2]) and [c = 3]");
}

TEST(Printer, RoundTripFixedQueries) {
  for (const char* text : {
           "true",
           "[ln = \"Clancy\"]",
           "[pdate during date(1997, 5)]",
           "[xrange = range(10, 30)] and [cll = point(10, 20)]",
           "([a = 1] or ([b = 2] and ([c = 3] or [d = 4]))) and [e <= 2.5]",
           "[fac[1].ln = fac[2].ln]",
           "[fac.aubib.bib contains \"data(near)mining\"]",
       }) {
    Query q = Q(text);
    Result<Query> reparsed = ParseQuery(ToParseableText(q));
    ASSERT_TRUE(reparsed.ok()) << text << " -> " << ToParseableText(q);
    EXPECT_EQ(*reparsed, q) << text;
  }
}

TEST(Printer, RoundTripRandomQueries) {
  RandomQueryOptions options;
  options.num_attrs = 8;
  options.max_depth = 4;
  std::mt19937 rng(123);
  for (int i = 0; i < 200; ++i) {
    Query q = RandomQuery(rng, options);
    Result<Query> reparsed = ParseQuery(ToParseableText(q));
    ASSERT_TRUE(reparsed.ok()) << ToParseableText(q);
    EXPECT_EQ(*reparsed, q) << ToParseableText(q);
  }
}

TEST(Printer, NumbersMatchTheSnprintfOracleByteForByte) {
  std::vector<double> doubles = {
      0.0, -0.0, 0.1, -0.1, 0.5, 1.0 / 3, 2.5, 1e15 - 1, 1e15, 1e15 + 1,
      -1e15 + 1, -1e15, -1e15 - 1, 1e16, 9007199254740993.0, 1e22, 1e300,
      1e-300, -1e-300, 1e-5, 123456.789, 5e-324,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::min() / 3,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      static_cast<double>(std::numeric_limits<int64_t>::max()),
      static_cast<double>(std::numeric_limits<int64_t>::min())};
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns reach every exponent, subnormals included; NaNs
    // are left out, since their sign and payload are not a number's text.
    const uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isnan(v)) doubles.push_back(v);
    // Short decimals and integral values near the integer cut-off.
    doubles.push_back(static_cast<double>(static_cast<int64_t>(rng() % 2000001) -
                                          1000000) /
                      1000.0);
    doubles.push_back(std::ldexp(static_cast<double>(rng() % (1u << 20)),
                                 static_cast<int>(rng() % 60)));
  }
  for (double v : doubles) {
    ASSERT_EQ(ToParseableText(Value::Real(v)), OracleNumber(v)) << v;
    ASSERT_EQ(ToParseableText(Value::OfRange(Range{v, -v})),
              "range(" + OracleNumber(v) + ", " + OracleNumber(-v) + ")");
  }

  std::vector<int64_t> ints = {0,
                               1,
                               -1,
                               999999999999999,
                               1000000000000000,
                               std::numeric_limits<int64_t>::max(),
                               std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::min() + 1};
  for (int i = 0; i < 20000; ++i) ints.push_back(static_cast<int64_t>(rng()));
  for (int64_t v : ints) {
    ASSERT_EQ(ToParseableText(Value::Int(v)), OracleInt(v)) << v;
  }
}

TEST(Printer, RendersTheParserOracleCorpusAsTheOracleDoes) {
  // Every query of the parser-oracle corpus renders to the oracle's bytes,
  // appends after existing text, and parses back to the same node.
  for (uint32_t seed : {101u, 202u, 303u}) {
    testing::TwinGenerator generator(seed);
    for (int i = 0; i < 400; ++i) {
      const Query query = generator.Next().query;
      const std::string text = ToParseableText(query);
      ASSERT_EQ(text, OracleText(query)) << "seed " << seed << " #" << i;
      std::string appended = "prefix:";
      AppendParseableText(query, &appended);
      EXPECT_EQ(appended, "prefix:" + text);
      Result<Query> reparsed = ParseQuery(text);
      ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n  "
                                 << text;
      EXPECT_EQ(reparsed->identity(), query.identity()) << text;
    }
  }
}

}  // namespace
}  // namespace qmap
