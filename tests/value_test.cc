#include "qmap/value/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "qmap/common/fnv.h"

namespace qmap {
namespace {

TEST(Value, Kinds) {
  EXPECT_EQ(Value::Null().kind(), ValueKind::kNull);
  EXPECT_EQ(Value::Int(3).kind(), ValueKind::kInt);
  EXPECT_EQ(Value::Real(3.5).kind(), ValueKind::kDouble);
  EXPECT_EQ(Value::Str("x").kind(), ValueKind::kString);
  EXPECT_EQ(Value::OfDate(Date{1997, 5, {}}).kind(), ValueKind::kDate);
  EXPECT_EQ(Value::OfRange(Range{1, 2}).kind(), ValueKind::kRange);
  EXPECT_EQ(Value::OfPoint(Point{1, 2}).kind(), ValueKind::kPoint);
}

TEST(Value, NumericEqualityAcrossKinds) {
  EXPECT_TRUE(Value::Int(3).Equals(Value::Real(3.0)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::Real(3.5)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::Str("3")));
}

TEST(Value, Compare) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(5)), -1);
  EXPECT_EQ(Value::Real(5.5).Compare(Value::Int(5)), 1);
  EXPECT_EQ(Value::Str("abc").Compare(Value::Str("abd")), -1);
  EXPECT_EQ(Value::Str("x").Compare(Value::Int(3)), std::nullopt);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), std::nullopt);
}

TEST(Value, CompareDates) {
  Value a = Value::OfDate(Date{1997, 5, {}});
  Value b = Value::OfDate(Date{1997, 6, {}});
  Value year_only = Value::OfDate(Date{1997, {}, {}});
  EXPECT_EQ(a.Compare(b), -1);
  EXPECT_EQ(b.Compare(a), 1);
  EXPECT_EQ(a.Compare(a), 0);
  // Different granularities are unordered.
  EXPECT_EQ(a.Compare(year_only), std::nullopt);
}

TEST(Value, ToStringFormats) {
  EXPECT_EQ(Value::Int(1997).ToString(), "1997");
  EXPECT_EQ(Value::Real(10.0).ToString(), "10");
  EXPECT_EQ(Value::Real(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Str("Clancy").ToString(), "\"Clancy\"");
  EXPECT_EQ(Value::OfRange(Range{10, 30}).ToString(), "(10:30)");
  EXPECT_EQ(Value::OfPoint(Point{10, 20}).ToString(), "(10,20)");
  EXPECT_EQ(Value::Null().ToString(), "null");
}

TEST(Value, DateToStringMatchesPaperStyle) {
  EXPECT_EQ(DateToString(Date{1997, {}, {}}), "97");
  EXPECT_EQ(DateToString(Date{1997, 5, {}}), "May/97");
  EXPECT_EQ(DateToString(Date{1997, 5, 12}), "12/May/97");
  EXPECT_EQ(DateToString(Date{2003, 1, {}}), "Jan/2003");
}

TEST(Value, RangePointEquality) {
  EXPECT_TRUE(Value::OfRange(Range{1, 2}).Equals(Value::OfRange(Range{1, 2})));
  EXPECT_FALSE(Value::OfRange(Range{1, 2}).Equals(Value::OfRange(Range{1, 3})));
  EXPECT_TRUE(Value::OfPoint(Point{1, 2}).Equals(Value::OfPoint(Point{1, 2})));
  EXPECT_FALSE(Value::OfPoint(Point{1, 2}).Equals(Value::OfRange(Range{1, 2})));
}

TEST(Value, DateEqualityRespectsGranularity) {
  Value may97 = Value::OfDate(Date{1997, 5, {}});
  Value y97 = Value::OfDate(Date{1997, {}, {}});
  EXPECT_FALSE(may97.Equals(y97));
  EXPECT_TRUE(may97.Equals(Value::OfDate(Date{1997, 5, {}})));
}

// Fingerprints are persisted in store keys, so CanonicalHash must hash
// exactly the bytes ToString prints, at every digit-count boundary.
TEST(Value, CanonicalHashIsFnvOfThePrintedForm) {
  const int64_t ints[] = {0,
                          1,
                          -1,
                          9,
                          -9,
                          10,
                          -10,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  for (int64_t v : ints) {
    const Value value = Value::Int(v);
    EXPECT_EQ(value.CanonicalHash(), Fnv64Hash(value.ToString())) << v;
  }
  const double doubles[] = {0.0,    1.0,   -1.0,    9.0,     -9.0,
                            10.0,   -10.0, 1e15 - 1, -(1e15 - 1),
                            1e15,   9007199254740992.0 /* 2^53 */,
                            -0.0,   2.5,   -0.125};
  for (double v : doubles) {
    const Value value = Value::Real(v);
    EXPECT_EQ(value.CanonicalHash(), Fnv64Hash(value.ToString())) << v;
  }
  // Int(3) and Real(3.0) print alike, so they hash alike.
  EXPECT_EQ(Value::Int(-10).CanonicalHash(), Value::Real(-10.0).CanonicalHash());
}

}  // namespace
}  // namespace qmap
