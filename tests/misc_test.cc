// Small pieces not covered elsewhere: Status/Result plumbing, stats
// rendering and merging, tuple rendering.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "qmap/common/status.h"
#include "qmap/core/stats.h"
#include "qmap/expr/eval.h"

namespace qmap {
namespace {

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "Ok");
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
}

TEST(ResultT, ValueAndStatusPaths) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().message(), "nope");
}

TEST(ResultT, MoveOut) {
  Result<std::string> r = std::string("payload");
  std::string taken = *std::move(r);
  EXPECT_EQ(taken, "payload");
}

// Counts its copies and moves, to tell which operator* a call binds.
struct MoveCounter {
  MoveCounter() = default;
  MoveCounter(const MoveCounter& other)
      : copies(other.copies + 1), moves(other.moves) {}
  MoveCounter(MoveCounter&& other) noexcept
      : copies(other.copies), moves(other.moves + 1) {}
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  int copies = 0;
  int moves = 0;
};

TEST(ResultT, DerefOfAnRvalueMovesAndOfAnLvalueCopies) {
  Result<MoveCounter> r = MoveCounter();
  const int copies = r->copies;
  const int moves = r->moves;
  MoveCounter copied = *r;
  EXPECT_EQ(copied.copies, copies + 1);
  EXPECT_EQ(copied.moves, moves);
  const Result<MoveCounter>& const_ref = r;
  MoveCounter const_copied = *const_ref;
  EXPECT_EQ(const_copied.copies, copies + 1);
  MoveCounter moved = *std::move(r);
  EXPECT_EQ(moved.copies, copies);
  EXPECT_EQ(moved.moves, moves + 1);
}

TEST(Stats, MergeAndRender) {
  TranslationStats a;
  a.scm_calls = 2;
  a.match.pattern_attempts = 10;
  a.cross_matchings = 1;
  TranslationStats b;
  b.scm_calls = 3;
  b.match.pattern_attempts = 5;
  b.dnf_disjuncts = 7;
  a.MergeFrom(b);
  EXPECT_EQ(a.scm_calls, 5u);
  EXPECT_EQ(a.match.pattern_attempts, 15u);
  EXPECT_EQ(a.dnf_disjuncts, 7u);
  std::string text = a.ToString();
  EXPECT_NE(text.find("scm_calls=5"), std::string::npos);
  EXPECT_NE(text.find("pattern_attempts=15"), std::string::npos);
  EXPECT_NE(text.find("cross_matchings=1"), std::string::npos);
}

TEST(Tuple, RenderingIsSortedAndStable) {
  Tuple t;
  t.Set("zeta", Value::Int(1));
  t.Set("alpha", Value::Str("x"));
  EXPECT_EQ(t.ToString(), "{alpha: \"x\", zeta: 1}");
}

TEST(Tuple, InstanceFallbackLookup) {
  Tuple t;
  t.Set("fac.ln", Value::Str("Ullman"));
  // An indexed lookup falls back to the unindexed spelling, then bare name.
  EXPECT_EQ(t.Get(Attr::OfInstance("fac", 1, "ln"))->AsString(), "Ullman");
  Tuple bare;
  bare.Set("ln", Value::Str("Gray"));
  EXPECT_EQ(bare.Get(Attr::OfInstance("fac", 2, "ln"))->AsString(), "Gray");
  EXPECT_FALSE(bare.Get(Attr::OfInstance("fac", 2, "fn")).has_value());
}

}  // namespace
}  // namespace qmap
