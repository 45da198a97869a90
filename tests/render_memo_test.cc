// Tests for RenderMemo (printer.h, DESIGN.md §9), the memo from query node
// to parseable text that a wire worker renders its cached replies through:
// every append is byte-identical to AppendParseableText, whether the memo
// renders or copies; a node is admitted on its second sighting in its slot,
// and a colliding node takes the slot on its own second sighting; a text
// over the size cap is never admitted; and a node rendered once pins
// nothing, while the memo pins at most one node per slot.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "qmap/expr/intern.h"
#include "qmap/expr/printer.h"
#include "qmap/expr/query.h"
#include "query_twins.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::InternToggle;
using testing::Q;

// Renders `query` through `memo`, checks the bytes, and reports whether the
// memo answered.
bool Answered(RenderMemo& memo, const Query& query) {
  const uint64_t hits = memo.hits();
  std::string out;
  memo.Append(query, &out);
  EXPECT_EQ(out, ToParseableText(query));
  return memo.hits() - hits == 1;
}

size_t SlotOf(const Query& query) {
  return query.fingerprint() & (kRenderMemoSlots - 1);
}

// Runs `body` on a thread of its own, whose parse memo starts empty.
template <typename Body>
void OnFreshThread(Body body) {
  std::thread(body).join();
}

TEST(RenderMemo, RendersTheOracleCorpusByteIdentically) {
  RenderMemo memo;
  for (uint32_t seed : {101u, 202u, 303u}) {
    testing::TwinGenerator generator(seed);
    for (int i = 0; i < 400; ++i) {
      const Query query = generator.Next().query;
      const std::string text = ToParseableText(query);
      for (int sighting = 1; sighting <= 3; ++sighting) {
        const uint64_t hits = memo.hits();
        std::string out;
        memo.Append(query, &out);
        ASSERT_EQ(out, text) << "seed " << seed << " #" << i << " sighting "
                             << sighting;
        if (sighting == 3 && text.size() <= kRenderMemoMaxTextBytes) {
          EXPECT_EQ(memo.hits() - hits, 1u) << text;
        }
      }
      std::string appended = "prefix:";
      memo.Append(query, &appended);
      EXPECT_EQ(appended, "prefix:" + text);
    }
  }
  EXPECT_EQ(memo.hits() + memo.misses(), 3u * 400u * 4u);
}

TEST(RenderMemo, ACollidingNodeTakesTheSlotOnItsSecondSighting) {
  const Query a = Q("[render_slot = 0]");
  Query b;
  for (int i = 1; b.is_true(); ++i) {
    Query candidate = Q("[render_slot = " + std::to_string(i) + "]");
    if (SlotOf(candidate) == SlotOf(a)) b = candidate;
  }
  RenderMemo memo;
  EXPECT_FALSE(Answered(memo, a));  // marks the slot
  EXPECT_FALSE(Answered(memo, a));  // admits the node
  EXPECT_TRUE(Answered(memo, a));
  EXPECT_FALSE(Answered(memo, b));  // b's first sighting only marks the slot
  EXPECT_TRUE(Answered(memo, a));
  EXPECT_FALSE(Answered(memo, b));  // its second takes the slot
  EXPECT_TRUE(Answered(memo, b));
  EXPECT_FALSE(Answered(memo, a));
  EXPECT_EQ(memo.hits(), 3u);
  EXPECT_EQ(memo.misses(), 5u);
}

TEST(RenderMemo, TextsOverTheSizeCapAreNeverAdmitted) {
  // `[render_cap = "…"]` prints as 17 bytes around its string.
  const auto sized = [](size_t bytes) {
    return Q("[render_cap = \"" + std::string(bytes - 17, 'x') + "\"]");
  };
  const Query at_cap = sized(kRenderMemoMaxTextBytes);
  const Query over_cap = sized(kRenderMemoMaxTextBytes + 1);
  ASSERT_EQ(ToParseableText(at_cap).size(), kRenderMemoMaxTextBytes);
  RenderMemo memo;
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(Answered(memo, over_cap)) << i;
  EXPECT_FALSE(Answered(memo, at_cap));
  EXPECT_FALSE(Answered(memo, at_cap));
  EXPECT_TRUE(Answered(memo, at_cap));
}

TEST(RenderMemo, NodesRenderedOnceStayReclaimable) {
  InternToggle on(true);
  OnFreshThread([] {
    constexpr size_t kNodes = 2 * kRenderMemoSlots;
    constexpr size_t kMaxHeld = size_t{1} << 18;
    // Builds and holds leaves nothing renders until the node table holds at
    // most `limit` nodes besides them, and returns how many it holds
    // besides them. Each insert sweeps a few buckets, so nodes nothing
    // references are reclaimed along the way.
    std::vector<Query> held;
    auto settle = [&](uint64_t limit) {
      auto others = [&] { return QueryInternStats().query_live - held.size(); };
      while (others() > limit && held.size() < kMaxHeld) {
        held.push_back(
            Q("[render_held = " + std::to_string(held.size()) + "]"));
      }
      return others();
    };
    RenderMemo memo;
    std::string out;

    // Nodes rendered once each, their handles dropped at once: the memo
    // holds none of them, so all of them go.
    const uint64_t start = QueryInternStats().query_live;
    for (size_t i = 0; i < kNodes; ++i) {
      memo.Append(Q("[render_once = " + std::to_string(i) + "]"), &out);
    }
    EXPECT_LE(settle(start), start);
    EXPECT_EQ(memo.hits(), 0u);

    // Nodes rendered twice each: the memo holds at most one per slot.
    const uint64_t base = QueryInternStats().query_live - held.size();
    for (size_t i = 0; i < kNodes; ++i) {
      const Query node = Q("[render_twice = " + std::to_string(i) + "]");
      memo.Append(node, &out);
      memo.Append(node, &out);
    }
    EXPECT_LE(settle(base + kRenderMemoSlots), base + kRenderMemoSlots);
    EXPECT_GT(QueryInternStats().query_live - held.size(), base);
  });
}

}  // namespace
}  // namespace qmap
