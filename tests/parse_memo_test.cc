// Tests for ParseQuery's per-thread text memo (parser.h, DESIGN.md §9): it
// answers a text only after two successful parses of it, with the node a
// fresh parse would build; it never holds a failed parse or a text over
// the size cap, and is bypassed while interning is off; a text parsed once
// pins nothing, and a thread pins at most one text per slot. The last test
// races four threads' memos against the intern tables' sweep; the CI TSan
// job runs this suite.

#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "qmap/common/fnv.h"
#include "qmap/contexts/synthetic.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/parser.h"
#include "qmap/expr/printer.h"
#include "qmap/expr/query.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::DeepEquals;
using testing::InternToggle;
using testing::Q;
using testing::Rebuild;

// Whether the memo answered one parse of `text`.
bool Answered(const std::string& text) {
  const uint64_t before = QueryInternStats().parse_memo_hits;
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text;
  return QueryInternStats().parse_memo_hits - before == 1;
}

// Runs `body` on a thread of its own, whose memo starts empty.
template <typename Body>
void OnFreshThread(Body body) {
  std::thread(body).join();
}

TEST(ParseMemo, AnswersATextFromItsThirdParse) {
  InternToggle on(true);
  OnFreshThread([] {
    const std::string text = "[memo_third = 1] and [memo_third = 2]";
    EXPECT_FALSE(Answered(text));  // marks the slot
    EXPECT_FALSE(Answered(text));  // admits the text
    EXPECT_TRUE(Answered(text));
    EXPECT_TRUE(Answered(text));
  });
}

TEST(ParseMemo, ACollidingTextTakesTheSlotOnItsSecondSighting) {
  InternToggle on(true);
  OnFreshThread([] {
    // A text's slot: the top bits of its WordHash64 times the golden ratio.
    const auto slot = [](const std::string& text) {
      constexpr int kShift = 64 - std::countr_zero(kParseMemoSlots);
      return (WordHash64(text) * 0x9E3779B97F4A7C15ull) >> kShift;
    };
    const std::string a = "[memo_slot = 0]";
    std::string b;
    for (int i = 1; b.empty(); ++i) {
      std::string candidate = "[memo_slot = " + std::to_string(i) + "]";
      if (slot(candidate) == slot(a)) b = candidate;
    }
    Q(a);
    Q(a);
    EXPECT_TRUE(Answered(a));
    EXPECT_FALSE(Answered(b));  // b's first sighting only marks the slot
    EXPECT_TRUE(Answered(a));
    EXPECT_FALSE(Answered(b));  // its second takes the slot
    EXPECT_TRUE(Answered(b));
    EXPECT_FALSE(Answered(a));
  });
}

TEST(ParseMemo, FailedParsesAreNeverMemoized) {
  InternToggle on(true);
  for (const char* text :
       {"[a = ]", "([a = 1]", "[a = \"oops]", "[a = 1] [b = 2]",
        "[a = 99999999999999999999]", "[fac[4294967297].ln = 1]"}) {
    const Result<Query> first = ParseQuery(text);
    ASSERT_FALSE(first.ok()) << text;
    for (int i = 0; i < 3; ++i) {
      const InternStats before = QueryInternStats();
      const Result<Query> again = ParseQuery(text);
      const InternStats after = QueryInternStats();
      ASSERT_FALSE(again.ok()) << text;
      EXPECT_EQ(again.status().code(), first.status().code()) << text;
      EXPECT_EQ(again.status().message(), first.status().message()) << text;
      EXPECT_EQ(after.parse_memo_hits, before.parse_memo_hits) << text;
      EXPECT_EQ(after.parse_memo_misses - before.parse_memo_misses, 1u);
    }
  }
}

TEST(ParseMemo, TextsOverTheSizeCapAreParsedEveryTime) {
  InternToggle on(true);
  OnFreshThread([] {
    std::string at_cap = "[memo_cap = 0]";
    for (int i = 1; at_cap.size() < kParseMemoMaxTextBytes - 24; ++i) {
      at_cap += " and [memo_cap = " + std::to_string(i) + "]";
    }
    at_cap.resize(kParseMemoMaxTextBytes, ' ');
    const std::string over_cap = at_cap + " ";
    const Query first = Q(over_cap);
    for (int i = 0; i < 3; ++i) {
      const InternStats before = QueryInternStats();
      const Query again = Q(over_cap);
      const InternStats after = QueryInternStats();
      EXPECT_EQ(after.parse_memo_hits, before.parse_memo_hits);
      EXPECT_GT(after.query_hits, before.query_hits);  // it probed the table
      EXPECT_EQ(again.identity(), first.identity());
    }
    Q(at_cap);
    Q(at_cap);
    EXPECT_TRUE(Answered(at_cap));
  });
}

TEST(ParseMemo, InterningOffBypassesTheMemo) {
  OnFreshThread([] {
    const std::string text =
        "[memo_off = 1] and ([memo_off = 2] or [memo_off = 3])";
    Query interned;
    {
      InternToggle on(true);
      Q(text);
      Q(text);
      ASSERT_TRUE(Answered(text));
      interned = Q(text);
    }
    InternToggle off(false);
    const InternStats before = QueryInternStats();
    const Query a = Q(text);
    const Query b = Q(text);
    const InternStats after = QueryInternStats();
    EXPECT_NE(a.identity(), b.identity());
    EXPECT_NE(a.identity(), interned.identity());
    EXPECT_TRUE(a.StructurallyEquals(interned));
    EXPECT_TRUE(b.StructurallyEquals(interned));
    EXPECT_EQ(after.parse_memo_hits, before.parse_memo_hits);
    EXPECT_EQ(after.parse_memo_misses, before.parse_memo_misses);

    // Parses made while interning is off are not noted either: once it is
    // back on, a text parsed twice while off is not answered.
    const std::string fresh = "[memo_off = 4]";
    Q(fresh);
    Q(fresh);
    InternToggle back_on(true);
    EXPECT_FALSE(Answered(fresh));
  });
}

TEST(ParseMemo, OnlyTextsParsedTwicePinTheirNodes) {
  InternToggle on(true);
  OnFreshThread([] {
    constexpr size_t kTexts = 2 * kParseMemoSlots;
    constexpr size_t kMaxHeld = size_t{1} << 18;
    // Parses and holds single-leaf texts nothing parses again until the
    // node table holds at most `limit` nodes besides them, and returns how
    // many it holds besides them. Each insert sweeps a few buckets, so
    // nodes nothing references are reclaimed along the way.
    std::vector<Query> held;
    auto settle = [&](uint64_t limit) {
      auto others = [&] { return QueryInternStats().query_live - held.size(); };
      while (others() > limit && held.size() < kMaxHeld) {
        held.push_back(Q("[memo_held = " + std::to_string(held.size()) + "]"));
      }
      return others();
    };

    // Texts parsed once each, their handles dropped at once: the memo
    // holds none of them, so all their nodes go.
    const uint64_t start = QueryInternStats().query_live;
    for (size_t i = 0; i < kTexts; ++i) {
      Q("[memo_once = " + std::to_string(i) + "]");
    }
    EXPECT_LE(settle(start), start);

    // Texts parsed twice each: the memo holds at most one per slot.
    const uint64_t base = QueryInternStats().query_live - held.size();
    for (size_t i = 0; i < kTexts; ++i) {
      const std::string text = "[memo_twice = " + std::to_string(i) + "]";
      Q(text);
      Q(text);
    }
    EXPECT_LE(settle(base + kParseMemoSlots), base + kParseMemoSlots);
    const uint64_t hits_before = QueryInternStats().parse_memo_hits;
    for (size_t i = 0; i < kTexts; ++i) {
      Q("[memo_twice = " + std::to_string(i) + "]");
    }
    const uint64_t answered = QueryInternStats().parse_memo_hits - hits_before;
    EXPECT_GT(answered, kParseMemoSlots / 2);
    EXPECT_LE(answered, kParseMemoSlots);
  });
}

TEST(ParseMemo, ConcurrentParsesAnswerWithTheCanonicalNode) {
  // Four threads parse one shared set of texts, so their memos soon answer
  // most parses, mixed with texts carrying a nonce leaf, so every shard of
  // the intern tables keeps inserting and sweeping while memo entries and
  // dropped handles come and go. Each thread keeps a sliding window of live
  // parses; everything else it parses dies at once.
  InternToggle on(true);
  std::vector<std::string> shared;
  std::mt19937 text_rng(9001);
  const RandomQueryOptions small{.num_attrs = 4, .num_values = 3};
  for (int i = 0; i < 96; ++i) {
    shared.push_back(ToParseableText(RandomQuery(text_rng, small)));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 3000;
  constexpr size_t kWindow = 32;
  const InternStats before = QueryInternStats();
  std::vector<std::deque<Query>> windows(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(7727 * (t + 1)));
      std::deque<Query>& window = windows[t];
      for (int round = 0; round < kRounds; ++round) {
        const std::string& text = shared[rng() % shared.size()];
        const bool novel = rng() % 4 == 0;
        Result<Query> parsed =
            ParseQuery(novel ? "[nonce = " +
                                   std::to_string(t * kRounds + round) +
                                   "] and (" + text + ")"
                             : text);
        // A shared text is printed as it parses: ParseQuery and the
        // printer round-trip on normalized queries.
        if (!parsed.ok() || (!novel && ToParseableText(*parsed) != text)) {
          ++failures[t];
          continue;
        }
        window.push_back(*std::move(parsed));
        if (window.size() > kWindow) window.pop_front();
        // A held query rebuilds, and its text re-parses, to its own node.
        const Query& kept = window[rng() % window.size()];
        Result<Query> reparsed = ParseQuery(ToParseableText(kept));
        if (Rebuild(kept).identity() != kept.identity() || !reparsed.ok() ||
            reparsed->identity() != kept.identity()) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  const InternStats after = QueryInternStats();
  EXPECT_GT(after.parse_memo_hits - before.parse_memo_hits,
            static_cast<uint64_t>(kThreads * kRounds / 2));
  // Across threads, live handles share a node exactly when their
  // structures are equal.
  std::vector<Query> live;
  for (const std::deque<Query>& window : windows) {
    live.insert(live.end(), window.begin(), window.end());
  }
  size_t shared_pairs = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    for (size_t j = i + 1; j < live.size(); ++j) {
      const bool same_node = live[i].identity() == live[j].identity();
      EXPECT_EQ(same_node, DeepEquals(live[i], live[j]))
          << live[i].ToString() << " vs " << live[j].ToString();
      shared_pairs += same_node ? 1 : 0;
    }
  }
  EXPECT_GT(shared_pairs, 0u);
}

}  // namespace
}  // namespace qmap
