// Tests for the hash-consed query IR (DESIGN.md §9): interned node identity,
// fingerprint semantics, the SetQueryInternEnabled toggle, intern-table stats
// and metrics, reclamation of unreferenced entries, and the fingerprint-keyed
// cache key types.
//
// The headline properties, randomized over synthetic queries:
//   1. Under canonical construction, fingerprints are equal iff the queries
//      are structurally equal.
//   2. Interning never changes ToString()/ToParseableText() output — the
//      interned and un-interned construction paths print byte-identically.
// The end-to-end half of property 2 (translation outputs byte-identical with
// interning on vs off, across named contexts and randomized federations)
// lives in intern_equiv_test.cc.

#include "qmap/expr/intern.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/expr/parser.h"
#include "qmap/expr/printer.h"
#include "qmap/expr/query.h"
#include "qmap/obs/metrics.h"
#include "qmap/service/translation_cache.h"
#include "qmap/service/translation_service.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::DeepEquals;
using testing::InternToggle;
using testing::Q;
using testing::Rebuild;

TEST(Intern, TrueIsASingleton) {
  InternToggle on(true);
  Query a = Query::True();
  Query b = Query::True();
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // The singleton survives the toggle: True() is canonical either way.
  InternToggle off(false);
  EXPECT_EQ(Query::True().identity(), a.identity());
}

TEST(Intern, EqualLeavesShareOneNode) {
  InternToggle on(true);
  Query a = Q("[ln = \"Clancy\"]");
  Query b = Q("[ln = \"Clancy\"]");
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_EQ(&a.constraint(), &b.constraint());  // constraint interner too
  EXPECT_TRUE(a.StructurallyEquals(b));
}

TEST(Intern, EqualBranchesShareOneNode) {
  InternToggle on(true);
  Query a = Q("([a = 1] or [b = 2]) and [c = 3]");
  Query b = Q("([a = 1] or [b = 2]) and [c = 3]");
  EXPECT_EQ(a.identity(), b.identity());
  // Shared all the way down: the ∨ child is the same node in both trees.
  ASSERT_EQ(a.children().size(), b.children().size());
  for (size_t i = 0; i < a.children().size(); ++i) {
    EXPECT_EQ(a.children()[i].identity(), b.children()[i].identity());
  }
}

TEST(Intern, DisabledConstructionSharesNothingButStillFingerprints) {
  InternToggle off(false);
  Query a = Q("[ln = \"Clancy\"] and [fn = \"Tom\"]");
  Query b = Q("[ln = \"Clancy\"] and [fn = \"Tom\"]");
  EXPECT_NE(a.identity(), b.identity());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_TRUE(a.StructurallyEquals(b));  // deep walk still works
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(Intern, CrossRepresentationAliasesShareANode) {
  // Int(3) and Real(3.0) print "3", so [a = 3] built either way is the same
  // constraint (operator== is printed-form equality) and must intern to the
  // same node with the same fingerprint.
  InternToggle on(true);
  Query from_int = Query::Leaf(MakeSel(Attr::Simple("a"), Op::kEq, Value::Int(3)));
  Query from_real =
      Query::Leaf(MakeSel(Attr::Simple("a"), Op::kEq, Value::Real(3.0)));
  EXPECT_EQ(from_int.fingerprint(), from_real.fingerprint());
  EXPECT_EQ(from_int.identity(), from_real.identity());
}

TEST(Intern, FingerprintIsOrderSensitive) {
  InternToggle on(true);
  Query ab = Q("[a = 1] and [b = 2]");
  Query ba = Q("[b = 2] and [a = 1]");
  EXPECT_FALSE(ab.StructurallyEquals(ba));
  EXPECT_NE(ab.fingerprint(), ba.fingerprint());
  EXPECT_NE(ab.identity(), ba.identity());
  // Same children under a different operator is a different structure too.
  Query a_or_b = Q("[a = 1] or [b = 2]");
  EXPECT_NE(ab.fingerprint(), a_or_b.fingerprint());
}

TEST(Intern, NormalizingConstructorsDedupViaFingerprints) {
  InternToggle on(true);
  Query leaf = Q("[a = 1]");
  Query dup = Query::And({leaf, Q("[b = 2]"), leaf});
  EXPECT_EQ(dup.ToString(), "[a = 1] ∧ [b = 2]");
  // Idempotency collapse all the way to the child.
  EXPECT_EQ(Query::Or({leaf, leaf}).identity(), leaf.identity());
}

TEST(Intern, StatsMoveOnConstruction) {
  InternToggle on(true);
  InternStats before = QueryInternStats();
  // A query no prior test (or library setup) has built: stats must record
  // fresh interned nodes for it.
  Query fresh = Q("[intern_stats_probe = \"v1\"] and [intern_stats_probe2 = 9]");
  InternStats after_miss = QueryInternStats();
  EXPECT_GT(after_miss.query_nodes, before.query_nodes);
  EXPECT_GT(after_miss.query_misses, before.query_misses);
  EXPECT_GT(after_miss.constraint_nodes, before.constraint_nodes);

  // Rebuilding the same query is all hits, no new nodes.
  Query again = Q("[intern_stats_probe = \"v1\"] and [intern_stats_probe2 = 9]");
  EXPECT_EQ(again.identity(), fresh.identity());
  InternStats after_hit = QueryInternStats();
  EXPECT_EQ(after_hit.query_nodes, after_miss.query_nodes);
  EXPECT_GT(after_hit.query_hits, after_miss.query_hits);
}

TEST(Intern, ProbeHitsCountNodeAndConstraintHits) {
  InternToggle on(true);
  const Query one = Q("[hit_count_probe = \"one\"]");
  const Query two = Q("[hit_count_probe = 2]");
  const Query both = Query::And({one, two});

  // A leaf the node-table probe finds counts a node hit and a constraint
  // hit, and nothing else; so does a cross-representation alias.
  InternStats before = QueryInternStats();
  Query leaf = Query::Leaf(
      MakeSel(Attr::Simple("hit_count_probe"), Op::kEq, Value::Str("one")));
  Query alias = Query::Leaf(
      MakeSel(Attr::Simple("hit_count_probe"), Op::kEq, Value::Real(2.0)));
  InternStats after = QueryInternStats();
  EXPECT_EQ(leaf.identity(), one.identity());
  EXPECT_EQ(alias.identity(), two.identity());
  EXPECT_EQ(after.query_hits - before.query_hits, 2u);
  EXPECT_EQ(after.constraint_hits - before.constraint_hits, 2u);
  EXPECT_EQ(after.query_misses, before.query_misses);
  EXPECT_EQ(after.constraint_misses, before.constraint_misses);

  // An existing branch counts one node hit and no constraint activity.
  before = after;
  Query again = Query::And({leaf, alias});
  after = QueryInternStats();
  EXPECT_EQ(again.identity(), both.identity());
  EXPECT_EQ(after.query_hits - before.query_hits, 1u);
  EXPECT_EQ(after.constraint_hits, before.constraint_hits);
  EXPECT_EQ(after.query_misses, before.query_misses);

  // A new leaf counts one node miss and one constraint miss.
  before = after;
  Query fresh = Query::Leaf(
      MakeSel(Attr::Simple("hit_count_probe"), Op::kEq, Value::Int(3)));
  after = QueryInternStats();
  EXPECT_EQ(after.query_misses - before.query_misses, 1u);
  EXPECT_EQ(after.constraint_misses - before.constraint_misses, 1u);
  EXPECT_EQ(after.query_hits, before.query_hits);
  EXPECT_EQ(after.constraint_hits, before.constraint_hits);
}

TEST(Intern, EveryServiceRegistryReadsTheTotalsAtScrape) {
  // A wire worker's service and a front-end's service in one process, each
  // with its own registry: a scrape of either reads the process-wide intern
  // and parse-memo totals, however the work was split between them, and
  // destroying one leaves the other exporting.
  InternToggle on(true);
  auto make = [](MetricsRegistry* registry) {
    ServiceOptions options;
    options.num_threads = 1;
    options.obs.metrics = registry;
    auto service = std::make_unique<TranslationService>(options);
    Result<MappingSpec> spec = MakeSyntheticSpec(SyntheticOptions{});
    EXPECT_TRUE(spec.ok());
    service->AddSource("s0", *spec);
    return service;
  };
  const char* const kCounters[] = {
      "qmap_intern_query_hits_total",      "qmap_intern_query_nodes_total",
      "qmap_intern_constraint_hits_total", "qmap_intern_constraint_nodes_total",
      "qmap_parse_memo_hits_total",        "qmap_parse_memo_misses_total"};
  auto expected = [](const InternStats& s) {
    return std::vector<uint64_t>{s.query_hits,        s.query_nodes,
                                 s.constraint_hits,   s.constraint_nodes,
                                 s.parse_memo_hits,   s.parse_memo_misses};
  };
  auto scraped = [&](MetricsRegistry& registry) {
    std::vector<uint64_t> out;
    for (const char* name : kCounters) {
      out.push_back(registry.counter(name).value());
    }
    return out;
  };

  MetricsRegistry worker_metrics;
  MetricsRegistry front_metrics;
  auto worker = make(&worker_metrics);
  auto front = make(&front_metrics);
  // Only the worker translates; the third parse of the text is a memo hit.
  for (int i = 0; i < 3; ++i) {
    Result<Query> q = ParseQuery("[a0 = 1] and [scrape_probe = 7]");
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(worker->Translate(*q).ok());
  }
  worker->UpdateGauges();
  front->UpdateGauges();
  const InternStats first = QueryInternStats();
  EXPECT_GT(first.parse_memo_hits, 0u);
  EXPECT_EQ(scraped(worker_metrics), expected(first));
  EXPECT_EQ(scraped(front_metrics), expected(first));

  // Work after the worker is gone still reaches the front-end's registry.
  // The node count only grows, so the text is new on every run.
  worker.reset();
  const Query fresh = Q("[scrape_probe = " + std::to_string(first.query_nodes) +
                        "] or [scrape_probe = 9]");
  front->UpdateGauges();
  const InternStats second = QueryInternStats();
  EXPECT_GT(second.query_nodes, first.query_nodes);
  EXPECT_GT(second.parse_memo_misses, first.parse_memo_misses);
  EXPECT_EQ(scraped(front_metrics), expected(second));
  // Repeated scrapes add nothing once the counters have caught up.
  front->UpdateGauges();
  EXPECT_EQ(scraped(front_metrics), expected(second));
  EXPECT_NE(front_metrics.ToPrometheusText().find(
                "qmap_parse_memo_hits_total"),
            std::string::npos);
}

TEST(Intern, MixedModeStructuralEqualityIsExact) {
  // Nodes built with interning off must still compare correctly against
  // canonical nodes — fingerprint short-circuit plus deep-walk confirm.
  Query canonical = [] {
    InternToggle on(true);
    return Q("([a = 1] or [b = 2]) and [c contains \"x\"]");
  }();
  Query plain = [] {
    InternToggle off(false);
    return Q("([a = 1] or [b = 2]) and [c contains \"x\"]");
  }();
  EXPECT_NE(canonical.identity(), plain.identity());
  EXPECT_TRUE(canonical.StructurallyEquals(plain));
  EXPECT_TRUE(plain.StructurallyEquals(canonical));
  EXPECT_EQ(canonical.fingerprint(), plain.fingerprint());
}

TEST(TranslationCacheKeyTest, TypedAndStringPathsCoexist) {
  // Keys that differ in any one 64-bit third — context, rule-set version or
  // query — are distinct entries of one store.
  TranslationCache cache(TranslationCacheOptions{});
  const TranslationCacheKey base{0x1234, 0x5678, 0x9abc};
  const TranslationCacheKey keys[] = {
      base,
      {0x1235, 0x5678, 0x9abc},  // other context
      {0x1234, 0x5679, 0x9abc},  // other rule set
      {0x1234, 0x5678, 0x9abd},  // other query
  };
  for (size_t i = 0; i < std::size(keys); ++i) {
    Translation t;
    t.mapped = Q("[a = " + std::to_string(i) + "]");
    cache.Put(keys[i], t);
  }
  EXPECT_EQ(cache.size(), std::size(keys));
  for (size_t i = 0; i < std::size(keys); ++i) {
    auto hit = cache.Get(keys[i]);
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->mapped.ToString(), "[a = " + std::to_string(i) + "]");
  }
  EXPECT_FALSE(cache.Get({0x1234, 0x5678, 0}).has_value());
  TranslationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, std::size(keys));
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.updates, 0u);
}

// ---------------------------------------------------------------------------
// Reclamation: the tables keep an entry only while something else holds it.

TEST(InternReclaim, ConcurrentBuildersKeepOneNodePerStructure) {
  // Four threads build structures from one small vocabulary, so they race
  // on the same entries. Every other query also carries a nonce leaf, so
  // every shard keeps inserting and sweeping. Each thread keeps a sliding
  // window of live handles; everything else it builds dies at once.
  InternToggle on(true);
  constexpr int kThreads = 4;
  constexpr int kRounds = 4000;
  constexpr size_t kWindow = 32;
  const InternStats before = QueryInternStats();
  std::vector<std::deque<Query>> windows(kThreads);
  std::vector<int> rebuild_mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(7919 * (t + 1)));
      const RandomQueryOptions shared{.num_attrs = 3, .num_values = 2};
      std::deque<Query>& window = windows[t];
      for (int round = 0; round < kRounds; ++round) {
        Query q = RandomQuery(rng, shared);
        if (round % 2 == 1) {
          const Value nonce = Value::Int(t * kRounds + round);
          q = Query::And(
              {q, Query::Leaf(MakeSel(Attr::Simple("nonce"), Op::kEq, nonce))});
        }
        window.push_back(std::move(q));
        if (window.size() > kWindow) window.pop_front();
        // Every kept handle rebuilds to the node it holds.
        const Query& kept = window[rng() % window.size()];
        if (Rebuild(kept).identity() != kept.identity()) {
          ++rebuild_mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(rebuild_mismatches[t], 0) << "thread " << t;
  }
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
  // The run inserted far more entries than stayed resident.
  const InternStats after = QueryInternStats();
  const uint64_t inserted = after.query_nodes - before.query_nodes;
  EXPECT_GT(inserted, static_cast<uint64_t>(kThreads * kRounds / 2));
  EXPECT_LT(after.query_live, before.query_live + inserted / 2);
}

TEST(InternReclaim, ConcurrentParseHitsAndMissesKeepOneNodePerStructure) {
  // Two threads parse one shared set of texts, whose nodes after the first
  // rounds are all found by the constructors' probes. Two others parse texts
  // that each carry a nonce leaf, so every shard keeps inserting and
  // sweeping underneath those probes. Each thread keeps a sliding window of
  // live parses; everything else it parses dies at once.
  InternToggle on(true);
  std::vector<std::string> shared;
  std::mt19937 text_rng(4243);
  const RandomQueryOptions small{.num_attrs = 4, .num_values = 3};
  for (int i = 0; i < 48; ++i) {
    shared.push_back(ToParseableText(RandomQuery(text_rng, small)));
  }
  constexpr int kHitThreads = 2;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3000;
  constexpr size_t kWindow = 32;
  const InternStats before = QueryInternStats();
  std::vector<std::deque<Query>> windows(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(104729 * (t + 1)));
      std::deque<Query>& window = windows[t];
      for (int round = 0; round < kRounds; ++round) {
        std::string text = shared[rng() % shared.size()];
        if (t >= kHitThreads) {
          text = "[nonce = " + std::to_string(t * kRounds + round) +
                 "] and (" + text + ")";
        }
        Result<Query> parsed = ParseQuery(text);
        if (!parsed.ok()) {
          ++failures[t];
          continue;
        }
        window.push_back(*std::move(parsed));
        if (window.size() > kWindow) window.pop_front();
        // A held query rebuilds, and re-parses, to its own node.
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
  // The nonce threads inserted far more entries than stayed resident.
  const InternStats after = QueryInternStats();
  const uint64_t inserted = after.query_nodes - before.query_nodes;
  EXPECT_GT(inserted, static_cast<uint64_t>((kThreads - kHitThreads) * kRounds));
  EXPECT_LT(after.query_live, before.query_live + inserted / 2);
}

// ---------------------------------------------------------------------------
// Randomized properties.

struct InternPropertyCase {
  uint32_t seed = 0;
  int num_queries = 0;
  RandomQueryOptions options;
};

class InternPropertyTest : public ::testing::TestWithParam<InternPropertyCase> {
};

std::vector<Query> GenerateQueries(const InternPropertyCase& c) {
  std::mt19937 rng(c.seed);
  std::vector<Query> out;
  out.reserve(static_cast<size_t>(c.num_queries));
  for (int i = 0; i < c.num_queries; ++i) {
    out.push_back(RandomQuery(rng, c.options));
  }
  return out;
}

TEST_P(InternPropertyTest, FingerprintEqualIffStructurallyEqual) {
  InternToggle on(true);
  std::vector<Query> queries = GenerateQueries(GetParam());
  // Append exact rebuilds of a few queries (fresh construction, same
  // structure) so the "equal" direction is exercised even when the random
  // draw has no natural duplicates.
  std::mt19937 rng(GetParam().seed);
  size_t original = queries.size();
  for (int i = 0; i < GetParam().num_queries; ++i) {
    Query rebuilt = RandomQuery(rng, GetParam().options);
    if (i % 3 == 0) queries.push_back(rebuilt);
  }
  size_t equal_pairs = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      bool same_fp = queries[i].fingerprint() == queries[j].fingerprint();
      bool same_structure = queries[i].StructurallyEquals(queries[j]);
      EXPECT_EQ(same_fp, same_structure)
          << "i=" << i << " j=" << j << "\n  " << queries[i].ToString()
          << "\n  " << queries[j].ToString();
      // Canonical construction: equality must also mean shared identity.
      if (same_structure) {
        ++equal_pairs;
        EXPECT_EQ(queries[i].identity(), queries[j].identity());
      }
    }
  }
  // The rebuilt suffix guarantees the property was not vacuous.
  EXPECT_GE(equal_pairs, (original + 2) / 3);
}

TEST_P(InternPropertyTest, InterningNeverChangesPrintedOutput) {
  std::vector<std::string> with_intern;
  std::vector<std::string> without_intern;
  {
    InternToggle on(true);
    for (const Query& q : GenerateQueries(GetParam())) {
      with_intern.push_back(q.ToString() + "\n" + ToParseableText(q));
    }
  }
  {
    InternToggle off(false);
    for (const Query& q : GenerateQueries(GetParam())) {
      without_intern.push_back(q.ToString() + "\n" + ToParseableText(q));
    }
  }
  ASSERT_EQ(with_intern.size(), without_intern.size());
  for (size_t i = 0; i < with_intern.size(); ++i) {
    EXPECT_EQ(with_intern[i], without_intern[i]) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, InternPropertyTest,
    ::testing::Values(
        InternPropertyCase{101, 24, RandomQueryOptions{}},
        InternPropertyCase{202, 24, {.num_attrs = 4, .max_depth = 4}},
        InternPropertyCase{303, 32, {.num_attrs = 3, .num_values = 2}},
        InternPropertyCase{404, 16, {.num_attrs = 12, .max_depth = 2}},
        InternPropertyCase{505, 24, {.max_children = 4}}));

}  // namespace
}  // namespace qmap
