// Tests for the hash-consed query IR (DESIGN.md §9): interned node identity,
// fingerprint semantics, the QMAP_DISABLE_INTERN toggle, intern-table stats
// and metrics, and the fingerprint-keyed cache key types.
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

#include <random>
#include <string>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/core/match_memo.h"
#include "qmap/expr/printer.h"
#include "qmap/expr/query.h"
#include "qmap/obs/metrics.h"
#include "qmap/service/translation_cache.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::C;
using testing::Q;

/// RAII override of the interning toggle; restores the prior setting so test
/// order never leaks a disabled interner into unrelated tests.
class InternToggle {
 public:
  explicit InternToggle(bool enabled) : prior_(QueryInternEnabled()) {
    SetQueryInternEnabled(enabled);
  }
  ~InternToggle() { SetQueryInternEnabled(prior_); }
  InternToggle(const InternToggle&) = delete;
  InternToggle& operator=(const InternToggle&) = delete;

 private:
  bool prior_;
};

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

TEST(Intern, MetricsBridgeBackfillsAndDetaches) {
  InternToggle on(true);
  Query warmup = Q("[metrics_probe = 1] and [metrics_probe = 2]");
  (void)warmup;
  InternStats stats = QueryInternStats();

  MetricsRegistry registry;
  AttachInternMetrics(&registry);
  // Attach backfills lifetime totals, so the counters start at the current
  // stats, not at zero.
  EXPECT_EQ(registry.counter("qmap_intern_query_hits_total").value(),
            stats.query_hits);
  EXPECT_EQ(registry.counter("qmap_intern_query_nodes_total").value(),
            stats.query_nodes);
  EXPECT_EQ(registry.counter("qmap_intern_constraint_hits_total").value(),
            stats.constraint_hits);
  EXPECT_EQ(registry.counter("qmap_intern_constraint_nodes_total").value(),
            stats.constraint_nodes);

  // Live updates flow through while attached.
  Query hit = Q("[metrics_probe = 1]");
  (void)hit;
  EXPECT_GT(registry.counter("qmap_intern_query_hits_total").value(),
            stats.query_hits);

  // DetachIf ignores a registry that is not the attached one, then detaches
  // the real one; construction afterwards must not touch the registry.
  MetricsRegistry other;
  DetachInternMetricsIf(&other);
  uint64_t frozen = registry.counter("qmap_intern_query_hits_total").value();
  Query still_bridged = Q("[metrics_probe = 1]");
  (void)still_bridged;
  EXPECT_GT(registry.counter("qmap_intern_query_hits_total").value(), frozen);

  DetachInternMetricsIf(&registry);
  frozen = registry.counter("qmap_intern_query_hits_total").value();
  Query unbridged = Q("[metrics_probe = 1]");
  (void)unbridged;
  EXPECT_EQ(registry.counter("qmap_intern_query_hits_total").value(), frozen);
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

TEST(MatchMemoKey, OrderSensitiveAndStable) {
  std::vector<Constraint> ab = {C("[a = 1]"), C("[b = 2]")};
  std::vector<Constraint> ba = {C("[b = 2]"), C("[a = 1]")};
  EXPECT_EQ(MatchMemo::KeyOf(ab), MatchMemo::KeyOf(ab));
  EXPECT_NE(MatchMemo::KeyOf(ab), MatchMemo::KeyOf(ba));
  EXPECT_NE(MatchMemo::KeyOf(ab), MatchMemo::KeyOf({ab[0]}));
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
