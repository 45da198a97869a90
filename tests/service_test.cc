#include "qmap/service/translation_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "qmap/contexts/faculty.h"
#include "qmap/contexts/synthetic.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/printer.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/service/thread_pool.h"
#include "qmap/service/translation_cache.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr int kTasks = 128;
  std::atomic<int> ran{0};
  std::latch done(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      ran.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::latch done(1);
  pool.Submit([&] { done.count_down(); });
  done.wait();
}

// ---------------------------------------------------------------------------
// TranslationCache

Translation DummyTranslation(const std::string& text) {
  Translation t;
  t.mapped = Query::Leaf(MakeSel(Attr::Simple("x"), Op::kEq, Value::Str(text)));
  return t;
}

// Distinct typed keys for the cache unit tests; only the query third varies.
TranslationCacheKey Key(uint64_t query) {
  return TranslationCacheKey{/*source=*/1, /*rule_set=*/2, query};
}

TEST(TranslationCache, GetAfterPutReturnsValue) {
  TranslationCache cache({.capacity = 8, .shards = 2});
  cache.Put(Key(1), DummyTranslation("v1"));
  std::optional<Translation> hit = cache.Get(Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mapped.ToString(), "[x = \"v1\"]");
  EXPECT_FALSE(cache.Get(Key(2)).has_value());
  TranslationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(TranslationCache, EvictsLeastRecentlyUsed) {
  // Single shard so LRU order is global.
  TranslationCache cache({.capacity = 2, .shards = 1});
  cache.Put(Key(3), DummyTranslation("a"));
  cache.Put(Key(4), DummyTranslation("b"));
  ASSERT_TRUE(cache.Get(Key(3)).has_value());  // refresh a; b is now LRU
  cache.Put(Key(5), DummyTranslation("c"));    // evicts b (Key(4))
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Get(Key(4)).has_value());
  EXPECT_TRUE(cache.Get(Key(3)).has_value());
  EXPECT_TRUE(cache.Get(Key(5)).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TranslationCache, PutOverwritesExistingKey) {
  TranslationCache cache({.capacity = 4, .shards = 1});
  cache.Put(Key(6), DummyTranslation("old"));
  cache.Put(Key(6), DummyTranslation("new"));
  EXPECT_EQ(cache.size(), 1u);
  std::optional<Translation> hit = cache.Get(Key(6));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mapped.ToString(), "[x = \"new\"]");
}

TEST(TranslationCache, CountsExistingKeyUpdatesSeparately) {
  TranslationCache cache({.capacity = 4, .shards = 1});
  MetricsRegistry registry;
  cache.AttachMetrics(&registry);
  cache.Put(Key(6), DummyTranslation("v1"));
  cache.Put(Key(6), DummyTranslation("v2"));
  cache.Put(Key(7), DummyTranslation("x"));
  TranslationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(registry.counter("qmap_cache_insertions_total").value(), 2u);
  EXPECT_EQ(registry.counter("qmap_cache_updates_total").value(), 1u);
  cache.DetachMetricsIf(&registry);
}

TEST(TranslationCache, DetachMetricsIfOnlySeversTheAttachedRegistry) {
  TranslationCache cache({.capacity = 4, .shards = 1});
  MetricsRegistry current;
  MetricsRegistry stale;
  cache.AttachMetrics(&current);
  // A stale owner's detach must not clobber the live attachment...
  cache.DetachMetricsIf(&stale);
  cache.Put(Key(6), DummyTranslation("v"));
  EXPECT_EQ(current.counter("qmap_cache_insertions_total").value(), 1u);
  // ...while the real owner's detach severs it before the registry dies.
  cache.DetachMetricsIf(&current);
  cache.Put(Key(2), DummyTranslation("v2"));
  EXPECT_EQ(current.counter("qmap_cache_insertions_total").value(), 1u);
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(TranslationCache, ClearDropsEntriesKeepsCounters) {
  TranslationCache cache({.capacity = 8, .shards = 4});
  cache.Put(Key(3), DummyTranslation("a"));
  ASSERT_TRUE(cache.Get(Key(3)).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(Key(3)).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// TranslationService

// Canonical semantic rendering of a MediatorTranslation: everything the
// mediation pipeline consumes, deliberately excluding the observability-only
// stats. Used for byte-identical comparisons across thread counts.
std::string Render(const MediatorTranslation& t) {
  std::string out;
  for (const auto& [name, translation] : t.per_source) {
    out += name + ": " + ToParseableText(translation.mapped) + " / " +
           ToParseableText(translation.filter) + "\n";
  }
  out += "F: " + ToParseableText(t.filter) + "\n";
  return out;
}

// A 4-source synthetic federation with differing dependency structure, so
// per-source translations genuinely differ.
std::vector<std::pair<std::string, MappingSpec>> SyntheticFederation() {
  std::vector<std::pair<std::string, MappingSpec>> out;
  SyntheticOptions base;
  base.num_attrs = 8;
  const std::vector<std::vector<std::pair<int, int>>> pair_sets = {
      {}, {{0, 1}}, {{2, 3}, {4, 5}}, {{0, 2}, {1, 3}, {4, 6}}};
  for (size_t i = 0; i < pair_sets.size(); ++i) {
    SyntheticOptions options = base;
    options.dependent_pairs = pair_sets[i];
    Result<MappingSpec> spec = MakeSyntheticSpec(options);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    out.emplace_back("S" + std::to_string(i), *spec);
  }
  return out;
}

// TranslationService is pinned in place (it owns mutexes and atomics), so
// the factory hands out a unique_ptr.
std::unique_ptr<TranslationService> MakeService(int num_threads, bool enable_cache,
                                                size_t cache_capacity = 256) {
  ServiceOptions options;
  options.num_threads = num_threads;
  options.enable_cache = enable_cache;
  options.cache.capacity = cache_capacity;
  auto service = std::make_unique<TranslationService>(options);
  for (auto& [name, spec] : SyntheticFederation()) {
    service->AddSource(name, spec);
  }
  return service;
}

std::vector<Query> TestQueries(int count) {
  std::mt19937 rng(20260806);
  RandomQueryOptions options;
  options.num_attrs = 8;
  options.max_depth = 3;
  std::vector<Query> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(RandomQuery(rng, options));
  return out;
}

TEST(TranslationService, MatchesMediatorTranslateOnFaculty) {
  Mediator mediator = MakeFacultyMediator();
  TranslationService service;
  service.AddSourcesFrom(mediator);
  ASSERT_EQ(service.num_sources(), 2u);

  Query q = Q(
      "[fac.ln = pub.ln] and [fac.fn = pub.fn] and "
      "[fac.bib contains \"data(near)mining\"] and [fac.dept = \"cs\"]");
  Result<MediatorTranslation> from_mediator = mediator.Translate(q);
  Result<MediatorTranslation> from_service = service.Translate(q);
  ASSERT_TRUE(from_mediator.ok()) << from_mediator.status().ToString();
  ASSERT_TRUE(from_service.ok()) << from_service.status().ToString();
  EXPECT_EQ(Render(*from_mediator), Render(*from_service));
}

TEST(TranslationService, ParallelResultIsIdenticalToSerial) {
  // The determinism contract: N worker threads produce byte-identical
  // mapped queries, filters, and merged residue to the 1-thread path.
  auto serial = MakeService(/*num_threads=*/1, /*enable_cache=*/false);
  auto parallel = MakeService(/*num_threads=*/4, /*enable_cache=*/false);
  for (const Query& q : TestQueries(24)) {
    Result<MediatorTranslation> a = serial->Translate(q);
    Result<MediatorTranslation> b = parallel->Translate(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(Render(*a), Render(*b)) << "query: " << q.ToString();
  }
  ServiceStats stats = parallel->stats();
  EXPECT_GT(stats.parallel_tasks, 0u);
  EXPECT_EQ(stats.cache.hits, 0u);  // cache disabled
}

TEST(TranslationService, ParallelCoverageMatchesSerial) {
  // The merged coverage drives the residue filter; also probe it directly
  // through IsExact on every constraint of the query.
  auto serial = MakeService(1, false);
  auto parallel = MakeService(4, false);
  for (const Query& q : TestQueries(12)) {
    Result<MediatorTranslation> a = serial->Translate(q);
    Result<MediatorTranslation> b = parallel->Translate(q);
    ASSERT_TRUE(a.ok() && b.ok());
    for (const auto& [name, ta] : a->per_source) {
      const Translation& tb = b->per_source.at(name);
      for (const Constraint& c : q.AllConstraints()) {
        EXPECT_EQ(ta.coverage.IsExact(c), tb.coverage.IsExact(c));
      }
    }
  }
}

TEST(TranslationService, CacheHitEqualsFreshTranslation) {
  auto cached = MakeService(2, /*enable_cache=*/true);
  auto fresh = MakeService(2, /*enable_cache=*/false);
  std::vector<Query> queries = TestQueries(8);
  // Warm the cache, then re-translate and compare against a cacheless run.
  for (const Query& q : queries) ASSERT_TRUE(cached->Translate(q).ok());
  for (const Query& q : queries) {
    Result<MediatorTranslation> hit = cached->Translate(q);
    Result<MediatorTranslation> ref = fresh->Translate(q);
    ASSERT_TRUE(hit.ok() && ref.ok());
    EXPECT_EQ(Render(*hit), Render(*ref)) << "query: " << q.ToString();
    // The warm pass answered every source from the cache.
    EXPECT_EQ(hit->stats.cache_hits, cached->num_sources());
    EXPECT_EQ(hit->stats.match.pattern_attempts, 0u);
  }
  ServiceStats stats = cached->stats();
  EXPECT_GE(stats.cache.hits, queries.size() * cached->num_sources());
}

TEST(TranslationService, CacheMissesAreCountedOnColdPath) {
  auto service = MakeService(1, true);
  Result<MediatorTranslation> cold = service->Translate(Q("[a0 = 1] and [a1 = 2]"));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.cache_misses, service->num_sources());
  EXPECT_EQ(cold->stats.cache_hits, 0u);
  Result<MediatorTranslation> warm = service->Translate(Q("[a0 = 1] and [a1 = 2]"));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.cache_hits, service->num_sources());
  EXPECT_EQ(warm->stats.cache_misses, 0u);
}

TEST(TranslationService, CacheEvictionStillCorrect) {
  // Tiny cache: every entry fights for space; results must stay correct.
  auto tiny = MakeService(2, true, /*cache_capacity=*/4);
  auto fresh = MakeService(2, false);
  std::vector<Query> queries = TestQueries(16);
  for (int round = 0; round < 2; ++round) {
    for (const Query& q : queries) {
      Result<MediatorTranslation> a = tiny->Translate(q);
      Result<MediatorTranslation> b = fresh->Translate(q);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(Render(*a), Render(*b));
    }
  }
  EXPECT_GT(tiny->stats().cache.evictions, 0u);
}

TEST(TranslationService, BatchMatchesIndividualTranslates) {
  auto service = MakeService(4, true);
  std::vector<Query> queries = TestQueries(6);
  // Duplicate some queries within the batch.
  std::vector<Query> batch = queries;
  batch.push_back(queries[0]);
  batch.push_back(queries[2]);
  batch.push_back(queries[0]);

  Result<std::vector<MediatorTranslation>> results =
      service->TranslateBatch(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<MediatorTranslation> single = service->Translate(batch[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(Render((*results)[i]), Render(*single)) << "batch item " << i;
  }
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.batch_calls, 1u);
  EXPECT_EQ(stats.batch_queries, batch.size());
  EXPECT_EQ(stats.batch_duplicates, 3u);
}

TEST(TranslationService, UncachedBatchMatchesUnbatchedTranslations) {
  // With the cache off, every member of the batch is translated afresh and
  // must equal what another service's unbatched Translate returns for it.
  auto batched = MakeService(1, false);
  auto unbatched = MakeService(1, false);
  const std::vector<Query> batch = TestQueries(6);
  Result<std::vector<MediatorTranslation>> results =
      batched->TranslateBatch(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<MediatorTranslation> single = unbatched->Translate(batch[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(Render((*results)[i]), Render(*single)) << "batch item " << i;
  }
}

TEST(TranslationService, ViewConstraintsFlowIntoEverySource) {
  Mediator mediator = MakeFacultyMediator();
  TranslationService service;
  service.AddSourcesFrom(mediator);
  // The fac view join rides along even for a trivial query, exactly as in
  // Mediator::Translate.
  Query q = Q("[fac.ln = \"Ullman\"]");
  Result<MediatorTranslation> a = mediator.Translate(q);
  Result<MediatorTranslation> b = service.Translate(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Render(*a), Render(*b));
}

// ---------------------------------------------------------------------------
// Cache-first contract: RAM-cache probes run on the calling thread and only
// misses are translated — two or more on the pool, a single one inline.

// The serial reference for SyntheticFederation(): Mediator::Translate.
Mediator SyntheticMediator() {
  Mediator mediator;
  for (auto& [name, spec] : SyntheticFederation()) {
    mediator.AddSource(SourceContext(name, spec));
  }
  return mediator;
}

// TestQueries(count) without structural repeats, so every first Translate of
// one of them misses every source.
std::vector<Query> DistinctTestQueries(int count) {
  std::vector<Query> out;
  std::unordered_set<uint64_t> seen;
  for (const Query& q : TestQueries(count)) {
    if (seen.insert(q.fingerprint()).second) out.push_back(q);
  }
  return out;
}

TEST(TranslationService, AllHitRequestNeverTouchesThePool) {
  MetricsRegistry registry;
  ServiceOptions options;
  options.num_threads = 4;
  options.obs.metrics = &registry;
  TranslationService service(options);
  for (auto& [name, spec] : SyntheticFederation()) {
    service.AddSource(name, spec);
  }
  const Mediator mediator = SyntheticMediator();
  const std::vector<Query> queries = DistinctTestQueries(8);
  for (const Query& q : queries) ASSERT_TRUE(service.Translate(q).ok());
  // A pool task records its qmap_pool_run_us sample after releasing the
  // caller, so let the warm-up's samples land before taking the baseline.
  const Histogram& pool_runs = registry.histogram("qmap_pool_run_us");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool_runs.count() < service.stats().parallel_tasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(pool_runs.count(), queries.size() * service.num_sources());

  const ServiceStats before = service.stats();
  for (const Query& q : queries) {
    Result<MediatorTranslation> hit = service.Translate(q);
    Result<MediatorTranslation> want = mediator.Translate(q);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(Render(*hit), Render(*want)) << "query: " << q.ToString();
    EXPECT_EQ(hit->stats.cache_hits, service.num_sources());
    EXPECT_EQ(hit->stats.parallel_tasks, 0u);
  }
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.parallel_tasks, before.parallel_tasks);
  EXPECT_EQ(after.inline_tasks, before.inline_tasks);
  EXPECT_EQ(pool_runs.count(), queries.size() * service.num_sources());
}

TEST(TranslationService, WarmSourcesLeaveOnlyTheMissesToTranslate) {
  // Sources warmed through TranslateSource are answered from the cache; of
  // the rest, two or more go to the pool and a lone miss runs inline.
  const Mediator mediator = SyntheticMediator();
  const std::vector<std::vector<std::string>> warm_sets = {
      {"S2"}, {"S0", "S1", "S3"}};
  for (const std::vector<std::string>& warm : warm_sets) {
    auto service = MakeService(/*num_threads=*/4, /*enable_cache=*/true);
    const uint64_t misses = service->num_sources() - warm.size();
    const uint64_t pooled = misses > 1 ? misses : 0;
    for (const Query& q : DistinctTestQueries(8)) {
      // No view constraints, so `q` is already the full query
      // TranslateSource expects.
      for (const std::string& name : warm) {
        ASSERT_TRUE(service->TranslateSource(name, q).ok());
      }
      const ServiceStats before = service->stats();
      Result<MediatorTranslation> got = service->Translate(q);
      Result<MediatorTranslation> want = mediator.Translate(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const ServiceStats after = service->stats();
      EXPECT_EQ(after.parallel_tasks - before.parallel_tasks, pooled);
      EXPECT_EQ(after.inline_tasks - before.inline_tasks, misses - pooled);
      EXPECT_EQ(got->stats.parallel_tasks, pooled);
      EXPECT_EQ(got->stats.cache_hits, warm.size());
      EXPECT_EQ(got->stats.cache_misses, misses);
      EXPECT_EQ(Render(*got), Render(*want)) << "query: " << q.ToString();
    }
  }
}

TEST(TranslationService, TracedAllHitRequestRecordsOnlyCacheLookups) {
  auto service = MakeService(/*num_threads=*/4, /*enable_cache=*/true);
  const Query q = TestQueries(1).front();
  ASSERT_TRUE(service->Translate(q).ok());
  Trace trace("all-hit");
  ASSERT_TRUE(service->Translate(q, &trace).ok());
  const std::vector<SpanRecord> spans = trace.spans();
  ASSERT_FALSE(spans.empty());
  ASSERT_EQ(spans[0].name, "service.translate");
  std::vector<std::string> looked_up;
  for (const SpanRecord& span : spans) {
    EXPECT_NE(span.name, "pool.wait");
    EXPECT_NE(span.name, "fanout.wait");
    EXPECT_NE(span.name, "source.translate");
    if (span.name != "cache.lookup") continue;
    EXPECT_EQ(span.parent, spans[0].id);
    std::string source;
    std::string hit;
    for (const auto& [key, value] : span.attrs) {
      if (key == "source") source = value;
      if (key == "hit") hit = value;
    }
    EXPECT_EQ(hit, "true") << source;
    looked_up.push_back(source);
  }
  EXPECT_EQ(looked_up, (std::vector<std::string>{"S0", "S1", "S2", "S3"}));
}

TEST(TranslationService, EvictionsAreCountedExactlyPerRequest) {
  // A cache far smaller than the working set, so most fills evict. Each
  // response counts only the evictions its own fills caused, so concurrent
  // requests never see one another's.
  auto service = MakeService(/*num_threads=*/4, /*enable_cache=*/true,
                             /*cache_capacity=*/8);
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 24;
  std::vector<std::vector<Query>> queries(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kQueriesPerThread; ++k) {
      // Distinct across threads and calls: every request is novel.
      queries[t].push_back(Q("[a0 = " + std::to_string(t * 1000 + k) +
                             "] and ([a1 = 2] or [a2 = 3])"));
    }
  }
  const uint64_t evictions_before = service->stats().cache.evictions;
  std::vector<std::vector<TranslationStats>> stats(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const Query& q : queries[t]) {
        Result<MediatorTranslation> got = service->Translate(q);
        if (got.ok()) stats[t].push_back(got->stats);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  uint64_t reported = 0;
  for (const std::vector<TranslationStats>& per_thread : stats) {
    ASSERT_EQ(per_thread.size(), static_cast<size_t>(kQueriesPerThread));
    for (const TranslationStats& s : per_thread) {
      EXPECT_LE(s.cache_evictions, s.cache_misses);
      reported += s.cache_evictions;
    }
  }
  EXPECT_EQ(reported, service->stats().cache.evictions - evictions_before);
  EXPECT_GT(reported, 0u);
}

TEST(TranslationService, DistinctQueriesLeaveABoundedInternTable) {
  // Every query is distinct through its nonce leaf, and nothing keeps it
  // once its translation leaves the 64-entry cache. Without reclamation the
  // intern tables keep every novel node (about 15 per query); with it, the
  // live size levels off.
  auto service = MakeService(/*num_threads=*/2, /*enable_cache=*/true,
                             /*cache_capacity=*/64);
  const std::string held_text = "([a1 = 1] or [a2 = 2]) and [a3 = 3]";
  const Query held = Q(held_text);
  constexpr int kN = 2000;
  std::mt19937 rng(20261017);
  const RandomQueryOptions shape{.max_depth = 2};
  int64_t nonce = 1000000;
  auto translate_novel = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Query q = Query::And(
          {RandomQuery(rng, shape),
           Query::Leaf(MakeSel(Attr::Simple("a0"), Op::kEq,
                               Value::Int(nonce++)))});
      ASSERT_TRUE(service->Translate(q).ok()) << q.ToString();
    }
  };
  translate_novel(kN);
  const InternStats after_n = QueryInternStats();
  translate_novel(3 * kN);
  const InternStats after_4n = QueryInternStats();

  EXPECT_GT(after_4n.query_nodes - after_n.query_nodes,
            static_cast<uint64_t>(3 * kN));
  EXPECT_LE(after_4n.query_live, after_n.query_live * 3 / 2)
      << "live after N: " << after_n.query_live
      << ", after 4N: " << after_4n.query_live;
  EXPECT_LE(after_4n.constraint_live, after_n.constraint_live * 3 / 2)
      << "live after N: " << after_n.constraint_live
      << ", after 4N: " << after_4n.constraint_live;
  // A node someone still holds is never reclaimed: rebuilding it finds it.
  EXPECT_EQ(Q(held_text).identity(), held.identity());
}

TEST(TranslationService, EmptyBatchIsOk) {
  auto service = MakeService(2, true);
  Result<std::vector<MediatorTranslation>> results =
      service->TranslateBatch(std::span<const Query>{});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

}  // namespace
}  // namespace qmap
