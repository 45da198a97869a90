#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "qmap/contexts/amazon.h"
#include "qmap/contexts/faculty.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/service/translation_service.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

Query FacultyQuery() {
  return Q(
      "[fac.ln = pub.ln] and [fac.fn = pub.fn] and "
      "[fac.bib contains \"data(near)mining\"] and [fac.dept = \"cs\"]");
}

std::unique_ptr<TranslationService> MakeFacultyService(ServiceOptions options) {
  auto service = std::make_unique<TranslationService>(options);
  service->AddSourcesFrom(MakeFacultyMediator());
  return service;
}

std::string Render(const MediatorTranslation& t) {
  std::string out;
  for (const auto& [name, translation] : t.per_source) {
    out += name + ": " + translation.mapped.ToString() + "\n";
  }
  out += "F: " + t.filter.ToString() + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Traced service runs

TEST(ObsService, TracedRunProducesNestedSpans) {
  auto service = MakeFacultyService({});
  Trace trace("query", /*capture_detail=*/false);
  Result<MediatorTranslation> translation =
      service->Translate(FacultyQuery(), &trace);
  ASSERT_TRUE(translation.ok()) << translation.status().ToString();

  std::vector<SpanRecord> spans = trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "service.translate");
  EXPECT_EQ(spans[0].parent, 0u);
  size_t source_spans = 0;
  size_t algo_spans = 0;
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.dur_ns, 0) << span.name << " left open";
    if (span.name == "source.translate") ++source_spans;
    if (span.name == "tdqm" || span.name == "psafe" || span.name == "scm") {
      ++algo_spans;
    }
  }
  EXPECT_EQ(source_spans, service->num_sources());
  EXPECT_GT(algo_spans, 0u);
  // The root span covers the whole translation: every other span nests
  // inside its window.
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.start_ns, spans[0].start_ns) << span.name;
    EXPECT_LE(span.start_ns + span.dur_ns, spans[0].start_ns + spans[0].dur_ns)
        << span.name;
  }
  EXPECT_TRUE(spans[0].has_stats);

  // Both exports are well-formed; the round-trip parser accepts ToJson().
  Result<ParsedTrace> parsed = ParseTraceJson(trace.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->spans.size(), spans.size());
  std::string chrome = trace.ToChromeTraceJson();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("service.translate"), std::string::npos);
}

TEST(ObsService, PoolFanOutRecordsWaitSpansAndQueueWait) {
  ServiceOptions options;
  options.num_threads = 4;
  auto service = MakeFacultyService(options);
  Trace trace("pooled");
  Result<MediatorTranslation> translation =
      service->Translate(FacultyQuery(), &trace);
  ASSERT_TRUE(translation.ok());
  size_t waits = 0;
  for (const SpanRecord& span : trace.spans()) {
    if (span.name == "pool.wait") ++waits;
  }
  EXPECT_EQ(waits, service->num_sources());
}

TEST(ObsService, TracingDoesNotChangeResults) {
  auto service = MakeFacultyService({});
  Result<MediatorTranslation> plain = service->Translate(FacultyQuery());
  Trace trace("check", /*capture_detail=*/true);
  Result<MediatorTranslation> traced =
      service->Translate(FacultyQuery(), &trace);
  ASSERT_TRUE(plain.ok() && traced.ok());
  EXPECT_EQ(Render(*plain), Render(*traced));
}

// ---------------------------------------------------------------------------
// Metrics wiring

TEST(ObsService, MetricsRegistryIsPopulated) {
  MetricsRegistry registry;
  ServiceOptions options;
  options.num_threads = 4;
  options.obs.metrics = &registry;
  auto service = MakeFacultyService(options);
  const size_t sources = service->num_sources();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  }
  EXPECT_EQ(registry.counter("qmap_translate_total").value(), 3u);
  EXPECT_EQ(registry.histogram("qmap_translate_latency_us").count(), 3u);
  // Cache: first call misses per source, later calls hit.
  EXPECT_EQ(registry.counter("qmap_cache_misses_total").value(), sources);
  EXPECT_EQ(registry.counter("qmap_cache_hits_total").value(), 2 * sources);
  // Per-stage histograms, fed from clock reads: every call probes the
  // cache, and only the first call's misses reach a unit of work and a
  // translation, one of each per source.
  EXPECT_EQ(registry.histogram("qmap_stage_cache_lookup_us").count(), 3u);
  EXPECT_EQ(registry.histogram("qmap_stage_source_us").count(), sources);
  EXPECT_EQ(registry.histogram("qmap_stage_translate_us").count(), sources);

  std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("qmap_translate_latency_us_bucket"), std::string::npos);
  EXPECT_NE(prom.find("qmap_translate_total 3"), std::string::npos);

  // Cache-first: only the first, all-miss call reaches the pool (one task
  // per source); the two all-hit calls are answered on the calling thread.
  // A pool thread records a task's run time after the task has released
  // the caller, so the count is read once the service's pool has joined
  // its threads.
  service.reset();
  EXPECT_EQ(registry.histogram("qmap_pool_run_us").count(), sources);
}

TEST(ObsService, MetricsAloneRecordNoTrace) {
  MetricsRegistry registry;
  ServiceOptions options;
  options.obs.metrics = &registry;
  auto service = MakeFacultyService(options);
  // Trace serials are process-wide and consecutive: a trace the service
  // recorded inside the call would take the serial between these two.
  const Trace before("before");
  ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  const Trace after("after");
  EXPECT_EQ(after.serial(), before.serial() + 1);
  EXPECT_EQ(registry.histogram("qmap_translate_latency_us").count(), 1u);
  EXPECT_EQ(registry.histogram("qmap_stage_filter_us").count(), 1u);
}

TEST(ObsService, StageHistogramsCountTheRequestsThatReachedThem) {
  MetricsRegistry registry;
  ServiceOptions options;
  options.num_threads = 4;
  options.obs.metrics = &registry;
  auto service = MakeFacultyService(options);
  const auto count = [&registry](const std::string& stage) {
    return registry.histogram("qmap_stage_" + stage + "_us").count();
  };
  // Misses fan out to the pool, hits stop at the cache.
  const std::vector<Query> requests = {
      FacultyQuery(), FacultyQuery(), Q("[fac.dept = \"ee\"]"),
      FacultyQuery(), Q("[fac.dept = \"ee\"]")};
  const ServiceStats before = service->stats();
  for (const Query& query : requests) {
    ASSERT_TRUE(service->Translate(query).ok());
  }
  const ServiceStats after = service->stats();
  EXPECT_EQ(count("cache_lookup"), requests.size());
  EXPECT_EQ(count("join"), requests.size());
  EXPECT_EQ(count("filter"), requests.size());
  EXPECT_EQ(count("source"), after.parallel_tasks + after.inline_tasks -
                                 before.parallel_tasks - before.inline_tasks);
  const uint64_t local_misses = after.cache.misses - before.cache.misses;
  EXPECT_EQ(local_misses, 2 * service->num_sources());
  EXPECT_EQ(count("translate"), local_misses);

  // With the cache off nothing is probed, and every source is a unit of
  // work that translates, on every call.
  MetricsRegistry uncached_registry;
  options.enable_cache = false;
  options.obs.metrics = &uncached_registry;
  auto uncached = MakeFacultyService(options);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(uncached->Translate(FacultyQuery()).ok());
  }
  const uint64_t units = 2 * uncached->num_sources();
  EXPECT_EQ(uncached_registry.histogram("qmap_stage_cache_lookup_us").count(),
            0u);
  EXPECT_EQ(uncached_registry.histogram("qmap_stage_source_us").count(), units);
  EXPECT_EQ(uncached_registry.histogram("qmap_stage_translate_us").count(),
            units);
  EXPECT_EQ(uncached_registry.histogram("qmap_stage_join_us").count(), 2u);
}

TEST(ObsService, MatchCountersAreExported) {
  MetricsRegistry registry;
  ServiceOptions options;
  options.num_threads = 1;
  options.obs.metrics = &registry;
  TranslationService service(options);
  service.AddSource("amazon", AmazonSpec());
  Query query = Q(
      "([pyear = 1997] and ([pmonth = 5] or [pmonth = 6])) or "
      "(([pyear = 1997] or [pmonth = 5]) and [pmonth = 6])");
  ASSERT_TRUE(service.Translate(query).ok());
  EXPECT_GT(registry.counter("qmap_match_pattern_attempts_total").value(), 0u);
  EXPECT_GT(registry.counter("qmap_match_index_hits_total").value(), 0u);
  EXPECT_GT(registry.counter("qmap_match_attempts_saved_total").value(), 0u);
}

TEST(ObsService, MetricsDoNotChangeResults) {
  auto bare = MakeFacultyService({});
  MetricsRegistry registry;
  ServiceOptions options;
  options.obs.metrics = &registry;
  options.obs.slow_query.enabled = true;
  options.obs.slow_query.latency_threshold_us = 0;
  auto observed = MakeFacultyService(options);
  Result<MediatorTranslation> a = bare->Translate(FacultyQuery());
  Result<MediatorTranslation> b = observed->Translate(FacultyQuery());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Render(*a), Render(*b));
}

// ---------------------------------------------------------------------------
// Slow-query log

TEST(ObsService, SlowQueryLogCapturesEverythingAtZeroThreshold) {
  ServiceOptions options;
  options.obs.slow_query.enabled = true;
  options.obs.slow_query.latency_threshold_us = 0;  // log every query
  auto service = MakeFacultyService(options);
  ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  ASSERT_TRUE(service->Translate(Q("[fac.dept = \"ee\"]")).ok());

  std::vector<SlowQueryRecord> slow = service->slow_queries();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(service->stats().slow_queries, 2u);
  EXPECT_NE(slow[0].query_text.find("fac.dept"), std::string::npos);
  EXPECT_FALSE(slow[0].stats.empty());
  // The record carries a full trace even though no caller passed one.
  Result<ParsedTrace> parsed = ParseTraceJson(slow[0].trace_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->spans.empty());
  EXPECT_EQ(parsed->spans[0].name, "service.translate");
}

TEST(ObsService, FastQueriesStayOutOfTheLog) {
  ServiceOptions options;
  options.obs.slow_query.enabled = true;
  // Nothing the faculty federation does takes an hour.
  options.obs.slow_query.latency_threshold_us = 3'600'000'000ull;
  auto service = MakeFacultyService(options);
  ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  EXPECT_TRUE(service->slow_queries().empty());
  EXPECT_EQ(service->stats().slow_queries, 0u);
}

TEST(ObsService, DisjunctThresholdTriggersIndependentlyOfLatency) {
  ServiceOptions options;
  options.translator.algorithm = MappingAlgorithm::kDnf;  // counts disjuncts
  options.obs.slow_query.enabled = true;
  options.obs.slow_query.latency_threshold_us = 3'600'000'000ull;
  options.obs.slow_query.disjunct_threshold = 1;
  auto service = MakeFacultyService(options);
  ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  std::vector<SlowQueryRecord> slow = service->slow_queries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_GE(slow[0].max_disjuncts, 1u);
}

TEST(ObsService, RingBufferKeepsOnlyTheMostRecent) {
  ServiceOptions options;
  options.obs.slow_query.enabled = true;
  options.obs.slow_query.latency_threshold_us = 0;
  options.obs.slow_query.capacity = 2;
  auto service = MakeFacultyService(options);
  // Distinct queries the faculty spec can map (DeptCode knows these four).
  const std::vector<std::string> depts = {"cs", "ee", "math", "physics"};
  for (const std::string& dept : depts) {
    ASSERT_TRUE(service->Translate(Q("[fac.dept = \"" + dept + "\"]")).ok());
  }
  ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  std::vector<SlowQueryRecord> slow = service->slow_queries();
  ASSERT_EQ(slow.size(), 2u);  // capped by capacity
  EXPECT_EQ(service->stats().slow_queries, 5u);  // lifetime count keeps going
  EXPECT_NE(slow[0].query_text.find("physics"), std::string::npos);
  EXPECT_NE(slow[1].query_text.find("data(near)mining"), std::string::npos);
}

TEST(ObsService, BatchQueriesFlowThroughTheSlowQueryLog) {
  ServiceOptions options;
  options.obs.slow_query.enabled = true;
  options.obs.slow_query.latency_threshold_us = 0;
  auto service = MakeFacultyService(options);
  std::vector<Query> batch = {Q("[fac.dept = \"cs\"]"), Q("[fac.dept = \"cs\"]"),
                              Q("[fac.dept = \"ee\"]")};
  Result<std::vector<MediatorTranslation>> out = service->TranslateBatch(batch);
  ASSERT_TRUE(out.ok());
  // Dedup means 2 unique translations, hence 2 log entries.
  EXPECT_EQ(service->slow_queries().size(), 2u);
}


TEST(ObsService, SlowLogWraparoundKeepsNewestUnderChurn) {
  ServiceOptions options;
  options.obs.slow_query.enabled = true;
  options.obs.slow_query.latency_threshold_us = 0;  // capture everything
  options.obs.slow_query.capacity = 3;
  auto service = MakeFacultyService(options);
  const std::vector<std::string> depts = {"cs", "ee", "math", "physics"};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        service->Translate(Q("[fac.dept = \"" + depts[i % 4] + "\"]")).ok());
  }
  std::vector<SlowQueryRecord> slow = service->slow_queries();
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(service->stats().slow_queries, 10u);
  // The survivors are exactly the last three captures, oldest first:
  // i = 7, 8, 9 -> physics, cs, ee.
  EXPECT_NE(slow[0].query_text.find("physics"), std::string::npos);
  EXPECT_NE(slow[1].query_text.find("cs"), std::string::npos);
  EXPECT_NE(slow[2].query_text.find("ee"), std::string::npos);
}

TEST(ObsService, ConcurrentSlowLogCaptureStaysBoundedAndUntorn) {
  ServiceOptions options;
  options.num_threads = 1;  // hammer concurrency comes from the callers
  options.obs.slow_query.enabled = true;
  options.obs.slow_query.latency_threshold_us = 0;
  options.obs.slow_query.capacity = 4;
  auto service = MakeFacultyService(options);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  const std::vector<std::string> depts = {"cs", "ee", "math", "physics"};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &depts, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Query query = Q("[fac.dept = \"" + depts[(t + i) % 4] + "\"]");
        ASSERT_TRUE(service->Translate(query).ok());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // The ring respects its bound, the lifetime counter saw every capture,
  // and no record is torn: each one has a query, stats, and a trace whose
  // JSON parses back with the service root span intact.
  std::vector<SlowQueryRecord> slow = service->slow_queries();
  ASSERT_EQ(slow.size(), 4u);
  EXPECT_EQ(service->stats().slow_queries,
            static_cast<uint64_t>(kThreads * kPerThread));
  for (const SlowQueryRecord& record : slow) {
    EXPECT_NE(record.query_text.find("fac.dept"), std::string::npos);
    EXPECT_FALSE(record.stats.empty());
    Result<ParsedTrace> parsed = ParseTraceJson(record.trace_json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_FALSE(parsed->spans.empty());
    EXPECT_EQ(parsed->spans[0].name, "service.translate");
  }
}

// ---------------------------------------------------------------------------
// Trace-retention ring

TEST(ObsService, TraceRingRetainsSampledTranslations) {
  ServiceOptions options;
  options.obs.trace_ring.enabled = true;
  options.obs.trace_ring.sample_every = 1;  // every query
  auto service = MakeFacultyService(options);
  ASSERT_NE(service->trace_ring(), nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  }
  EXPECT_EQ(service->trace_ring()->stats().seen, 3u);
  std::vector<ParsedTrace> sampled = service->trace_ring()->SampledSnapshot();
  ASSERT_EQ(sampled.size(), 3u);
  // Each retained trace is a full service trace, findable by its id.
  ASSERT_FALSE(sampled[0].spans.empty());
  EXPECT_EQ(sampled[0].spans[0].name, "service.translate");
  EXPECT_TRUE(service->trace_ring()->Find(sampled[0].trace_id).has_value());
}

TEST(ObsService, SlowOutliersAreRetainedEvenWhenTheSamplerSkips) {
  ServiceOptions options;
  options.obs.trace_ring.enabled = true;
  options.obs.trace_ring.sample_every = 1000000;  // effectively never
  options.obs.slow_query.enabled = true;
  options.obs.slow_query.latency_threshold_us = 0;  // everything is "slow"
  auto service = MakeFacultyService(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  }
  // All three went to the guaranteed outlier ring (the first was also
  // head-sampled, but outlier classification wins the routing).
  EXPECT_EQ(service->trace_ring()->OutlierSnapshot().size(), 3u);
  EXPECT_TRUE(service->trace_ring()->SampledSnapshot().empty());
}

TEST(ObsService, ExemplarFromLatencyBucketResolvesToRetainedTrace) {
  MetricsRegistry registry;
  ServiceOptions options;
  options.obs.metrics = &registry;
  options.obs.trace_ring.enabled = true;
  options.obs.trace_ring.sample_every = 1;
  auto service = MakeFacultyService(options);
  ASSERT_TRUE(service->Translate(FacultyQuery()).ok());

  Histogram& latency = registry.histogram("qmap_translate_latency_us");
  ASSERT_EQ(latency.count(), 1u);
  uint64_t serial = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (latency.bucket_count(b) > 0) serial = latency.exemplar(b);
  }
  ASSERT_NE(serial, 0u) << "the occupied latency bucket has no exemplar";
  // The exemplar names exactly the trace the ring retained for this query.
  auto trace = service->trace_ring()->Find("qt" + std::to_string(serial));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->spans[0].name, "service.translate");
}

TEST(ObsService, TraceRingDoesNotChangeResults) {
  auto bare = MakeFacultyService({});
  ServiceOptions options;
  options.obs.trace_ring.enabled = true;
  options.obs.trace_ring.sample_every = 1;
  auto ringed = MakeFacultyService(options);
  Result<MediatorTranslation> a = bare->Translate(FacultyQuery());
  Result<MediatorTranslation> b = ringed->Translate(FacultyQuery());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Render(*a), Render(*b));
}

// ---------------------------------------------------------------------------
// Status snapshot

TEST(ObsService, StatusSnapshotReportsReadinessAndSources) {
  ServiceOptions options;
  options.num_threads = 4;
  auto service = MakeFacultyService(options);
  ServiceStatus before = service->StatusSnapshot();
  EXPECT_TRUE(before.ready);  // no store configured -> nothing to wait for
  EXPECT_FALSE(before.store_configured);
  ASSERT_EQ(before.sources.size(), service->num_sources());
  for (const SourceStatus& source : before.sources) {
    EXPECT_EQ(source.breaker, CircuitBreaker::State::kClosed);
    EXPECT_EQ(source.calls, 0u);
    EXPECT_EQ(source.in_flight, 0u);
  }

  ASSERT_TRUE(service->Translate(FacultyQuery()).ok());
  ASSERT_TRUE(service->Translate(FacultyQuery()).ok());  // cache hit
  ServiceStatus after = service->StatusSnapshot();
  EXPECT_EQ(after.stats.translate_calls, 2u);
  EXPECT_EQ(after.pool_threads, 4u);
  EXPECT_GT(after.cache_entries, 0u);
  for (const SourceStatus& source : after.sources) {
    // Exactly one real translation per source: the second call hit the cache.
    EXPECT_EQ(source.calls, 1u) << source.name;
    EXPECT_EQ(source.failures, 0u) << source.name;
    EXPECT_EQ(source.in_flight, 0u) << source.name;
  }
}

}  // namespace
}  // namespace qmap
