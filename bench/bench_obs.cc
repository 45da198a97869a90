// B11 — cost of the always-on observability plane on the hot translate path,
// measured on the same 6-source synthetic federation as bench_service. The
// question each benchmark answers:
//
//   TranslateObsOff        — the floor: no registry, no slow log, no ring.
//   TranslateMetricsOnly   — a metrics registry alone: what every deployment
//                            that exports /metrics pays. The service feeds
//                            its stage histograms from clock reads and
//                            records no trace; CI pins it within 2x of the
//                            floor (run-internal --max-ratio).
//   TranslateTraceRing/N   — trace ring enabled with head sampling every
//                            N-th query (N=16 is the default cadence; N=1 is
//                            the worst case: every query builds and retains a
//                            trace).
//   TranslateFullPlane     — everything a production deployment would run:
//                            metrics registry + exemplars, slow-query log,
//                            trace ring at the default cadence.
//
// The committed baseline pins TranslateTraceRing/16 within a few percent of
// TranslateObsOff: head sampling must keep the common case at one relaxed
// fetch_add over the floor, so turning retention on is not a perf decision.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/obs/metrics.h"
#include "qmap/service/translation_service.h"

namespace {

constexpr int kSources = 6;
constexpr int kDistinctQueries = 16;

std::vector<std::pair<std::string, qmap::MappingSpec>> Federation() {
  std::vector<std::pair<std::string, qmap::MappingSpec>> out;
  const std::vector<std::vector<std::pair<int, int>>> pair_sets = {
      {}, {{0, 1}}, {{2, 3}}, {{4, 5}}, {{0, 2}, {4, 6}}, {{1, 3}, {5, 7}}};
  for (int i = 0; i < kSources; ++i) {
    qmap::SyntheticOptions options;
    options.num_attrs = 8;
    options.dependent_pairs = pair_sets[static_cast<size_t>(i)];
    qmap::Result<qmap::MappingSpec> spec = qmap::MakeSyntheticSpec(options);
    if (!spec.ok()) std::abort();
    out.emplace_back("S" + std::to_string(i), *spec);
  }
  return out;
}

std::vector<qmap::Query> Workload() {
  std::mt19937 rng(97);
  qmap::RandomQueryOptions options;
  options.num_attrs = 8;
  options.max_depth = 3;
  std::vector<qmap::Query> out;
  for (int i = 0; i < kDistinctQueries; ++i) {
    out.push_back(qmap::RandomQuery(rng, options));
  }
  return out;
}

std::unique_ptr<qmap::TranslationService> MakeService(
    const qmap::ObsOptions& obs) {
  qmap::ServiceOptions options;
  options.num_threads = 4;
  options.enable_cache = true;
  options.cache.capacity = 4096;
  options.obs = obs;
  auto service = std::make_unique<qmap::TranslationService>(options);
  for (auto& [name, spec] : Federation()) {
    service->AddSource(name, spec);
  }
  return service;
}

void RunWorkload(benchmark::State& state, qmap::TranslationService& service) {
  std::vector<qmap::Query> workload = Workload();
  size_t next = 0;
  for (auto _ : state) {
    qmap::Result<qmap::MediatorTranslation> t =
        service.Translate(workload[next++ % workload.size()]);
    benchmark::DoNotOptimize(t);
    if (!t.ok()) state.SkipWithError("translate failed");
  }
  state.SetItemsProcessed(state.iterations());
}

void TranslateObsOff(benchmark::State& state) {
  auto service = MakeService(qmap::ObsOptions{});
  RunWorkload(state, *service);
}
BENCHMARK(TranslateObsOff);

void TranslateMetricsOnly(benchmark::State& state) {
  static qmap::MetricsRegistry registry;  // shared; benchmark reruns add to it
  qmap::ObsOptions obs;
  obs.metrics = &registry;
  auto service = MakeService(obs);
  RunWorkload(state, *service);
}
BENCHMARK(TranslateMetricsOnly);

void TranslateTraceRing(benchmark::State& state) {
  qmap::ObsOptions obs;
  obs.trace_ring.enabled = true;
  obs.trace_ring.sample_every = static_cast<uint64_t>(state.range(0));
  auto service = MakeService(obs);
  RunWorkload(state, *service);
  qmap::TraceRingStats stats = service->trace_ring()->stats();
  state.counters["retained"] =
      static_cast<double>(stats.sampled + stats.outliers);
}
BENCHMARK(TranslateTraceRing)->Arg(16)->Arg(1);

void TranslateFullPlane(benchmark::State& state) {
  static qmap::MetricsRegistry registry;  // shared; benchmark reruns add to it
  qmap::ObsOptions obs;
  obs.metrics = &registry;
  obs.slow_query.enabled = true;
  obs.slow_query.latency_threshold_us = 3'600'000'000ull;  // outliers only
  obs.trace_ring.enabled = true;
  auto service = MakeService(obs);
  RunWorkload(state, *service);
}
BENCHMARK(TranslateFullPlane);

}  // namespace

#include "bench_util.h"

QMAP_BENCH_MAIN(bench_obs)
