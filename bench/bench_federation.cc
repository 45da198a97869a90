// B12 — federated scatter/gather throughput: the same 4-source synthetic
// catalog translated through a front-end whose sources sit behind (a)
// InProcessTransports and (b) RemoteTransports speaking the wire protocol
// to a QmapServer on loopback. The spread between the two is the full cost
// of federation — framing, checksums, the event loop, connection pooling —
// on top of identical rule matching.
//
// Client concurrency is modelled with benchmark threads (1 / 8 / 64), all
// sharing one front-end the way real callers share one service; QPS is the
// items_per_second of the real-time runs, and per-call p50/p99 latency is
// reported as counters (averaged across client threads). The `identical`
// counter asserts once per process that in-process and remote renders are
// byte-for-byte equal on the workload — a transport must never change the
// translation. Two more counters come from one pass of the workload through
// a fresh front-end (cache off), after one warm pass:
// `rpcs_per_translate`, WireClient calls per Translate, pins the round
// trips — all four sources live on one worker, so it reads 1, one call per
// worker per request, not one per source; `inline_frac`, the frames the
// worker answered on its event-loop thread over the frames it got, pins the
// worker's cache-first path — 1 when its RAM cache holds every answer.
// RemoteLoopbackUncached runs the same clients against a worker with its
// cache off, so every frame takes the pool path and `inline_frac` reads 0.
//
// WireCall_CatalogRoundTrip isolates the floor: one pooled connection, one
// tiny request frame, one reply, no translation work.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/expr/printer.h"
#include "qmap/service/source_transport.h"
#include "qmap/service/translation_service.h"
#include "qmap/wire/messages.h"
#include "qmap/wire/qmap_server.h"
#include "qmap/wire/remote_transport.h"
#include "qmap/wire/wire_client.h"

namespace {

constexpr int kDistinctQueries = 16;

std::vector<std::pair<std::string, qmap::MappingSpec>> Federation() {
  std::vector<std::pair<std::string, qmap::MappingSpec>> out;
  const std::vector<std::vector<std::pair<int, int>>> pair_sets = {
      {}, {{0, 1}}, {{2, 3}, {4, 5}}, {{0, 2}, {1, 3}, {4, 6}}};
  for (size_t i = 0; i < pair_sets.size(); ++i) {
    qmap::SyntheticOptions options;
    options.num_attrs = 8;
    options.dependent_pairs = pair_sets[i];
    qmap::Result<qmap::MappingSpec> spec = qmap::MakeSyntheticSpec(options);
    if (!spec.ok()) std::abort();
    out.emplace_back("S" + std::to_string(i), *spec);
  }
  return out;
}

std::vector<qmap::Query> Workload() {
  std::mt19937 rng(20260808);
  qmap::RandomQueryOptions options;
  options.num_attrs = 8;
  options.max_depth = 3;
  std::vector<qmap::Query> out;
  for (int i = 0; i < kDistinctQueries; ++i) {
    out.push_back(qmap::RandomQuery(rng, options));
  }
  return out;
}

qmap::ServiceOptions FrontEndOptions() {
  qmap::ServiceOptions options;
  options.num_threads = 8;
  options.enable_cache = false;  // measure the transport, not the cache
  return options;
}

/// Shape (a): the whole catalog behind explicit in-process transports, so
/// both shapes exercise the identical scatter/gather path and only the
/// transport differs. Shared by every client thread, like production.
qmap::TranslationService& InProcessFrontEnd() {
  static qmap::TranslationService* service = [] {
    auto* frontend = new qmap::TranslationService(FrontEndOptions());
    uint64_t fp = 1;
    for (auto& [name, spec] : Federation()) {
      frontend->AddRemoteSource(
          name, fp++,
          std::make_shared<qmap::InProcessTransport>(
              qmap::Translator(spec, qmap::TranslatorOptions{})));
    }
    return frontend;
  }();
  return *service;
}

/// A loopback shard worker and the front-end that scatters to it. Leaked on
/// purpose: benchmark threads may still reference it at static teardown.
struct RemoteFixture {
  std::shared_ptr<qmap::TranslationService> worker;
  std::unique_ptr<qmap::QmapServer> server;
  std::shared_ptr<qmap::WireClient> client;
  std::unique_ptr<qmap::TranslationService> frontend;
  /// 1 iff `frontend` renders byte-identically to the in-process front-end
  /// on every workload query.
  double identical = 0;
};

/// A cache-off front-end with every source of `worker` behind a
/// RemoteTransport to `endpoint` over `client`.
std::unique_ptr<qmap::TranslationService> RemoteFrontEnd(
    const qmap::TranslationService& worker, const std::string& endpoint,
    const std::shared_ptr<qmap::WireClient>& client) {
  auto frontend = std::make_unique<qmap::TranslationService>(FrontEndOptions());
  for (const auto& entry : worker.SourceCatalog()) {
    frontend->AddRemoteSource(
        entry.name, entry.rule_set_fp,
        std::make_shared<qmap::RemoteTransport>(entry.name, endpoint, client));
  }
  return frontend;
}

std::string Render(const qmap::MediatorTranslation& t) {
  std::string out;
  for (const auto& [name, translation] : t.per_source) {
    out += name + ": " + qmap::ToParseableText(translation.mapped) + " / " +
           qmap::ToParseableText(translation.filter) + "\n";
  }
  out += "F: " + qmap::ToParseableText(t.filter) + "\n";
  return out;
}

// 1 iff `remote` renders byte-identically to the in-process front-end on
// every workload query.
double TransportsIdentical(const qmap::TranslationService& remote) {
  for (const qmap::Query& q : Workload()) {
    auto a = InProcessFrontEnd().Translate(q);
    auto b = remote.Translate(q);
    if (!a.ok() || !b.ok() || Render(*a) != Render(*b)) return 0.0;
  }
  return 1.0;
}

RemoteFixture* MakeRemote(bool worker_cache) {
  auto* f = new RemoteFixture();
  qmap::ServiceOptions worker_options;
  worker_options.num_threads = 2;
  worker_options.enable_cache = worker_cache;
  f->worker = std::make_shared<qmap::TranslationService>(worker_options);
  for (auto& [name, spec] : Federation()) {
    f->worker->AddSource(name, spec);
  }
  qmap::QmapServerOptions server_options;
  server_options.poll_interval_ms = 5;
  f->server = std::make_unique<qmap::QmapServer>(server_options);
  f->server->SetService(f->worker);
  if (!f->server->Start().ok()) std::abort();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(f->server->port());
  f->client = std::make_shared<qmap::WireClient>();
  f->frontend = RemoteFrontEnd(*f->worker, endpoint, f->client);
  f->identical = TransportsIdentical(*f->frontend);
  return f;
}

RemoteFixture& Remote() {
  static RemoteFixture* fixture = MakeRemote(/*worker_cache=*/true);
  return *fixture;
}

RemoteFixture& RemoteUncached() {
  static RemoteFixture* fixture = MakeRemote(/*worker_cache=*/false);
  return *fixture;
}

// The wire counters of one pass of the workload, through a front-end of its
// own (cache off) so no other client's calls are counted, after one warm
// pass.
struct PassCounters {
  double rpcs_per_translate = 0;  // WireClient calls per Translate
  double inline_frac = 0;  // frames the worker answered on its loop thread
};

PassCounters MeasurePass(const RemoteFixture& fixture) {
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(fixture.server->port());
  auto client = std::make_shared<qmap::WireClient>();
  auto frontend = RemoteFrontEnd(*fixture.worker, endpoint, client);
  const std::vector<qmap::Query> workload = Workload();
  const auto pass = [&] {
    for (const qmap::Query& q : workload) {
      if (!frontend->Translate(q).ok()) return false;
    }
    return true;
  };
  if (!pass()) return {};
  const uint64_t calls_before = client->stats().calls;
  const qmap::QmapServerStats before = fixture.server->stats();
  if (!pass()) return {};
  const qmap::QmapServerStats after = fixture.server->stats();
  PassCounters out;
  out.rpcs_per_translate =
      static_cast<double>(client->stats().calls - calls_before) /
      static_cast<double>(workload.size());
  out.inline_frac =
      static_cast<double>(after.answered_inline - before.answered_inline) /
      static_cast<double>(std::max<uint64_t>(1, after.requests - before.requests));
  return out;
}

double PercentileUs(std::vector<double>& samples_us, double p) {
  if (samples_us.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * static_cast<double>(samples_us.size() - 1));
  std::nth_element(samples_us.begin(),
                   samples_us.begin() + static_cast<ptrdiff_t>(index),
                   samples_us.end());
  return samples_us[index];
}

/// Shared timed loop: each benchmark thread is one client hammering the
/// given front-end; per-call latency is sampled thread-locally and reported
/// as p50/p99 counters averaged across threads.
void RunClients(benchmark::State& state, qmap::TranslationService& frontend,
                double identical) {
  std::vector<qmap::Query> workload = Workload();
  std::vector<double> samples_us;
  samples_us.reserve(1 << 14);
  size_t next = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    qmap::Result<qmap::MediatorTranslation> t =
        frontend.Translate(workload[next++ % workload.size()]);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(t);
    if (!t.ok()) state.SkipWithError("translate failed");
    if (samples_us.size() < samples_us.capacity()) {
      samples_us.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["p50_us"] = benchmark::Counter(
      PercentileUs(samples_us, 0.50), benchmark::Counter::kAvgThreads);
  state.counters["p99_us"] = benchmark::Counter(
      PercentileUs(samples_us, 0.99), benchmark::Counter::kAvgThreads);
  state.counters["identical"] =
      benchmark::Counter(identical, benchmark::Counter::kAvgThreads);
}

void FederatedTranslate_InProcess(benchmark::State& state) {
  RunClients(state, InProcessFrontEnd(), Remote().identical);
}
BENCHMARK(FederatedTranslate_InProcess)
    ->Threads(1)
    ->Threads(8)
    ->Threads(64)
    ->UseRealTime();

void ReportPass(benchmark::State& state, const PassCounters& pass) {
  state.counters["rpcs_per_translate"] = benchmark::Counter(
      pass.rpcs_per_translate, benchmark::Counter::kAvgThreads);
  state.counters["inline_frac"] =
      benchmark::Counter(pass.inline_frac, benchmark::Counter::kAvgThreads);
}

void FederatedTranslate_RemoteLoopback(benchmark::State& state) {
  static const PassCounters pass = MeasurePass(Remote());
  RunClients(state, *Remote().frontend, Remote().identical);
  ReportPass(state, pass);
}
BENCHMARK(FederatedTranslate_RemoteLoopback)
    ->Threads(1)
    ->Threads(8)
    ->Threads(64)
    ->UseRealTime();

// The miss path: the worker's cache is off, so each frame goes to its pool
// and each source is translated on every call.
void FederatedTranslate_RemoteLoopbackUncached(benchmark::State& state) {
  static const PassCounters pass = MeasurePass(RemoteUncached());
  RunClients(state, *RemoteUncached().frontend, RemoteUncached().identical);
  ReportPass(state, pass);
}
BENCHMARK(FederatedTranslate_RemoteLoopbackUncached)->Threads(1)->UseRealTime();

// The wire floor: one pooled connection, one 20-byte-header frame each way,
// no translation work behind it.
void WireCall_CatalogRoundTrip(benchmark::State& state) {
  RemoteFixture& fixture = Remote();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(fixture.server->port());
  qmap::WireClient client;
  for (auto _ : state) {
    auto reply = client.Call(endpoint, qmap::FrameType::kCatalogRequest, "");
    benchmark::DoNotOptimize(reply);
    if (!reply.ok()) state.SkipWithError("catalog call failed");
  }
  state.SetItemsProcessed(state.iterations());
  qmap::WireClientStats stats = client.stats();
  state.counters["reuse_frac"] =
      stats.calls > 0
          ? static_cast<double>(stats.reuses) / static_cast<double>(stats.calls)
          : 0.0;
}
BENCHMARK(WireCall_CatalogRoundTrip);

}  // namespace

#include "bench_util.h"

QMAP_BENCH_MAIN(bench_federation)
