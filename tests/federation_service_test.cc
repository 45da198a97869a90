// End-to-end federation tests: the same queries translated through three
// shapes of the same catalog — (a) one single-process service, (b) a
// front-end whose sources sit behind explicit in-process transports, and
// (c) a front-end scattering to real QmapServer shard workers over the wire
// protocol — must produce byte-identical translations. Killing a worker
// mid-batch must compose the same partial result as a tripped breaker.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/expr/printer.h"
#include "qmap/service/fault_injection.h"
#include "qmap/service/source_transport.h"
#include "qmap/service/translation_service.h"
#include "qmap/wire/messages.h"
#include "qmap/wire/qmap_server.h"
#include "qmap/wire/remote_transport.h"
#include "qmap/wire/wire_client.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

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

std::string Render(const MediatorTranslation& t) {
  std::string out;
  for (const auto& [name, translation] : t.per_source) {
    out += name + ": " + ToParseableText(translation.mapped) + " / " +
           ToParseableText(translation.filter) + "\n";
  }
  out += "F: " + ToParseableText(t.filter) + "\n";
  return out;
}

std::vector<Query> TestQueries(int count) {
  std::mt19937 rng(20260808);
  RandomQueryOptions options;
  options.num_attrs = 8;
  options.max_depth = 3;
  std::vector<Query> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(RandomQuery(rng, options));
  return out;
}

ServiceOptions BaseServiceOptions() {
  ServiceOptions options;
  options.num_threads = 2;
  return options;
}

/// Shape (a): every source registered locally, translated in-process.
std::unique_ptr<TranslationService> SingleProcessService() {
  auto service = std::make_unique<TranslationService>(BaseServiceOptions());
  for (auto& [name, spec] : SyntheticFederation()) {
    service->AddSource(name, spec);
  }
  return service;
}

/// One shard worker serving a subset of the federation's sources.
struct Worker {
  std::shared_ptr<TranslationService> service;
  std::unique_ptr<QmapServer> server;
  std::string endpoint;
};

Worker StartWorker(const std::vector<std::pair<std::string, MappingSpec>>&
                       sources,
                   FaultInjector* injector = nullptr) {
  Worker worker;
  ServiceOptions options;
  options.num_threads = 1;
  options.fault_injector = injector;
  worker.service = std::make_shared<TranslationService>(options);
  for (const auto& [name, spec] : sources) {
    worker.service->AddSource(name, spec);
  }
  QmapServerOptions server_options;
  server_options.poll_interval_ms = 5;
  worker.server = std::make_unique<QmapServer>(server_options);
  worker.server->SetService(worker.service);
  EXPECT_TRUE(worker.server->Start().ok());
  worker.endpoint = "127.0.0.1:" + std::to_string(worker.server->port());
  return worker;
}

/// Front-end for shape (c): every source is fetched from its worker's
/// catalog and registered behind a RemoteTransport.
std::unique_ptr<TranslationService> RemoteFrontEnd(
    const std::vector<Worker*>& workers,
    const std::shared_ptr<WireClient>& client,
    ServiceOptions options = BaseServiceOptions()) {
  auto frontend = std::make_unique<TranslationService>(options);
  for (Worker* worker : workers) {
    auto reply =
        client->Call(worker->endpoint, FrameType::kCatalogRequest, "");
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    auto catalog = DecodeCatalogResponse(reply->second);
    EXPECT_TRUE(catalog.ok());
    for (const CatalogEntry& entry : catalog->sources) {
      frontend->AddRemoteSource(
          entry.name, entry.rule_set_fp,
          std::make_shared<RemoteTransport>(entry.name, worker->endpoint,
                                            client));
    }
  }
  return frontend;
}

TEST(FederationService, ThreeShapesTranslateByteIdentically) {
  auto federation = SyntheticFederation();
  auto single = SingleProcessService();

  // Shape (b): the same catalog behind explicit InProcessTransports, with
  // the fingerprints shape (a) advertises.
  auto via_transports =
      std::make_unique<TranslationService>(BaseServiceOptions());
  {
    auto catalog = single->SourceCatalog();
    ASSERT_EQ(catalog.size(), federation.size());
    for (size_t i = 0; i < federation.size(); ++i) {
      ASSERT_EQ(catalog[i].name, federation[i].first);
      via_transports->AddRemoteSource(
          federation[i].first, catalog[i].rule_set_fp,
          std::make_shared<InProcessTransport>(
              Translator(federation[i].second, TranslatorOptions{})));
    }
  }

  // Shape (c): two real shard workers, sources assigned round-robin.
  std::vector<std::pair<std::string, MappingSpec>> shard0, shard1;
  for (size_t i = 0; i < federation.size(); ++i) {
    (i % 2 == 0 ? shard0 : shard1).push_back(federation[i]);
  }
  ASSERT_FALSE(shard0.empty());
  ASSERT_FALSE(shard1.empty());
  Worker worker0 = StartWorker(shard0);
  Worker worker1 = StartWorker(shard1);
  auto client = std::make_shared<WireClient>();
  auto remote = RemoteFrontEnd({&worker0, &worker1}, client);
  ASSERT_EQ(remote->num_sources(), federation.size());

  for (const Query& query : TestQueries(10)) {
    Result<MediatorTranslation> a = single->Translate(query);
    Result<MediatorTranslation> b = via_transports->Translate(query);
    Result<MediatorTranslation> c = remote->Translate(query);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    const std::string want = Render(*a);
    EXPECT_EQ(Render(*b), want) << ToParseableText(query);
    EXPECT_EQ(Render(*c), want) << ToParseableText(query);
    EXPECT_TRUE(c->partial.complete());
  }

  worker0.server->Stop();
  worker1.server->Stop();
}

TEST(FederationService, OneRoundTripPerWorkerPerRequest) {
  // Four sources on two workers, front-end cache off: every Translate sends
  // each worker one frame listing its sources, not one frame per source.
  auto federation = SyntheticFederation();
  auto single = SingleProcessService();
  std::vector<std::pair<std::string, MappingSpec>> shard0(
      federation.begin(), federation.begin() + 2);
  std::vector<std::pair<std::string, MappingSpec>> shard1(
      federation.begin() + 2, federation.end());
  Worker worker0 = StartWorker(shard0);
  Worker worker1 = StartWorker(shard1);
  auto client = std::make_shared<WireClient>();
  ServiceOptions options = BaseServiceOptions();
  options.enable_cache = false;
  auto frontend = RemoteFrontEnd({&worker0, &worker1}, client, options);

  for (const Query& query : TestQueries(10)) {
    const uint64_t calls_before = client->stats().calls;
    Result<MediatorTranslation> got = frontend->Translate(query);
    Result<MediatorTranslation> want = single->Translate(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(client->stats().calls - calls_before, 2u)
        << ToParseableText(query);
    EXPECT_EQ(Render(*got), Render(*want)) << ToParseableText(query);
  }
  EXPECT_EQ(worker0.server->stats().responses_ok, 2u * 10);
  EXPECT_EQ(worker1.server->stats().responses_ok, 2u * 10);

  worker0.server->Stop();
  worker1.server->Stop();
}

TEST(FederationService, FailedSourceOnAWorkerLeavesItsBatchMatesIntact) {
  // S1 fails on its worker (a worker-side fault) for good. It shares a
  // frame with S0; S2 and S3 sit on the other worker. The answer drops S1
  // alone, every survivor is byte-identical to the single-process service,
  // and F is the F of a federation that never had S1.
  auto federation = SyntheticFederation();
  std::vector<std::pair<std::string, MappingSpec>> shard0(
      federation.begin(), federation.begin() + 2);
  std::vector<std::pair<std::string, MappingSpec>> shard1(
      federation.begin() + 2, federation.end());
  FaultInjector worker_faults(11);
  worker_faults.FailNext("S1", 1 << 20);
  Worker worker0 = StartWorker(shard0, &worker_faults);
  Worker worker1 = StartWorker(shard1);
  auto client = std::make_shared<WireClient>();
  ServiceOptions options = BaseServiceOptions();
  options.enable_cache = false;
  options.resilience.enabled = true;
  options.resilience.retry.max_attempts = 2;
  options.resilience.retry.initial_backoff_us = 100;
  options.resilience.retry.max_backoff_us = 100;
  auto frontend = RemoteFrontEnd({&worker0, &worker1}, client, options);

  auto survivors = std::make_unique<TranslationService>(BaseServiceOptions());
  for (const auto& [name, spec] : federation) {
    if (name != "S1") survivors->AddSource(name, spec);
  }

  // Three queries: S1's six failures stay under the front-end breaker's
  // eight-sample minimum, so every query retries it.
  for (const Query& query : TestQueries(3)) {
    const uint64_t calls_before = client->stats().calls;
    Result<MediatorTranslation> got = frontend->Translate(query);
    Result<MediatorTranslation> want = survivors->Translate(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got->partial.failed.size(), 1u);
    EXPECT_EQ(got->partial.failed[0].source, "S1");
    EXPECT_EQ(got->partial.failed[0].status.code(), StatusCode::kUnavailable)
        << got->partial.failed[0].status.ToString();
    EXPECT_EQ(got->partial.failed[0].attempts, 2u);
    EXPECT_EQ(Render(*got), Render(*want)) << ToParseableText(query);
    // One frame per worker, then the retry re-sends S1 alone.
    EXPECT_EQ(client->stats().calls - calls_before, 3u);
  }

  worker0.server->Stop();
  worker1.server->Stop();
}

/// A breaker-open stand-in: fails every call the way an open circuit
/// breaker's fast-fail does.
class DownTransport : public SourceTransport {
 public:
  Result<Translation> Translate(const Query&, Trace*, uint64_t,
                                const CancelToken*) override {
    return Status::Unavailable("connection refused");
  }
  std::string endpoint() const override { return "127.0.0.1:1"; }
};

TEST(FederationService, DeadWorkerDegradesLikeATrippedBreaker) {
  auto federation = SyntheticFederation();
  std::vector<std::pair<std::string, MappingSpec>> shard0(
      federation.begin(), federation.begin() + 2);
  std::vector<std::pair<std::string, MappingSpec>> shard1(
      federation.begin() + 2, federation.end());
  Worker worker0 = StartWorker(shard0);
  Worker worker1 = StartWorker(shard1);
  auto client = std::make_shared<WireClient>();

  ServiceOptions options = BaseServiceOptions();
  options.enable_cache = false;  // every query hits the transports
  options.resilience.enabled = true;
  options.resilience.retry.max_attempts = 1;  // deterministic, fast failure
  auto frontend = RemoteFrontEnd({&worker0, &worker1}, client, options);

  const std::vector<Query> queries = TestQueries(6);

  // Batch first half with both workers up: complete results.
  for (int i = 0; i < 3; ++i) {
    Result<MediatorTranslation> r = frontend->Translate(queries[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->partial.complete());
  }

  // Kill worker1 mid-batch.
  worker1.server->Stop();

  // The reference composition: the same catalog where worker1's sources sit
  // behind an open breaker (fast Unavailable), worker0's translated locally.
  ServiceOptions reference_options = options;
  auto reference = std::make_unique<TranslationService>(reference_options);
  {
    auto catalog0 = worker0.service->SourceCatalog();
    for (size_t i = 0; i < shard0.size(); ++i) {
      reference->AddRemoteSource(
          catalog0[i].name, catalog0[i].rule_set_fp,
          std::make_shared<InProcessTransport>(
              Translator(shard0[i].second, TranslatorOptions{})));
    }
    auto catalog1 = worker1.service->SourceCatalog();
    for (const auto& entry : catalog1) {
      reference->AddRemoteSource(entry.name, entry.rule_set_fp,
                                 std::make_shared<DownTransport>());
    }
  }

  for (int i = 3; i < 6; ++i) {
    Result<MediatorTranslation> got = frontend->Translate(queries[i]);
    Result<MediatorTranslation> want = reference->Translate(queries[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    // Same surviving per-source translations, same recomputed residue
    // filter, same dropped-source list.
    EXPECT_EQ(Render(*got), Render(*want)) << ToParseableText(queries[i]);
    ASSERT_EQ(got->partial.failed.size(), want->partial.failed.size());
    for (size_t f = 0; f < got->partial.failed.size(); ++f) {
      EXPECT_EQ(got->partial.failed[f].source, want->partial.failed[f].source);
    }
    // Exactly the dead worker's sources are the ones dropped.
    std::vector<std::string> dropped;
    for (const auto& failure : got->partial.failed) {
      dropped.push_back(failure.source);
      EXPECT_EQ(failure.status.code(), StatusCode::kUnavailable)
          << failure.status.ToString();
    }
    std::vector<std::string> want_dropped;
    for (const auto& [name, spec] : shard1) want_dropped.push_back(name);
    EXPECT_EQ(dropped, want_dropped);
  }

  worker0.server->Stop();
}

}  // namespace
}  // namespace qmap
