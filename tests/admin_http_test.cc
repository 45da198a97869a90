// Integration tests for the admin/introspection plane: a real
// AdminHttpServer on an ephemeral port, exercised over real sockets — both
// standalone and mounted on a TranslationService with metrics, slow-query
// log and trace ring all wired up.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "qmap/common/version.h"
#include "qmap/contexts/faculty.h"
#include "qmap/expr/intern.h"
#include "qmap/obs/admin_http.h"
#include "qmap/obs/json.h"
#include "qmap/obs/metrics.h"
#include "qmap/service/translation_service.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

// ---------------------------------------------------------------------------
// A tiny blocking HTTP client (the server is Connection: close, so "read
// until EOF" is the whole protocol).

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

int ConnectTo(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

HttpResponse Fetch(uint16_t port, const std::string& raw_request) {
  HttpResponse out;
  int fd = ConnectTo(port);
  if (fd < 0) return out;
  size_t sent = 0;
  while (sent < raw_request.size()) {
    ssize_t n = send(fd, raw_request.data() + sent, raw_request.size() - sent,
                     MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  while (true) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  close(fd);

  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return out;
  out.body = raw.substr(head_end + 4);
  std::string head = raw.substr(0, head_end);
  size_t line_end = head.find("\r\n");
  std::string status_line = head.substr(0, line_end);
  // "HTTP/1.1 200 OK"
  size_t sp = status_line.find(' ');
  if (sp != std::string::npos) out.status = std::atoi(&status_line[sp + 1]);
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    std::string line = head.substr(pos, eol - pos);
    size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      out.headers[line.substr(0, colon)] = line.substr(colon + 2);
    }
    pos = eol + 2;
  }
  return out;
}

HttpResponse Get(uint16_t port, const std::string& target) {
  return Fetch(port, "GET " + target +
                         " HTTP/1.1\r\nHost: localhost\r\nConnection: "
                         "close\r\n\r\n");
}

// ---------------------------------------------------------------------------
// Prometheus exposition checks (mirrors tools/check_metrics_exposition.py)

struct HistogramSeries {
  std::vector<uint64_t> bucket_counts;  // in emission order, excluding +Inf
  uint64_t inf = 0;
  uint64_t count = 0;
  bool saw_inf = false;
  bool saw_count = false;
};

std::map<std::string, HistogramSeries> ParseHistograms(
    const std::string& exposition) {
  std::map<std::string, HistogramSeries> out;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    uint64_t value = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    std::string series = line.substr(0, space);
    size_t bucket_pos = series.find("_bucket{le=\"");
    if (bucket_pos != std::string::npos) {
      std::string name = series.substr(0, bucket_pos);
      if (series.find("+Inf") != std::string::npos) {
        out[name].inf = value;
        out[name].saw_inf = true;
      } else {
        out[name].bucket_counts.push_back(value);
      }
      continue;
    }
    if (series.size() > 6 && series.compare(series.size() - 6, 6, "_count") == 0 &&
        out.count(series.substr(0, series.size() - 6)) > 0) {
      out[series.substr(0, series.size() - 6)].count = value;
      out[series.substr(0, series.size() - 6)].saw_count = true;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Standalone server behaviour

TEST(AdminHttp, ServesRegisteredHandlersAndRejectsTheRest) {
  AdminHttpServer server;  // defaults: 127.0.0.1, ephemeral port
  server.Handle("/hello", [](std::string_view query) {
    AdminResponse response;
    response.body = "hi " + std::string(query);
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  HttpResponse ok = Get(server.port(), "/hello?name=x");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "hi name=x");
  EXPECT_EQ(ok.headers["Content-Length"], std::to_string(ok.body.size()));
  EXPECT_EQ(ok.headers["Connection"], "close");

  EXPECT_EQ(Get(server.port(), "/nope").status, 404);
  HttpResponse post = Fetch(
      server.port(), "POST /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(post.status, 405);

  // HEAD gets headers (with the body's length) but no body.
  HttpResponse head =
      Fetch(server.port(), "HEAD /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(head.status, 200);
  EXPECT_EQ(head.headers["Content-Length"], "3");  // "hi "
  EXPECT_TRUE(head.body.empty());

  AdminHttpStats stats = server.stats();
  EXPECT_GE(stats.accepted, 4u);
  EXPECT_GE(stats.served, 4u);
  EXPECT_EQ(stats.not_found, 1u);
  EXPECT_EQ(stats.bad_requests, 1u);  // the POST
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(AdminHttp, OversizedRequestsGet431) {
  AdminHttpOptions options;
  options.max_request_bytes = 256;
  AdminHttpServer server(options);
  server.Handle("/x", [](std::string_view) { return AdminResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  std::string request = "GET /x HTTP/1.1\r\nX-Padding: " +
                        std::string(1024, 'a') + "\r\n\r\n";
  EXPECT_EQ(Fetch(server.port(), request).status, 431);
  EXPECT_EQ(server.stats().bad_requests, 1u);
}

TEST(AdminHttp, ConnectionsBeyondTheBoundAreRejected) {
  AdminHttpOptions options;
  options.max_connections = 1;
  AdminHttpServer server(options);
  server.Handle("/x", [](std::string_view) { return AdminResponse{}; });
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single slot with an idle connection.
  int held = ConnectTo(server.port());
  ASSERT_GE(held, 0);
  for (int i = 0; i < 500 && server.stats().accepted < 1; ++i) usleep(2000);
  ASSERT_EQ(server.stats().accepted, 1u);

  // Queue two more: the listener is not polled while the plane is full, so
  // both sit in the kernel backlog.
  int queued = ConnectTo(server.port());
  int excess = ConnectTo(server.port());
  ASSERT_GE(queued, 0);
  ASSERT_GE(excess, 0);

  // Free the slot. The next accept drain finds both backlogged connections:
  // the first fills the slot, the second is accepted-and-closed.
  close(held);
  for (int i = 0; i < 500 && server.stats().rejected_connections < 1; ++i) {
    usleep(2000);
  }
  EXPECT_EQ(server.stats().rejected_connections, 1u);
  EXPECT_EQ(server.stats().accepted, 2u);
  close(queued);
  close(excess);
}

TEST(AdminHttp, StartFailsOnABadAddressAndStopIsIdempotent) {
  AdminHttpOptions options;
  options.bind_address = "not-an-address";
  AdminHttpServer server(options);
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
  server.Stop();
}

// ---------------------------------------------------------------------------
// The full service plane: all seven endpoints over real sockets

class ServiceAdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions options;
    options.num_threads = 2;
    options.obs.metrics = &registry_;
    options.obs.slow_query.enabled = true;
    options.obs.slow_query.latency_threshold_us = 0;  // capture everything
    options.obs.trace_ring.enabled = true;
    options.obs.trace_ring.sample_every = 1;  // retain every query's trace
    service_ = std::make_unique<TranslationService>(options);
    service_->AddSourcesFrom(MakeFacultyMediator());
    ASSERT_TRUE(service_->StartAdmin().ok());
    port_ = service_->admin_server()->port();
    ASSERT_NE(port_, 0);
    ASSERT_TRUE(service_
                    ->Translate(Q("[fac.dept = \"cs\"] and "
                                  "[fac.bib contains \"mining\"]"))
                    .ok());
    ASSERT_TRUE(service_->Translate(Q("[fac.dept = \"ee\"]")).ok());
  }

  MetricsRegistry registry_;
  std::unique_ptr<TranslationService> service_;
  uint16_t port_ = 0;
};

TEST_F(ServiceAdminTest, HealthAndReadiness) {
  HttpResponse health = Get(port_, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  HttpResponse ready = Get(port_, "/readyz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ready\n");
}

TEST_F(ServiceAdminTest, DrainzFlipsReadinessAndFiresTheHook) {
  // A second service on its own port, so draining it cannot leak into the
  // fixture's other expectations.
  ServiceOptions options;
  options.num_threads = 1;
  auto service = std::make_unique<TranslationService>(options);
  service->AddSourcesFrom(MakeFacultyMediator());
  int drain_hooks = 0;
  AdminOptions admin;
  admin.on_drain = [&drain_hooks] { ++drain_hooks; };
  ASSERT_TRUE(service->StartAdmin(admin).ok());
  const uint16_t port = service->admin_server()->port();

  EXPECT_EQ(Get(port, "/readyz").status, 200);
  EXPECT_FALSE(service->draining());

  HttpResponse drain = Get(port, "/drainz");
  EXPECT_EQ(drain.status, 200);
  EXPECT_EQ(drain.body, "draining\n");
  EXPECT_TRUE(service->draining());
  EXPECT_EQ(drain_hooks, 1);

  // Readiness now steers load balancers away; health (liveness) stays ok,
  // and the admin plane keeps serving throughout the drain.
  HttpResponse ready = Get(port, "/readyz");
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("draining"), std::string::npos);
  EXPECT_EQ(Get(port, "/healthz").status, 200);
  HttpResponse varz = Get(port, "/varz");
  ASSERT_EQ(varz.status, 200);
  Result<JsonValue> root = ParseJson(varz.body);
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->Find("status")->Find("draining")->boolean);
  EXPECT_FALSE(root->Find("status")->Find("ready")->boolean);

  // Draining is idempotent; the hook fires on each request.
  EXPECT_EQ(Get(port, "/drainz").status, 200);
  EXPECT_TRUE(service->draining());

  // In-flight work still completes while draining (the drain gate is the
  // embedding server's accept loop, not the translation path).
  EXPECT_TRUE(service->Translate(Q("[fac.dept = \"cs\"]")).ok());
}

TEST_F(ServiceAdminTest, ExtraHandlersAreServedFromTheAdminPort) {
  ServiceOptions options;
  options.num_threads = 1;
  auto service = std::make_unique<TranslationService>(options);
  service->AddSourcesFrom(MakeFacultyMediator());
  AdminOptions admin;
  admin.extra_handlers.emplace_back("/rpcz", [](std::string_view) {
    AdminResponse response;
    response.content_type = "application/json";
    response.body = "{\"rpc\":true}\n";
    return response;
  });
  ASSERT_TRUE(service->StartAdmin(admin).ok());
  const uint16_t port = service->admin_server()->port();
  HttpResponse rpcz = Get(port, "/rpcz");
  EXPECT_EQ(rpcz.status, 200);
  EXPECT_EQ(rpcz.body, "{\"rpc\":true}\n");
}

TEST_F(ServiceAdminTest, VarzIsParseableJsonWithStatusAndMetrics) {
  HttpResponse varz = Get(port_, "/varz");
  ASSERT_EQ(varz.status, 200);
  EXPECT_NE(varz.headers["Content-Type"].find("application/json"),
            std::string::npos);
  Result<JsonValue> root = ParseJson(varz.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << varz.body;
  const JsonValue* status = root->Find("status");
  ASSERT_NE(status, nullptr);
  ASSERT_NE(status->Find("ready"), nullptr);
  EXPECT_TRUE(status->Find("ready")->boolean);
  EXPECT_EQ(status->Find("version")->string, kQmapVersion);
  EXPECT_EQ(status->Find("service")->Find("translate_calls")->number, 2u);
  ASSERT_NE(status->Find("sources"), nullptr);
  EXPECT_EQ(status->Find("sources")->array.size(), service_->num_sources());
  const JsonValue* metrics = root->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->Find("counters"), nullptr);
  ASSERT_NE(metrics->Find("gauges"), nullptr);
  // The point-in-time gauges were refreshed by the handler.
  EXPECT_NE(metrics->Find("gauges")->Find("qmap_cache_entries"), nullptr);
}

TEST_F(ServiceAdminTest, VarzReportsTheResidentInternTableSizes) {
  // The cached translations keep interned nodes alive, so both tables hold
  // entries; neither gauge can exceed what was ever inserted.
  HttpResponse varz = Get(port_, "/varz");
  ASSERT_EQ(varz.status, 200);
  Result<JsonValue> root = ParseJson(varz.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << varz.body;
  const JsonValue* gauges = root->Find("metrics")->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const InternStats stats = QueryInternStats();
  const JsonValue* query_live = gauges->Find("qmap_intern_query_nodes_live");
  ASSERT_NE(query_live, nullptr);
  EXPECT_GT(query_live->number, 0u);
  EXPECT_LE(query_live->number, stats.query_nodes);
  const JsonValue* constraint_live =
      gauges->Find("qmap_intern_constraint_nodes_live");
  ASSERT_NE(constraint_live, nullptr);
  EXPECT_GT(constraint_live->number, 0u);
  EXPECT_LE(constraint_live->number, stats.constraint_nodes);
}

TEST_F(ServiceAdminTest, MetricsExpositionIsMonotoneWithInfEqualToCount) {
  HttpResponse metrics = Get(port_, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers["Content-Type"].find("version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("qmap_build_info{version=\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("qmap_translate_total 2"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE qmap_pool_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# HELP qmap_translate_latency_us"),
            std::string::npos);

  std::map<std::string, HistogramSeries> histograms =
      ParseHistograms(metrics.body);
  ASSERT_GT(histograms.count("qmap_translate_latency_us"), 0u);
  for (const auto& [name, series] : histograms) {
    ASSERT_TRUE(series.saw_inf) << name;
    ASSERT_TRUE(series.saw_count) << name;
    uint64_t previous = 0;
    for (uint64_t cumulative : series.bucket_counts) {
      EXPECT_GE(cumulative, previous) << name << " buckets not monotone";
      previous = cumulative;
    }
    EXPECT_GE(series.inf, previous) << name;
    EXPECT_EQ(series.inf, series.count) << name << " +Inf != _count";
  }
}

TEST_F(ServiceAdminTest, StatuszShowsThePerSourceScoreboard) {
  HttpResponse statusz = Get(port_, "/statusz");
  ASSERT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("qmap translation service"), std::string::npos);
  EXPECT_NE(statusz.body.find("ready: yes"), std::string::npos);
  EXPECT_NE(statusz.body.find("source scoreboard:"), std::string::npos);
  EXPECT_NE(statusz.body.find("closed"), std::string::npos);
  ServiceStatus snapshot = service_->StatusSnapshot();
  for (const SourceStatus& source : snapshot.sources) {
    EXPECT_NE(statusz.body.find(source.name), std::string::npos)
        << "scoreboard is missing " << source.name;
  }
}

TEST_F(ServiceAdminTest, TracezServesRetainedTracesAndResolvesExemplars) {
  HttpResponse tracez = Get(port_, "/tracez");
  ASSERT_EQ(tracez.status, 200);
  Result<JsonValue> root = ParseJson(tracez.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  // Both translated queries were retained. The slow-query log's threshold
  // of 0 classifies them as slow, which routes them to the guaranteed
  // outlier ring (outlier wins over head-sampling).
  const JsonValue* outliers = root->Find("outliers");
  ASSERT_NE(outliers, nullptr);
  ASSERT_EQ(outliers->array.size(), 2u);
  EXPECT_EQ(root->Find("stats")->Find("seen")->number, 2u);
  EXPECT_EQ(root->Find("stats")->Find("outliers")->number, 2u);

  // Look one trace up by id.
  std::string trace_id = outliers->array[0].Find("trace_id")->string;
  HttpResponse by_id = Get(port_, "/tracez?id=" + trace_id);
  ASSERT_EQ(by_id.status, 200);
  Result<JsonValue> trace = ParseJson(by_id.body);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->Find("trace_id")->string, trace_id);
  EXPECT_FALSE(trace->Find("spans")->array.empty());

  // Exemplar jump: find the occupied latency bucket, ask /tracez for it,
  // and get back a concrete retained trace for one of our queries.
  Histogram& latency = registry_.histogram("qmap_translate_latency_us");
  int bucket = -1;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (latency.exemplar(b) != 0) bucket = b;
  }
  ASSERT_GE(bucket, 0) << "no latency bucket carries an exemplar";
  uint64_t serial = latency.exemplar(bucket);
  HttpResponse by_bucket =
      Get(port_, "/tracez?bucket=" + std::to_string(bucket));
  ASSERT_EQ(by_bucket.status, 200) << by_bucket.body;
  Result<JsonValue> exemplar_trace = ParseJson(by_bucket.body);
  ASSERT_TRUE(exemplar_trace.ok());
  EXPECT_EQ(exemplar_trace->Find("trace_id")->string,
            "qt" + std::to_string(serial));
  EXPECT_FALSE(exemplar_trace->Find("spans")->array.empty());

  // Misses are explicit 404s.
  EXPECT_EQ(Get(port_, "/tracez?id=qt999999").status, 404);
  EXPECT_EQ(Get(port_, "/tracez?bucket=63").status, 404);
  EXPECT_EQ(Get(port_, "/tracez?bucket=bogus").status, 400);
}

TEST_F(ServiceAdminTest, SlowlogzSerializesTheRing) {
  HttpResponse slowlogz = Get(port_, "/slowlogz");
  ASSERT_EQ(slowlogz.status, 200);
  Result<JsonValue> root = ParseJson(slowlogz.body);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_EQ(root->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(root->array.size(), 2u);  // threshold 0 captured both queries
  const JsonValue& entry = root->array[0];
  EXPECT_NE(entry.Find("query")->string.find("fac.dept"), std::string::npos);
  ASSERT_NE(entry.Find("trace"), nullptr);
  EXPECT_FALSE(entry.Find("trace")->Find("spans")->array.empty());
}

TEST_F(ServiceAdminTest, StopAdminClosesThePort) {
  service_->StopAdmin();
  EXPECT_EQ(service_->admin_server(), nullptr);
  EXPECT_EQ(Get(port_, "/healthz").status, 0);  // connection refused
  // A second StartAdmin brings the plane back (possibly on a new port).
  ASSERT_TRUE(service_->StartAdmin().ok());
  EXPECT_EQ(Get(service_->admin_server()->port(), "/healthz").status, 200);
}

}  // namespace
}  // namespace qmap
