// qmap end-to-end benchmark program: builds the benchmark federation for one
// workload, drives it with closed-loop clients for a fixed time, checks
// every response (a seeded sample on `cold`) against the serial reference,
// and prints one JSON result line. See README.md for the workloads, the
// metrics and how they relate. Normally started through run.py, which
// builds this binary first:
//
//   qmap_e2e --workload hot|cold|remote --seed N --seconds S --trace 0
//            --tmp-dir DIR [--out-dir DIR]
//   qmap_e2e_traced ... --trace 1     (per-layer metrics)

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "check.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/parser.h"
#include "qmap/expr/printer.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/rules/rule_program.h"
#include "qmap/service/translation_service.h"
#include "qmap/wire/messages.h"
#include "qmap/wire/qmap_server.h"
#include "qmap/wire/remote_transport.h"
#include "qmap/wire/wire_client.h"
#include "trace_ledger.h"
#include "workload.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

// Two closed-loop clients: a mediator waits for the translation before it
// queries the sources, and the service's own pools need the other cores.
constexpr int kClients = 2;
constexpr size_t kHotSetSize = 100;
constexpr int kSetups = 7;
// One cold request in this many (per client, seeded) is checked.
constexpr uint64_t kColdSampleEvery = 64;
constexpr int kTuplesPerQuery = 64;
// Least share of requests whose translation reaches Disjunctivize or PSafe.
constexpr double kMinPsafeShare = 0.2;
constexpr size_t kRawTraces = 3;
// End-to-end timings are taken per one-second slice of the timed window
// and reported as the better decile over slices: interference from outside
// the process (other tenants of the host take vCPUs away for tens of
// seconds at a time) only ever slows a slice down, so the better decile
// tracks the program's own speed, while a change that slows every slice
// still shows in full. A slice's p99 counts only when the slice holds
// enough requests for ten samples beyond it.
constexpr double kSliceSeconds = 1.0;
constexpr size_t kMinP99Samples = 1000;
// rss_mb is the peak resident set once the window has completed this many
// requests: cold grows the never-evicted intern tables with every novel
// query, so an end-of-window reading would track throughput.
constexpr uint64_t kRssAtRequests = 10000;
// Latency buffer touched up front, so the benchmark's own bookkeeping adds
// the same resident memory to every run.
constexpr size_t kLatencyReserve = size_t{1} << 19;

enum class Workload { kHot, kCold, kRemote };

struct Args {
  Workload workload = Workload::kHot;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir;
  std::string out_dir;
  std::string git_revision = "unknown";
  std::string git_dirty = "unknown";
  size_t cache_capacity = qmap::TranslationCacheOptions{}.capacity;
  int64_t corrupt = -1;
  int dump_requests = 0;
};

[[noreturn]] void Fail(const std::string& reason) {
  std::fprintf(stderr, "qmap_e2e: %s\n", reason.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    const auto number = [&]() {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') Fail("bad number for " + flag);
      return v;
    };
    if (flag == "--workload") {
      have_workload = true;
      args.workload_name = value;
      if (value == "hot") {
        args.workload = Workload::kHot;
      } else if (value == "cold") {
        args.workload = Workload::kCold;
      } else if (value == "remote") {
        args.workload = Workload::kRemote;
      } else {
        Fail("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Fail("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = number();
    } else if (flag == "--trace") {
      args.trace = number() != 0;
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-revision") {
      args.git_revision = value;
    } else if (flag == "--git-dirty") {
      args.git_dirty = value;
    } else if (flag == "--cache-capacity") {
      args.cache_capacity = static_cast<size_t>(number());
    } else if (flag == "--corrupt") {
      args.corrupt = static_cast<int64_t>(number());
    } else if (flag == "--dump-requests") {
      args.dump_requests = static_cast<int>(number());
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (!have_workload) Fail("--workload is required");
  if (args.seconds <= 0) Fail("bad --seconds");
  if (args.dump_requests == 0 && args.tmp_dir.empty()) {
    Fail("--tmp-dir is required");
  }
  if (args.trace != AllocCounting()) {
    Fail(args.trace ? "traced runs need the qmap_e2e_traced binary"
                    : "untraced runs need the qmap_e2e binary");
  }
  return args;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// The system under test

struct System {
  // Teardown runs in reverse declaration order: the front-end service and
  // its transports first, then the client pool, the worker's server, the
  // worker service, and last the registries they all report into.
  std::unique_ptr<qmap::MetricsRegistry> worker_registry;
  std::unique_ptr<qmap::MetricsRegistry> frontend_registry;
  std::shared_ptr<qmap::TranslationService> worker;
  std::unique_ptr<qmap::QmapServer> server;
  std::shared_ptr<qmap::WireClient> client;
  std::unique_ptr<qmap::TranslationService> service;  // what clients call
  double compose_ms = 0;

  // The service whose cache the workload is about: the front-end's for
  // hot/cold, the worker's for remote (the front-end's cache is off).
  const qmap::TranslationService& cached() const {
    return worker != nullptr ? *worker : *service;
  }
};

qmap::Status RegisterFederation(qmap::TranslationService* service,
                                double* compose_ms) {
  auto specs = ParseSourceSpecs();
  if (!specs.ok()) return specs.status();
  auto hops = ParseChainHops();
  if (!hops.ok()) return hops.status();
  for (auto& [name, spec] : *specs) service->AddSource(name, std::move(spec));
  const auto start = Clock::now();
  qmap::Status chained = service->AddChain(kChainName, *hops);
  *compose_ms = Seconds(Clock::now() - start) * 1e3;
  return chained;
}

qmap::Result<System> BuildSystem(const Args& args,
                                 const std::string& store_dir) {
  System sys;
  qmap::ServiceOptions options;  // library defaults: 4 threads, RAM cache
  options.cache.capacity = args.cache_capacity;
  if (args.workload == Workload::kCold) options.store.path = store_dir;
  if (args.workload != Workload::kRemote) {
    sys.service = std::make_unique<qmap::TranslationService>(options);
    qmap::Status ok = RegisterFederation(sys.service.get(), &sys.compose_ms);
    if (!ok.ok()) return ok;
    if (!sys.service->store_open_status().ok()) {
      return sys.service->store_open_status();
    }
    if (args.workload == Workload::kCold && sys.service->store() == nullptr) {
      return qmap::Status::Internal("store did not open");
    }
    return sys;
  }

  // remote: a worker as in examples/federation_worker.cc ...
  sys.worker_registry = std::make_unique<qmap::MetricsRegistry>();
  qmap::ServiceOptions worker_options = options;
  worker_options.num_threads = 2;
  worker_options.obs.metrics = sys.worker_registry.get();
  sys.worker = std::make_shared<qmap::TranslationService>(worker_options);
  qmap::Status ok = RegisterFederation(sys.worker.get(), &sys.compose_ms);
  if (!ok.ok()) return ok;
  qmap::QmapServerOptions server_options;
  server_options.bind_address = "127.0.0.1";
  server_options.port = 0;
  server_options.metrics = sys.worker_registry.get();
  sys.server = std::make_unique<qmap::QmapServer>(server_options);
  sys.server->SetService(sys.worker);
  ok = sys.server->Start();
  if (!ok.ok()) return ok;

  // ... behind a front-end as in examples/federation_frontend.cc, except
  // that the front-end's RAM cache is off.
  sys.frontend_registry = std::make_unique<qmap::MetricsRegistry>();
  qmap::ServiceOptions frontend_options;
  frontend_options.num_threads = 4;
  frontend_options.enable_cache = false;
  frontend_options.obs.metrics = sys.frontend_registry.get();
  frontend_options.resilience.enabled = true;
  frontend_options.resilience.retry.max_attempts = 2;
  sys.service = std::make_unique<qmap::TranslationService>(frontend_options);
  sys.client = std::make_shared<qmap::WireClient>();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(sys.server->port());
  auto reply = sys.client->Call(endpoint, qmap::FrameType::kCatalogRequest, "");
  if (!reply.ok()) return reply.status();
  auto catalog = qmap::DecodeCatalogResponse(reply->second);
  if (!catalog.ok()) return catalog.status();
  qmap::RemoteTransportOptions transport_options;
  transport_options.metrics = sys.frontend_registry.get();
  for (const qmap::CatalogEntry& entry : catalog->sources) {
    sys.service->AddRemoteSource(
        entry.name, entry.rule_set_fp,
        std::make_shared<qmap::RemoteTransport>(entry.name, endpoint,
                                                sys.client, transport_options));
  }
  if (sys.service->num_sources() != SourceOptions().size() + 1) {
    return qmap::Status::Internal("worker catalog lists " +
                                  std::to_string(sys.service->num_sources()) +
                                  " sources");
  }
  return sys;
}

// The reference answer for one query of the hot set.
struct HotEntry {
  Digest reference;
  bool reaches_psafe = false;
};

// A complete, non-degraded translation, or the reason it is not.
std::string Problem(const qmap::Result<qmap::MediatorTranslation>& t) {
  if (!t.ok()) return "error: " + t.status().ToString();
  if (!t->partial.complete() || !t->partial.degraded.empty()) {
    return "partial: " + t->partial.ToString();
  }
  if (t->per_source.size() != SourceOptions().size() + 1) {
    return "answer covers " + std::to_string(t->per_source.size()) + " sources";
  }
  return "";
}

// Cold request nonces: disjoint ranges per set-up, window phase and client.
int64_t NonceBase(uint64_t range) { return static_cast<int64_t>(range << 40); }

qmap::Status WarmUp(const Args& args, const std::vector<std::string>& hot,
                    System& sys, int setup) {
  const auto translate = [&](const std::string& text) -> qmap::Status {
    qmap::Result<qmap::Query> query = qmap::ParseQuery(text);
    if (!query.ok()) return query.status();
    const std::string problem = Problem(sys.service->Translate(*query));
    return problem.empty() ? qmap::Status::Ok()
                           : qmap::Status::Internal("warm-up " + problem);
  };
  if (args.workload != Workload::kCold) {
    for (const std::string& text : hot) {
      qmap::Status ok = translate(text);
      if (!ok.ok()) return ok;
    }
    return qmap::Status::Ok();
  }
  // Fill the RAM cache to capacity with novel queries, so every timed
  // request evicts.
  RequestStream novel(args.seed, 0xC01D + static_cast<uint64_t>(setup), hot,
                      NonceBase(static_cast<uint64_t>(setup) + 1));
  const size_t limit = 20 * args.cache_capacity + 100;
  for (size_t k = 0; k < limit; ++k) {
    size_t unused = 0;
    qmap::Status ok = translate(novel.Next(&unused));
    if (!ok.ok()) return ok;
    if (k % 8 == 7 &&
        sys.service->StatusSnapshot().cache_entries >= args.cache_capacity) {
      return qmap::Status::Ok();
    }
  }
  return qmap::Status::Internal("warm-up did not fill the cache");
}

// ---------------------------------------------------------------------------
// Counters read around a timed window

struct Counters {
  qmap::ServiceStats front;
  qmap::ServiceStats cached;
  qmap::QmapServerStats server;
  qmap::WireClientStats client;
  qmap::InternStats intern;
  uint64_t allocs = 0;
  double cpu_s = 0;
};

Counters ReadCounters(const System& sys) {
  Counters c;
  c.front = sys.service->stats();
  c.cached = sys.cached().stats();
  if (sys.server != nullptr) c.server = sys.server->stats();
  if (sys.client != nullptr) c.client = sys.client->stats();
  c.intern = qmap::QueryInternStats();
  c.allocs = AllocCount();
  c.cpu_s = CpuSeconds();
  return c;
}

// ---------------------------------------------------------------------------
// Closed-loop clients

struct ColdSample {
  std::string text;
  qmap::MediatorTranslation response;
};

struct ClientResult {
  // Request latencies in completion order, and where each slice begins.
  std::vector<float> latency_ns;
  std::vector<size_t> slice_begin;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  // Per-response properties the workload guards check.
  uint64_t all_hit = 0;
  uint64_t evicting = 0;
  uint64_t repeats = 0;
  uint64_t psafe_reached = 0;
  qmap::TranslationStats merged;
  std::vector<uint64_t> hot_draws;
  std::vector<std::optional<qmap::MediatorTranslation>> hot_first;
  std::vector<ColdSample> samples;
  // Traced phase only.
  Ledger ledger;
  uint64_t out_nodes = 0;
  std::vector<std::pair<int64_t, std::string>> raw_traces;

  void Fail(const std::string& why) {
    if (failed++ == 0) first_failure = why;
  }
};

struct Window {
  std::vector<ClientResult> clients;
  double rss_mib = 0;
  Counters before;
  Counters after;
  double wall_s = 0;
  uint64_t completed = 0;
  // Process CPU seconds at each slice boundary.
  std::vector<double> slice_cpu_s;
  double slice_s = 0;
};

// Everything one client does per request besides the measured call. The
// direct layer calls and the trace fold run only when traced.
class Client {
 public:
  Client(const Args& args, System& sys, const std::vector<std::string>& texts,
         const std::vector<HotEntry>& hot, int id, uint64_t phase, bool traced,
         std::atomic<uint64_t>* done, double* rss_mib, ClientResult* out)
      : args_(args), sys_(sys), hot_(hot), id_(id), traced_(traced),
        done_(done), rss_mib_(rss_mib), out_(out),
        requests_(args.seed, phase * 64 + id, texts,
                  NonceBase(0x100 + phase * 64 + id)) {
    out_->latency_ns.resize(kLatencyReserve);
    out_->latency_ns.clear();
    out_->hot_draws.assign(hot.size(), 0);
    out_->hot_first.resize(hot.size());
  }

  void Run(Clock::time_point start, Clock::time_point deadline,
           Clock::duration slice) {
    start_ = start;
    slice_ = slice;
    for (uint64_t k = 0; Clock::now() < deadline; ++k) Once(k);
  }

 private:
  void Once(uint64_t k) {
    ++out_->attempted;
    size_t hot_index = 0;
    const std::string& text = requests_.Next(&hot_index);

    std::optional<qmap::Trace> trace;
    if (traced_) trace.emplace("e2e");
    qmap::Trace* tp = trace ? &*trace : nullptr;
    const auto t0 = Clock::now();
    qmap::Span request(tp, "e2e.request");
    qmap::Span parse(tp, "e2e.parse", request.id());
    qmap::Result<qmap::Query> query = qmap::ParseQuery(text);
    parse.End();
    if (!query.ok()) {
      out_->Fail("parse: " + query.status().ToString() + " in " + text);
      return;
    }
    qmap::Span translate(tp, "e2e.translate", request.id());
    qmap::Result<qmap::MediatorTranslation> result =
        sys_.service->Translate(*query, tp);
    translate.End();
    request.End();
    const auto t1 = Clock::now();
    const int64_t latency =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    const auto slice = static_cast<size_t>((t1 - start_) / slice_);
    while (out_->slice_begin.size() <= slice) {
      out_->slice_begin.push_back(out_->latency_ns.size());
    }
    out_->latency_ns.push_back(static_cast<float>(latency));
    if (done_->fetch_add(1, std::memory_order_relaxed) + 1 == kRssAtRequests) {
      *rss_mib_ = PeakRssMiB();
    }

    if (const std::string problem = Problem(result); !problem.empty()) {
      out_->Fail(problem + " for " + text);
      return;
    }
    Account(*result, hot_index, k, text);
    if (tp != nullptr) Traced(*tp, *query, *result, latency);
  }

  // Test hook (--corrupt K): client 0 alters the K-th response the gate
  // checks, which the gate must then catch.
  void MaybeCorrupt(qmap::MediatorTranslation& t) {
    if (id_ != 0 || static_cast<int64_t>(checked_++) != args_.corrupt) return;
    qmap::Query& mapped = t.per_source.begin()->second.mapped;
    mapped = mapped.is_true() ? *qmap::ParseQuery("[corrupted = 1]")
                              : qmap::Query::True();
  }

  void Account(qmap::MediatorTranslation& t, size_t hot_index, uint64_t k,
               const std::string& text) {
    const qmap::TranslationStats& s = t.stats;
    out_->merged.MergeFrom(s);
    out_->all_hit += s.cache_hits == t.per_source.size() ? 1 : 0;
    out_->evicting += s.cache_evictions > 0 ? 1 : 0;
    out_->repeats += s.cache_hits + s.store_hits > 0 ? 1 : 0;
    if (args_.workload == Workload::kCold) {
      out_->psafe_reached += s.psafe_calls + s.disjunctivize_calls > 0 ? 1 : 0;
      if (Mix(args_.seed ^ (0x5A3 + id_), k) % kColdSampleEvery == 0) {
        MaybeCorrupt(t);
        out_->samples.push_back({text, t});
      }
      return;
    }
    ++out_->hot_draws[hot_index];
    MaybeCorrupt(t);
    if (!Matches(t, hot_[hot_index].reference)) {
      out_->Fail("response differs from the reference for " + text);
      return;
    }
    if (!out_->hot_first[hot_index]) out_->hot_first[hot_index] = t;
  }

  void Traced(qmap::Trace& trace, const qmap::Query& query,
              const qmap::MediatorTranslation& t, int64_t latency) {
    out_->out_nodes += CountOutputNodes(t);
    {
      qmap::Span fold(&trace, "e2e.fold");
      qmap::RecordTraceMetrics(trace, &fold_registry_);
    }
    if (sys_.worker != nullptr) {
      for (const auto& [name, translation] : t.per_source) {
        {
          qmap::Span worker(&trace, "e2e.worker");
          qmap::Result<qmap::Translation> direct =
              sys_.worker->TranslateSource(name, query);
          if (!direct.ok()) out_->Fail("worker: " + direct.status().ToString());
        }
        qmap::Span codec(&trace, "e2e.codec");
        qmap::TranslateRequest request;
        request.request_id = 1;
        request.source = name;
        request.query_text = qmap::ToParseableText(query);
        auto decoded = qmap::DecodeTranslateRequest(
            qmap::EncodeTranslateRequest(request));
        qmap::TranslateResponse response;
        response.request_id = 1;
        response.ok = true;
        response.value = translation;
        auto back = qmap::DecodeTranslateResponse(
            qmap::EncodeTranslateResponse(response));
        if (!decoded.ok() || !back.ok() ||
            !qmap::ParseQuery(decoded->query_text).ok()) {
          out_->Fail("codec round trip failed for " + name);
        }
      }
    }
    out_->ledger.Add(trace.spans());
    if (id_ == 0) KeepRawTrace(trace, latency);
  }

  // Keeps the first traces and the slowest one.
  void KeepRawTrace(const qmap::Trace& trace, int64_t latency) {
    auto& kept = out_->raw_traces;
    if (kept.size() < kRawTraces) {
      kept.push_back({latency, trace.ToChromeTraceJson()});
    } else if (latency > kept.back().first) {
      kept.back() = {latency, trace.ToChromeTraceJson()};
    }
  }

  const Args& args_;
  System& sys_;
  const std::vector<HotEntry>& hot_;
  const int id_;
  const bool traced_;
  std::atomic<uint64_t>* done_;
  double* rss_mib_;  // written once, by the client completing request N
  ClientResult* out_;
  RequestStream requests_;
  uint64_t checked_ = 0;
  qmap::MetricsRegistry fold_registry_;
  Clock::time_point start_;
  Clock::duration slice_{};
};

Window RunWindow(const Args& args, System& sys,
                 const std::vector<std::string>& texts,
                 const std::vector<HotEntry>& hot, double seconds,
                 uint64_t phase, bool traced) {
  Window w;
  w.clients.resize(kClients);
  std::vector<std::unique_ptr<Client>> clients;
  std::atomic<uint64_t> done{0};
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(args, sys, texts, hot, c, phase,
                                               traced, &done, &w.rss_mib,
                                               &w.clients[c]));
  }
  // Whole slices only; a window shorter than two slices is one slice.
  const int num_slices =
      std::max(1, static_cast<int>(std::floor(seconds / kSliceSeconds)));
  w.slice_s = num_slices == 1 ? seconds : kSliceSeconds;
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      clients[c]->Run(start, start + to_duration(seconds),
                      to_duration(w.slice_s));
    });
  }
  w.before = ReadCounters(sys);
  start = Clock::now();
  go.store(true, std::memory_order_release);
  w.slice_cpu_s.push_back(w.before.cpu_s);
  for (int k = 1; k <= num_slices; ++k) {
    std::this_thread::sleep_until(start + to_duration(k * w.slice_s));
    w.slice_cpu_s.push_back(CpuSeconds());
  }
  for (std::thread& t : threads) t.join();
  const Clock::time_point end = Clock::now();
  for (const ClientResult& r : w.clients) w.completed += r.latency_ns.size();
  if (w.completed < kRssAtRequests) w.rss_mib = PeakRssMiB();
  w.after = ReadCounters(sys);
  w.wall_s = Seconds(end - start);
  return w;
}

// Per whole slice: requests completed, their p50 and p99 latency, and the
// process CPU spent.
struct SliceStats {
  std::vector<double> qps, p50_ns, p99_ns, cpu_ns_per_req;
};

double NearestRank(const std::vector<float>& sorted, double p) {
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(
      sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1]);
}

SliceStats Slices(const Window& w) {
  SliceStats out;
  std::vector<float> all;
  for (size_t s = 0; s + 1 < w.slice_cpu_s.size(); ++s) {
    std::vector<float> lat;
    for (const ClientResult& r : w.clients) {
      const size_t begin =
          s < r.slice_begin.size() ? r.slice_begin[s] : r.latency_ns.size();
      const size_t end = s + 1 < r.slice_begin.size() ? r.slice_begin[s + 1]
                                                      : r.latency_ns.size();
      lat.insert(lat.end(), r.latency_ns.begin() + begin,
                 r.latency_ns.begin() + end);
    }
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    const double n = static_cast<double>(lat.size());
    out.qps.push_back(n / w.slice_s);
    out.p50_ns.push_back(NearestRank(lat, 0.50));
    if (lat.size() >= kMinP99Samples) {
      out.p99_ns.push_back(NearestRank(lat, 0.99));
    }
    out.cpu_ns_per_req.push_back(
        (w.slice_cpu_s[s + 1] - w.slice_cpu_s[s]) * 1e9 / n);
    all.insert(all.end(), lat.begin(), lat.end());
  }
  if (out.p99_ns.empty() && !all.empty()) {
    // No slice is large enough: the whole window's p99 instead.
    std::sort(all.begin(), all.end());
    out.p99_ns.push_back(NearestRank(all, 0.99));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Json(metrics[i].name) + ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  return out + "}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank 90th percentile of `v` when higher is better, else 10th.
double BetterDecile(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double p = higher_is_better ? 0.9 : 0.1;
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // reasons the run is not correct

  void Problem(const std::string& why) { problems.push_back(why); }
};

// Post-window correctness: the cold sample against the reference, and the
// semantic check over every hot query or the cold sample.
SemanticTally CheckWindow(const Args& args,
                          const std::vector<std::string>& texts,
                          const qmap::Mediator& reference, Window& w,
                          Tally* tally) {
  SemanticTally semantic;
  uint64_t k = 0;
  if (args.workload == Workload::kCold) {
    for (ClientResult& r : w.clients) {
      for (const ColdSample& sample : r.samples) {
        qmap::Result<qmap::Query> query = qmap::ParseQuery(sample.text);
        qmap::Result<qmap::MediatorTranslation> expected =
            query.ok() ? reference.Translate(*query)
                       : qmap::Result<qmap::MediatorTranslation>(query.status());
        if (!expected.ok() ||
            DigestOf(*expected) != DigestOf(sample.response)) {
          r.Fail("response differs from the reference for " + sample.text);
          continue;
        }
        const uint64_t before = semantic.violations;
        CheckSemantics(*query, sample.response, Mix(args.seed, 0x7000 + k++),
                       kTuplesPerQuery, &semantic);
        if (semantic.violations != before) r.Fail(semantic.first_violation);
      }
    }
    return semantic;
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    const qmap::MediatorTranslation* seen = nullptr;
    for (const ClientResult& r : w.clients) {
      if (r.hot_first[i]) seen = &*r.hot_first[i];
    }
    if (seen == nullptr) continue;
    qmap::Result<qmap::Query> query = qmap::ParseQuery(texts[i]);
    CheckSemantics(*query, *seen, Mix(args.seed, 0x7000 + i), kTuplesPerQuery,
                   &semantic);
  }
  if (semantic.violations > 0) {
    tally->Problem("semantic check: " + semantic.first_violation);
  }
  return semantic;
}

// The workload's defining properties, measured; any that is off fails the
// run.
std::vector<Metric> CheckGuards(const Args& args,
                                const std::vector<HotEntry>& hot,
                                const Window& w, Tally* tally) {
  uint64_t all_hit = 0, evicting = 0, repeats = 0, psafe = 0;
  for (const ClientResult& r : w.clients) {
    all_hit += r.all_hit;
    evicting += r.evicting;
    repeats += r.repeats;
    psafe += r.psafe_reached;
    for (size_t i = 0; i < hot.size(); ++i) {
      psafe += hot[i].reaches_psafe ? r.hot_draws[i] : 0;
    }
  }
  const double n = static_cast<double>(w.completed);
  const qmap::TranslationCacheStats& before = w.before.cached.cache;
  const qmap::TranslationCacheStats& after = w.after.cached.cache;
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses);
  const double evictions =
      static_cast<double>(after.evictions - before.evictions);
  const double psafe_share = Ratio(static_cast<double>(psafe), n);
  std::vector<Metric> guards = {
      {"cache_hit_share", Ratio(hits, lookups), "ratio"},
      {"evictions", evictions, "count"},
      {"repeat_share", Ratio(static_cast<double>(repeats), n), "ratio"},
      {"evicting_share", Ratio(static_cast<double>(evicting), n), "ratio"},
      {"psafe_share", psafe_share, "ratio"},
  };
  if (args.workload == Workload::kCold) {
    if (repeats != 0) {
      tally->Problem("cold guard: repeated queries in the window");
    }
    if (evicting != w.completed) {
      tally->Problem("cold guard: only " + std::to_string(evicting) + " of " +
                     std::to_string(w.completed) + " requests evicted");
    }
  } else {
    if (hits != lookups || lookups == 0 || evictions != 0) {
      tally->Problem("hot-set guard: cache-hit share " +
                     Number(Ratio(hits, lookups)) + " with " +
                     Number(evictions) + " evictions; the hot set must fit");
    }
    if (args.workload == Workload::kHot && all_hit != w.completed) {
      tally->Problem("hot guard: " + std::to_string(w.completed - all_hit) +
                     " requests missed the cache");
    }
  }
  if (psafe_share < kMinPsafeShare) {
    tally->Problem("workload guard: only " + Number(psafe_share) +
                   " of requests reach Disjunctivize/PSafe");
  }
  return guards;
}

std::vector<Metric> EndToEnd(const Window& w, const std::vector<double>& setups,
                             double rss_mib, double false_pos_frac,
                             const Tally& tally) {
  const SliceStats slices = Slices(w);
  return {
      {"qps", BetterDecile(slices.qps, /*higher_is_better=*/true), "req/s"},
      {"p50_us", BetterDecile(slices.p50_ns, false) / 1e3, "us"},
      {"p99_us", BetterDecile(slices.p99_ns, false) / 1e3, "us"},
      {"cpu_us_per_req", BetterDecile(slices.cpu_ns_per_req, false) / 1e3,
       "us"},
      {"rss_mb", rss_mib, "MiB"},
      {"setup_s", Median(setups), "s"},
      {"false_pos_frac", false_pos_frac, "ratio"},
      {"ok_frac",
       1.0 - Ratio(static_cast<double>(tally.failed),
                   static_cast<double>(tally.attempted)),
       "ratio"},
  };
}

std::vector<Metric> PerLayer(const Window& counted, const Window& traced,
                             double compile_ms, double compose_ms) {
  Ledger ledger;
  uint64_t out_nodes = 0;
  for (const ClientResult& r : traced.clients) {
    ledger.Merge(r.ledger);
    out_nodes += r.out_nodes;
  }
  qmap::TranslationStats merged;
  for (const ClientResult& r : counted.clients) merged.MergeFrom(r.merged);
  const Counters& b = counted.before;
  const Counters& a = counted.after;
  const auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double n = static_cast<double>(counted.completed);
  const double nt = static_cast<double>(ledger.requests);
  const auto per_req = [&](int layer) {
    return Ratio(static_cast<double>(ledger.ns[layer]) / 1e3, nt);
  };
  const auto per = [&](int layer, uint64_t count) {
    return Ratio(static_cast<double>(ledger.ns[layer]) / 1e3,
                 static_cast<double>(count));
  };
  const double intern_hits = d(a.intern.query_hits, b.intern.query_hits);
  const double intern_new = d(a.intern.query_misses, b.intern.query_misses);
  const double cache_hits = d(a.cached.cache.hits, b.cached.cache.hits);
  const double cache_lookups =
      cache_hits + d(a.cached.cache.misses, b.cached.cache.misses);
  const double tasks = d(a.front.parallel_tasks, b.front.parallel_tasks) +
                       d(a.front.inline_tasks, b.front.inline_tasks);
  const double attempts = static_cast<double>(merged.match.pattern_attempts);
  const double memo =
      static_cast<double>(merged.memo_hits + merged.memo_misses);
  const double rpcs = d(a.client.calls, b.client.calls);
  const double net_bytes =
      d(a.server.net.bytes_read + a.server.net.bytes_written,
        b.server.net.bytes_read + b.server.net.bytes_written);
  const auto rejected = [](const qmap::QmapServerStats& s) {
    return s.rejected_overload + s.rejected_quota;
  };
  const double rejects = d(rejected(traced.after.server), rejected(b.server));
  const double qps_counted = Ratio(n, counted.wall_s);
  const double qps_traced = Ratio(nt, traced.wall_s);
  const auto stat = [&](uint64_t v) { return Ratio(static_cast<double>(v), n); };
  return {
      {"expr.parse_us", per_req(kExprParse), "us"},
      {"expr.intern_new_per_req", Ratio(intern_new, n), "count/req"},
      {"expr.intern_hit_frac", Ratio(intern_hits, intern_hits + intern_new), "ratio"},
      {"service.translate_us", per_req(kServiceTranslate), "us"},
      {"service.fanout_wait_us", per_req(kServiceFanoutWait), "us"},
      {"service.pool_wait_us", per(kServicePoolWait, ledger.pool_tasks), "us"},
      {"service.cache_lookup_us", per_req(kServiceCacheLookup), "us"},
      {"service.cache_insert_us", per_req(kServiceCacheInsert), "us"},
      {"service.join_us", per_req(kServiceJoin), "us"},
      {"service.merge_filter_us", per_req(kServiceMergeFilter), "us"},
      {"service.cache_hit_frac", Ratio(cache_hits, cache_lookups), "ratio"},
      {"service.evictions_per_req",
       Ratio(d(a.cached.cache.evictions, b.cached.cache.evictions), n), "count/req"},
      {"service.tasks_per_req", Ratio(tasks, n), "count/req"},
      {"rules.pattern_attempts_per_req", Ratio(attempts, n), "count/req"},
      {"rules.match_yield",
       Ratio(static_cast<double>(merged.match.matchings_found), attempts), "ratio"},
      {"rules.compile_ms", compile_ms, "ms"},
      {"rules.compose_ms", compose_ms, "ms"},
      {"core.translate_us", per_req(kCoreTranslate), "us"},
      {"core.tdqm_us", per_req(kCoreTdqm), "us"},
      {"core.scm_us", per_req(kCoreScm), "us"},
      {"core.psafe_us", per_req(kCorePsafe), "us"},
      {"core.ednf_us", per_req(kCoreEdnf), "us"},
      {"core.disjunctivize_us", per_req(kCoreDisjunctivize), "us"},
      {"core.residue_filter_us", per_req(kCoreResidueFilter), "us"},
      {"core.scm_calls_per_req", stat(merged.scm_calls), "count/req"},
      {"core.psafe_calls_per_req", stat(merged.psafe_calls), "count/req"},
      {"core.ednf_terms_per_req", stat(merged.ednf_disjuncts_checked), "count/req"},
      {"core.disjunctivize_per_req", stat(merged.disjunctivize_calls), "count/req"},
      {"core.memo_hit_frac", Ratio(static_cast<double>(merged.memo_hits), memo), "ratio"},
      {"core.out_nodes_per_req", Ratio(static_cast<double>(out_nodes), nt), "count/req"},
      {"store.lookup_us", per_req(kStoreLookup), "us"},
      {"store.puts_per_req",
       Ratio(d(a.front.store.puts, b.front.store.puts), n), "count/req"},
      {"store.bytes_per_req",
       Ratio(d(a.front.store.log_bytes, b.front.store.log_bytes), n), "B/req"},
      {"wire.rpc_us", per(kWireRpc, ledger.rpcs), "us"},
      {"wire.worker_us", per(kWireWorker, ledger.worker_calls), "us"},
      {"wire.codec_us", per(kWireCodec, ledger.codec_calls), "us"},
      {"wire.rpcs_per_req", Ratio(rpcs, n), "count/req"},
      {"wire.reuse_frac", Ratio(d(a.client.reuses, b.client.reuses), rpcs), "ratio"},
      {"wire.rejects", rejects, "count"},
      {"net.bytes_per_req", Ratio(net_bytes, n), "B/req"},
      {"obs.spans_per_req", Ratio(static_cast<double>(ledger.program_spans), nt),
       "count/req"},
      {"obs.fold_us", per_req(kObsFold), "us"},
      {"allocs_per_req", Ratio(d(a.allocs, b.allocs), n), "count/req"},
      {"unattributed_us", per_req(kUnattributed), "us"},
      {"trace_overhead", Ratio(qps_counted, qps_traced), "ratio"},
  };
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  out << body;
  if (!out) Fail("cannot write " + path);
}

std::string StampJson(const Args& args, uint64_t requests, size_t samples) {
  return std::string("{") +
         "\"git_revision\": " + Json(args.git_revision) +
         ", \"git_dirty\": " + Json(args.git_dirty) +
         ", \"compiler\": " + Json(QMAP_E2E_COMPILER) +
         ", \"compiler_version\": " + Json(__VERSION__) +
         ", \"build_type\": " + Json(QMAP_E2E_BUILD_TYPE) +
         ", \"cxx_flags\": " + Json(QMAP_E2E_CXX_FLAGS) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": " + Json(args.workload_name) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + Number(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"clients\": " + std::to_string(kClients) +
         ", \"requests\": " + std::to_string(requests) +
         ", \"latency_samples\": " + std::to_string(samples) +
         ", \"cache_capacity\": " + std::to_string(args.cache_capacity) + "}";
}

// The untraced window's request sequence of every client.
void DumpRequests(const Args& args, const std::vector<std::string>& texts) {
  for (int c = 0; c < kClients; ++c) {
    RequestStream requests(args.seed, c, texts, NonceBase(0x100 + c));
    for (int k = 0; k < args.dump_requests; ++k) {
      size_t unused = 0;
      std::printf("%d %s\n", c, requests.Next(&unused).c_str());
    }
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // The hot set's texts; empty for cold, whose requests are all novel.
  const std::vector<std::string> texts =
      args.workload == Workload::kCold ? std::vector<std::string>{}
                                       : HotSet(args.seed, kHotSetSize);
  if (args.dump_requests > 0) {
    DumpRequests(args, texts);
    return 0;
  }
  std::vector<HotEntry> hot(texts.size());

  // Set-up, several times: construction through the end of warm-up. The
  // last system built serves the timed windows.
  std::vector<double> setups;
  std::optional<System> sys;
  double compile_ms = 0;
  for (int r = 0; r < kSetups; ++r) {
    sys.reset();
    const std::string store_dir = args.tmp_dir + "/store-" + std::to_string(r);
    const uint64_t compile_before = qmap::CompiledPlanGlobalStats().compile_ns;
    const auto start = Clock::now();
    qmap::Result<System> built = BuildSystem(args, store_dir);
    if (!built.ok()) Fail("set-up failed: " + built.status().ToString());
    sys.emplace(std::move(built).value());
    qmap::Status warm = WarmUp(args, texts, *sys, r);
    if (!warm.ok()) Fail("warm-up failed: " + warm.ToString());
    setups.push_back(Seconds(Clock::now() - start));
    compile_ms = static_cast<double>(qmap::CompiledPlanGlobalStats().compile_ns -
                                     compile_before) / 1e6;
  }

  // The serial reference, outside every timed window.
  qmap::Result<qmap::Mediator> reference = MakeReferenceMediator();
  if (!reference.ok()) Fail("reference: " + reference.status().ToString());
  for (size_t i = 0; i < texts.size(); ++i) {
    HotEntry& entry = hot[i];
    qmap::Result<qmap::Query> query = qmap::ParseQuery(texts[i]);
    if (!query.ok()) Fail("hot query does not parse: " + texts[i]);
    qmap::Result<qmap::MediatorTranslation> expected =
        reference->Translate(*query);
    if (!expected.ok()) Fail("reference failed on " + texts[i]);
    entry.reference = DigestOf(*expected);
    entry.reaches_psafe =
        expected->stats.psafe_calls + expected->stats.disjunctivize_calls > 0;
  }

  // Untraced: one window. Traced: an untraced half that counts (allocations
  // and program counters, free of the trace's own work), then a traced half.
  std::vector<Window> windows;
  if (!args.trace) {
    windows.push_back(RunWindow(args, *sys, texts, hot, args.seconds, 0, false));
  } else {
    windows.push_back(
        RunWindow(args, *sys, texts, hot, args.seconds / 2, 1, false));
    windows.push_back(
        RunWindow(args, *sys, texts, hot, args.seconds / 2, 2, true));
  }
  const double rss_mib = windows[0].rss_mib;

  Tally tally;
  std::vector<Metric> guards;
  uint64_t admitted = 0, false_pos = 0;
  for (Window& w : windows) {
    const SemanticTally semantic =
        CheckWindow(args, texts, *reference, w, &tally);
    admitted += semantic.admitted;
    false_pos += semantic.false_pos;
    std::vector<Metric> g = CheckGuards(args, hot, w, &tally);
    if (guards.empty()) guards = std::move(g);
    for (const ClientResult& r : w.clients) {
      tally.attempted += r.attempted;
      tally.failed += r.failed;
      if (r.failed > 0) {
        tally.Problem(std::to_string(r.failed) + " failed requests, first: " +
                      r.first_failure);
      }
    }
  }
  const double false_pos_frac =
      Ratio(static_cast<double>(false_pos), static_cast<double>(admitted));

  std::vector<Metric> metrics =
      args.trace ? PerLayer(windows[0], windows[1], compile_ms, sys->compose_ms)
                 : EndToEnd(windows[0], setups, rss_mib, false_pos_frac, tally);
  const uint64_t samples = windows.back().completed;
  const SliceStats slices = Slices(windows.back());
  const std::string stamp = StampJson(args, tally.attempted, samples);
  std::string extra = "{";
  for (size_t i = 0; i < guards.size(); ++i) {
    extra += (i > 0 ? ", " : "") + Json(guards[i].name) + ": " +
             Number(guards[i].value);
  }
  extra += ", \"false_pos_frac\": " + Number(false_pos_frac) +
           ", \"semantic_tuples_admitted\": " + std::to_string(admitted) +
           ", \"setup_first_s\": " + Number(setups.front()) +
           ", \"latency_slices\": " + std::to_string(slices.qps.size()) +
           ", \"min_slice_samples\": " +
           Number(slices.qps.empty() ? 0
                                     : *std::min_element(slices.qps.begin(),
                                                         slices.qps.end()) *
                                           windows.back().slice_s) +
           ", \"rss_mb\": " + Number(rss_mib);
  const auto list = [](const std::vector<double>& v, double scale) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i > 0 ? ", " : "") + Number(v[i] * scale);
    }
    return out + "]";
  };
  extra += ", \"slice_qps\": " + list(slices.qps, 1) +
           ", \"slice_p50_us\": " + list(slices.p50_ns, 1e-3) +
           ", \"slice_p99_us\": " + list(slices.p99_ns, 1e-3) +
           ", \"slice_cpu_us_per_req\": " + list(slices.cpu_ns_per_req, 1e-3);
  if (args.trace) {
    Ledger ledger;
    for (const ClientResult& r : windows.back().clients) ledger.Merge(r.ledger);
    extra += ", \"unattributed_us_by_span\": {";
    bool first = true;
    for (const auto& [name, ns] : ledger.unattributed_by_span) {
      extra += (first ? "" : ", ") + Json(name) + ": " +
               Number(Ratio(static_cast<double>(ns) / 1e3,
                            static_cast<double>(ledger.requests)));
      first = false;
    }
    extra += "}";
  }
  extra += "}";
  std::printf("# stamp %s\n# guards %s\n", stamp.c_str(), extra.c_str());
  for (const std::string& problem : tally.problems) {
    std::fprintf(stderr, "qmap_e2e: %s\n", problem.c_str());
  }
  const bool correct = tally.problems.empty();
  const std::string result = std::string("{\"correct\": ") +
                             (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(tally.attempted) +
                             ", \"failed\": " + std::to_string(tally.failed) +
                             ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (!args.out_dir.empty()) {
    const std::string base = args.out_dir + "/" + args.workload_name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    WriteFile(base + ".json", "{\"stamp\": " + stamp + ", \"guards\": " + extra +
                                  ", \"result\": " + result + "}\n");
    if (args.trace) {
      std::string traces = "[";
      for (const ClientResult& r : windows.back().clients) {
        for (const auto& [latency, json] : r.raw_traces) {
          traces += (traces.size() > 1 ? ",\n" : "") + json;
        }
      }
      WriteFile(base + "-traces.json", traces + "]\n");
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
