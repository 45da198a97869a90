#include "qmap/service/translation_service.h"

#include <cstdio>

#include "qmap/common/version.h"
#include "qmap/expr/intern.h"
#include "qmap/obs/json.h"
#include "qmap/obs/metrics.h"
#include "qmap/rules/matcher.h"
#include "qmap/rules/rule_program.h"

// The service's admin and introspection plane: the status snapshot, the
// gauges refreshed on scrape, and the admin server's HTTP handlers. The
// translate path is in translation_service.cc.

namespace qmap {
namespace {

/// The value of `key` in a raw query string ("a=1&b=2"), or "".
std::string_view QueryParam(std::string_view query, std::string_view key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    size_t end = amp == std::string_view::npos ? query.size() : amp;
    std::string_view pair = query.substr(pos, end - pos);
    if (pair.size() > key.size() && pair.substr(0, key.size()) == key &&
        pair[key.size()] == '=') {
      return pair.substr(key.size() + 1);
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return {};
}

/// Strict non-negative integer parse; -1 on anything else.
int ParseNonNegativeInt(std::string_view text) {
  if (text.empty() || text.size() > 9) return -1;
  int value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

std::string TracesJsonArray(const std::vector<ParsedTrace>& traces) {
  std::string out = "[";
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out += ',';
    out += traces[i].ToJson();
  }
  out += "]";
  return out;
}

std::string StatusJson(const ServiceStatus& s) {
  const auto b = [](bool v) { return v ? "true" : "false"; };
  std::string out = "{\"version\":\"";
  out += kQmapVersion;
  out += "\",\"ready\":";
  out += b(s.ready);
  out += ",\"draining\":";
  out += b(s.draining);
  out += ",\"store\":{\"configured\":";
  out += b(s.store_configured);
  out += ",\"ok\":";
  out += b(s.store_ok);
  out += ",\"warmed_up\":";
  out += b(s.warmed_up);
  out += ",\"live_records\":" + std::to_string(s.stats.store.live_records);
  out += ",\"hits\":" + std::to_string(s.stats.store.hits);
  out += ",\"misses\":" + std::to_string(s.stats.store.misses) + "}";
  out += ",\"cache\":{\"entries\":" + std::to_string(s.cache_entries);
  out += ",\"hits\":" + std::to_string(s.stats.cache.hits);
  out += ",\"misses\":" + std::to_string(s.stats.cache.misses);
  out += ",\"evictions\":" + std::to_string(s.stats.cache.evictions) + "}";
  out += ",\"pool\":{\"threads\":" + std::to_string(s.pool_threads);
  out += ",\"queue_depth\":" + std::to_string(s.pool_queue_depth) + "}";
  out += ",\"service\":{\"translate_calls\":" +
         std::to_string(s.stats.translate_calls);
  out += ",\"batch_calls\":" + std::to_string(s.stats.batch_calls);
  out += ",\"slow_queries\":" + std::to_string(s.stats.slow_queries);
  out += ",\"match_engine\":\"" + JsonEscape(s.match_engine) + "\"}";
  out += ",\"sources\":[";
  for (size_t i = 0; i < s.sources.size(); ++i) {
    const SourceStatus& source = s.sources[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(source.name) + "\"";
    out += ",\"endpoint\":\"" + JsonEscape(source.endpoint) + "\"";
    out += std::string(",\"breaker\":\"") +
           CircuitBreaker::StateName(source.breaker) + "\"";
    out += ",\"in_flight\":" + std::to_string(source.in_flight);
    out += ",\"calls\":" + std::to_string(source.calls);
    out += ",\"failures\":" + std::to_string(source.failures);
    out += ",\"retries\":" + std::to_string(source.retries) + "}";
  }
  out += "]";
  out += ",\"resilience\":{\"enabled\":";
  out += b(s.resilience_enabled);
  out += ",\"retries\":" + std::to_string(s.resilience.retries);
  out += ",\"breaker_rejections\":" +
         std::to_string(s.resilience.breaker_rejections);
  out += ",\"partial_results\":" +
         std::to_string(s.resilience.partial_results) + "}";
  out += ",\"trace_ring\":{\"enabled\":";
  out += b(s.trace_ring_enabled);
  out += ",\"seen\":" + std::to_string(s.trace_ring.seen);
  out += ",\"sampled\":" + std::to_string(s.trace_ring.sampled);
  out += ",\"outliers\":" + std::to_string(s.trace_ring.outliers);
  out += ",\"evicted\":" + std::to_string(s.trace_ring.evicted) + "}";
  out += ",\"chains\":[";
  for (size_t i = 0; i < s.chains.size(); ++i) {
    const ChainStatus& chain = s.chains[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(chain.name) + "\",\"hops\":[";
    for (size_t j = 0; j < chain.hop_targets.size(); ++j) {
      if (j > 0) out += ',';
      out += "\"" + JsonEscape(chain.hop_targets[j]) + "\"";
    }
    out += "],\"composed_rules\":" + std::to_string(chain.composed_rules);
    out += ",\"approximate_marks\":" + std::to_string(chain.approximate_marks);
    out += ",\"exact\":";
    out += b(chain.exact);
    out += "}";
  }
  out += "]";
  out += ",\"pruned_sources\":[";
  for (size_t i = 0; i < s.pruned_sources.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(s.pruned_sources[i].name) + "\"";
    out += ",\"subsumed_by\":\"" +
           JsonEscape(s.pruned_sources[i].subsumed_by) + "\"}";
  }
  out += "]";
  out += "}";
  return out;
}

/// "87.5%" hit-rate rendering for /statusz ("-" when there were no lookups).
std::string HitRate(uint64_t hits, uint64_t misses) {
  uint64_t total = hits + misses;
  if (total == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(hits) / static_cast<double>(total));
  return buf;
}

}  // namespace

ServiceStatus TranslationService::StatusSnapshot() const {
  ServiceStatus out;
  out.store_configured = options_.enable_cache && !options_.store.path.empty();
  out.store_ok = !out.store_configured || store_open_status_.ok();
  out.warmed_up = warmed_up_.load(std::memory_order_acquire);
  out.draining = draining();
  out.ready = !out.draining && out.store_ok &&
              (store_ == nullptr || out.warmed_up);
  out.match_engine = MatchEngineName(CurrentMatchEngine());
  out.stats = stats();
  out.cache_entries = options_.enable_cache ? cache_.size() : 0;
  out.pool_threads = pool_ != nullptr ? static_cast<size_t>(pool_->size()) : 0;
  out.pool_queue_depth = pool_ != nullptr ? pool_->queue_depth() : 0;
  out.sources.reserve(sources_.size());
  for (const SourceEntry& source : sources_) {
    SourceStatus status;
    status.name = source.name;
    status.endpoint = source.transport->endpoint();
    if (resilience_ != nullptr) {
      status.breaker = resilience_->breaker_state(source.name);
    }
    const SourceRuntime& runtime = *source.runtime;
    status.in_flight = runtime.in_flight.load(std::memory_order_relaxed);
    status.calls = runtime.calls.load(std::memory_order_relaxed);
    status.failures = runtime.failures.load(std::memory_order_relaxed);
    status.retries = runtime.retries.load(std::memory_order_relaxed);
    out.sources.push_back(std::move(status));
  }
  out.resilience_enabled = resilience_ != nullptr;
  if (resilience_ != nullptr) out.resilience = resilience_->counters();
  out.trace_ring_enabled = trace_ring_ != nullptr;
  if (trace_ring_ != nullptr) out.trace_ring = trace_ring_->stats();
  out.chains = chains_;
  out.pruned_sources = pruned_;
  return out;
}

void TranslationService::BridgeCompileStats() const {
  if (match_compile_ns_counter_ == nullptr) return;
  const CompiledPlanBuildStats global = CompiledPlanGlobalStats();
  match_compile_ns_counter_->RaiseTo(global.compile_ns);
  match_plan_nodes_counter_->RaiseTo(global.plan_nodes);
}

void TranslationService::UpdateGauges() const {
  BridgeCompileStats();
  MetricsRegistry* metrics = options_.obs.metrics;
  if (metrics == nullptr) return;
  metrics
      ->gauge("qmap_pool_queue_depth",
              "Tasks waiting in the worker pool's queue.")
      .Set(pool_ != nullptr ? static_cast<int64_t>(pool_->queue_depth()) : 0);
  metrics
      ->gauge("qmap_cache_entries",
              "Entries resident in the RAM translation cache.")
      .Set(options_.enable_cache ? static_cast<int64_t>(cache_.size()) : 0);
  metrics
      ->gauge("qmap_store_live_records",
              "Live records indexed by the persistent translation store.")
      .Set(store_ != nullptr ? static_cast<int64_t>(store_->num_entries()) : 0);
  // The intern and parse-memo totals are process-wide: each registry raises
  // its counters to them here, so every service's registry reads them.
  const InternStats intern = QueryInternStats();
  const struct {
    const char* name;
    const char* help;
    uint64_t total;
  } totals[] = {
      {"qmap_intern_query_hits_total",
       "Query-node constructions answered by the process-wide intern table.",
       intern.query_hits},
      {"qmap_intern_query_nodes_total",
       "Query nodes ever inserted into the process-wide intern table.",
       intern.query_nodes},
      {"qmap_intern_constraint_hits_total",
       "Leaf constraints answered by the process-wide intern table.",
       intern.constraint_hits},
      {"qmap_intern_constraint_nodes_total",
       "Constraints ever inserted into the process-wide intern table.",
       intern.constraint_nodes},
      {"qmap_parse_memo_hits_total",
       "Query parses answered by the parsing thread's text memo.",
       intern.parse_memo_hits},
      {"qmap_parse_memo_misses_total",
       "Query parses, made with interning on, the text memo did not answer.",
       intern.parse_memo_misses},
  };
  for (const auto& total : totals) {
    metrics->counter(total.name, total.help).RaiseTo(total.total);
  }
  metrics
      ->gauge("qmap_intern_query_nodes_live",
              "Query nodes resident in the process-wide intern table.")
      .Set(static_cast<int64_t>(intern.query_live));
  metrics
      ->gauge("qmap_intern_constraint_nodes_live",
              "Constraints resident in the process-wide intern table.")
      .Set(static_cast<int64_t>(intern.constraint_live));
  for (const SourceEntry& source : sources_) {
    CircuitBreaker::State state =
        resilience_ != nullptr ? resilience_->breaker_state(source.name)
                               : CircuitBreaker::State::kClosed;
    int64_t value = 0;
    switch (state) {
      case CircuitBreaker::State::kClosed: value = 0; break;
      case CircuitBreaker::State::kHalfOpen: value = 1; break;
      case CircuitBreaker::State::kOpen: value = 2; break;
    }
    metrics
        ->gauge("qmap_breaker_state_" + source.name,
                "Circuit breaker FSM state: 0=closed, 1=half_open, 2=open.")
        .Set(value);
  }
}

Status TranslationService::StartAdmin(const AdminOptions& options) {
  if (admin_ != nullptr) {
    return Status::InvalidArgument("admin server already started");
  }
  // Run the boot warm-up now so /readyz is meaningful the moment the port
  // opens, instead of flipping on the first Translate.
  WarmUpFromStoreOnce();
  auto server = std::make_unique<AdminHttpServer>(options.http);
  RegisterAdminHandlers(server.get(), options);
  Status status = server->Start();
  if (!status.ok()) return status;
  admin_ = std::move(server);
  return Status::Ok();
}

void TranslationService::StopAdmin() {
  if (admin_ != nullptr) {
    admin_->Stop();
    admin_.reset();
  }
}

void TranslationService::RegisterAdminHandlers(AdminHttpServer* server,
                                               const AdminOptions& options) {
  server->Handle("/healthz", [](std::string_view) {
    AdminResponse response;
    response.body = "ok\n";
    return response;
  });

  server->Handle("/readyz", [this](std::string_view) {
    ServiceStatus status = StatusSnapshot();
    AdminResponse response;
    if (status.ready) {
      response.body = "ready\n";
    } else {
      response.status = 503;
      response.body = "not ready: ";
      if (status.draining) {
        response.body += "draining";
      } else if (!status.store_ok) {
        response.body +=
            "store failed to open (" + store_open_status_.ToString() + ")";
      } else {
        response.body += "store warm-up has not run";
      }
      response.body += "\n";
    }
    return response;
  });

  // Graceful-drain trigger: flips readiness first (so a load balancer
  // scraping /readyz between this response and the process exiting sees
  // "draining"), then hands control to the embedding process's hook.
  server->Handle("/drainz",
                 [this, on_drain = options.on_drain](std::string_view) {
                   BeginDrain();
                   if (on_drain) on_drain();
                   AdminResponse response;
                   response.body = "draining\n";
                   return response;
                 });

  for (const auto& [path, handler] : options.extra_handlers) {
    server->Handle(path, handler);
  }

  server->Handle("/varz", [this](std::string_view) {
    UpdateGauges();
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    response.body = "{\"status\":" + StatusJson(StatusSnapshot()) +
                    ",\"metrics\":";
    response.body += options_.obs.metrics != nullptr
                         ? options_.obs.metrics->ToJson()
                         : "null";
    response.body += "}";
    return response;
  });

  server->Handle("/metrics", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (options_.obs.metrics == nullptr) {
      response.body = "# no MetricsRegistry attached to this service\n";
      return response;
    }
    UpdateGauges();
    response.body = options_.obs.metrics->ToPrometheusText();
    return response;
  });

  server->Handle("/statusz", [this](std::string_view) {
    ServiceStatus s = StatusSnapshot();
    AdminResponse response;
    std::string& out = response.body;
    out += std::string("qmap translation service ") + kQmapVersion + "\n";
    out += std::string("ready: ") + (s.ready ? "yes" : "no") + "\n";
    out += std::string("store: configured=") + (s.store_configured ? "yes" : "no") +
           " ok=" + (s.store_ok ? "yes" : "no") +
           " warmed_up=" + (s.warmed_up ? "yes" : "no") +
           " live_records=" + std::to_string(s.stats.store.live_records) +
           " hit_rate=" + HitRate(s.stats.store.hits, s.stats.store.misses) +
           "\n";
    out += "cache: entries=" + std::to_string(s.cache_entries) +
           " hits=" + std::to_string(s.stats.cache.hits) +
           " misses=" + std::to_string(s.stats.cache.misses) +
           " hit_rate=" + HitRate(s.stats.cache.hits, s.stats.cache.misses) +
           "\n";
    out += "pool: threads=" + std::to_string(s.pool_threads) +
           " queue_depth=" + std::to_string(s.pool_queue_depth) + "\n";
    out += "service: translate_calls=" + std::to_string(s.stats.translate_calls) +
           " batch_calls=" + std::to_string(s.stats.batch_calls) +
           " slow_queries=" + std::to_string(s.stats.slow_queries) +
           " match_engine=" + s.match_engine + "\n";
    out += std::string("resilience: enabled=") +
           (s.resilience_enabled ? "yes" : "no") +
           " retries=" + std::to_string(s.resilience.retries) +
           " breaker_rejections=" +
           std::to_string(s.resilience.breaker_rejections) +
           " partial_results=" + std::to_string(s.resilience.partial_results) +
           "\n";
    out += std::string("trace_ring: enabled=") +
           (s.trace_ring_enabled ? "yes" : "no") +
           " seen=" + std::to_string(s.trace_ring.seen) +
           " sampled=" + std::to_string(s.trace_ring.sampled) +
           " outliers=" + std::to_string(s.trace_ring.outliers) +
           " evicted=" + std::to_string(s.trace_ring.evicted) + "\n";
    out += "\nsource scoreboard:\n";
    char line[320];
    std::snprintf(line, sizeof(line), "  %-24s %-18s %-10s %9s %9s %9s %9s\n",
                  "source", "endpoint", "breaker", "in_flight", "calls",
                  "failures", "retries");
    out += line;
    for (const SourceStatus& source : s.sources) {
      std::snprintf(line, sizeof(line),
                    "  %-24s %-18s %-10s %9llu %9llu %9llu %9llu\n",
                    source.name.c_str(), source.endpoint.c_str(),
                    CircuitBreaker::StateName(source.breaker),
                    static_cast<unsigned long long>(source.in_flight),
                    static_cast<unsigned long long>(source.calls),
                    static_cast<unsigned long long>(source.failures),
                    static_cast<unsigned long long>(source.retries));
      out += line;
    }
    if (!s.chains.empty()) {
      out += "\nmediation chains:\n";
      for (const ChainStatus& chain : s.chains) {
        out += "  " + chain.name + ": ";
        for (size_t i = 0; i < chain.hop_targets.size(); ++i) {
          if (i > 0) out += " -> ";
          out += chain.hop_targets[i];
        }
        out += " (rules=" + std::to_string(chain.composed_rules) +
               " approximate_marks=" +
               std::to_string(chain.approximate_marks) +
               " exact=" + (chain.exact ? "yes" : "no") + ")\n";
      }
    }
    if (!s.pruned_sources.empty()) {
      out += "\ncontainment-pruned sources:\n";
      for (const PrunedSourceStatus& pruned : s.pruned_sources) {
        out += "  " + pruned.name + " subsumed by " + pruned.subsumed_by + "\n";
      }
    }
    return response;
  });

  server->Handle("/tracez", [this](std::string_view query) {
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    if (trace_ring_ == nullptr) {
      response.status = 404;
      response.body =
          "{\"error\":\"trace ring not enabled "
          "(ServiceOptions::obs.trace_ring)\"}";
      return response;
    }
    std::string target(QueryParam(query, "id"));
    std::string_view bucket = QueryParam(query, "bucket");
    if (target.empty() && !bucket.empty()) {
      // Exemplar jump: latency-histogram bucket index → retained trace.
      int b = ParseNonNegativeInt(bucket);
      if (b < 0 || b >= Histogram::kNumBuckets) {
        response.status = 400;
        response.body = "{\"error\":\"bad bucket index\"}";
        return response;
      }
      uint64_t serial =
          latency_hist_ != nullptr ? latency_hist_->exemplar(b) : 0;
      if (serial == 0) {
        response.status = 404;
        response.body =
            "{\"error\":\"no exemplar recorded for bucket " +
            std::to_string(b) + "\"}";
        return response;
      }
      target = "qt" + std::to_string(serial);
    }
    if (!target.empty()) {
      std::optional<ParsedTrace> trace = trace_ring_->Find(target);
      if (!trace.has_value()) {
        response.status = 404;
        response.body =
            "{\"error\":\"trace " + JsonEscape(target) + " not retained\"}";
        return response;
      }
      response.body = trace->ToJson();
      return response;
    }
    TraceRingStats stats = trace_ring_->stats();
    response.body = "{\"stats\":{\"seen\":" + std::to_string(stats.seen);
    response.body += ",\"sampled\":" + std::to_string(stats.sampled);
    response.body += ",\"outliers\":" + std::to_string(stats.outliers);
    response.body += ",\"evicted\":" + std::to_string(stats.evicted) + "}";
    response.body +=
        ",\"outliers\":" + TracesJsonArray(trace_ring_->OutlierSnapshot());
    response.body +=
        ",\"sampled\":" + TracesJsonArray(trace_ring_->SampledSnapshot());
    response.body += "}";
    return response;
  });

  server->Handle("/slowlogz", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    std::vector<SlowQueryRecord> records = slow_queries();
    std::string& out = response.body;
    out = "[";
    for (size_t i = 0; i < records.size(); ++i) {
      const SlowQueryRecord& record = records[i];
      if (i > 0) out += ',';
      out += "{\"query\":\"" + JsonEscape(record.query_text) + "\"";
      out += ",\"total_us\":" + std::to_string(record.total_us);
      out += ",\"max_disjuncts\":" + std::to_string(record.max_disjuncts);
      out += ",\"stats\":\"" + JsonEscape(record.stats) + "\"";
      if (!record.partial_summary.empty()) {
        out += ",\"partial\":\"" + JsonEscape(record.partial_summary) + "\"";
      }
      // trace_json is itself a JSON document; embed it verbatim.
      out += ",\"trace\":";
      out += record.trace_json.empty() ? "null" : record.trace_json;
      out += "}";
    }
    out += "]";
    return response;
  });
}

}  // namespace qmap
