#include "qmap/wire/qmap_server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "qmap/expr/parser.h"
#include "qmap/obs/metrics.h"
#include "qmap/wire/messages.h"

namespace qmap {

QmapServer::QmapServer(QmapServerOptions options)
    : options_(std::move(options)),
      loop_(EventLoopOptions{options_.max_connections,
                             options_.poll_interval_ms}),
      pool_(std::max(1, options_.num_threads)) {}

QmapServer::~QmapServer() { Stop(); }

void QmapServer::SetService(std::shared_ptr<TranslationService> service) {
  std::lock_guard<std::mutex> lock(service_mu_);
  if (service_ != nullptr && loop_.running()) {
    reloads_.fetch_add(1, std::memory_order_relaxed);
  }
  service_ = std::move(service);
}

std::shared_ptr<TranslationService> QmapServer::service() const {
  std::lock_guard<std::mutex> lock(service_mu_);
  return service_;
}

Status QmapServer::Start() {
  if (loop_.running()) {
    return Status::InvalidArgument("qmap server: already started");
  }
  if (service() == nullptr) {
    return Status::InvalidArgument("qmap server: no service loaded");
  }
  Status status =
      listener_.Listen(options_.bind_address, options_.port);
  if (!status.ok()) return status;
  port_ = listener_.port();
  status = loop_.Start(&listener_, this);
  if (!status.ok()) {
    listener_.Close();
    return status;
  }
  return Status::Ok();
}

void QmapServer::Stop() {
  loop_.Stop();
  listener_.Close();
}

void QmapServer::Drain() {
  if (!loop_.running()) return;
  loop_.SetAccepting(false);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  while (in_flight_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Two extra ticks so completions already Post()ed reach their sockets
  // before the loop stops.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(2 * options_.poll_interval_ms));
  Stop();
}

QmapServerStats QmapServer::stats() const {
  QmapServerStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  out.responses_error = responses_error_.load(std::memory_order_relaxed);
  out.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  out.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  out.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  out.catalog_requests = catalog_requests_.load(std::memory_order_relaxed);
  out.reloads = reloads_.load(std::memory_order_relaxed);
  out.answered_inline = answered_inline_.load(std::memory_order_relaxed);
  out.net = loop_.stats();
  if (options_.metrics != nullptr) {
    MetricsRegistry* metrics = options_.metrics;
    metrics
        ->gauge("qmap_net_accepted_total",
                "Connections accepted by the wire server.")
        .Set(static_cast<int64_t>(out.net.accepted));
    metrics
        ->gauge("qmap_net_rejected_total",
                "Connections closed at the wire server's connection bound.")
        .Set(static_cast<int64_t>(out.net.rejected));
    metrics
        ->gauge("qmap_net_timeouts_total",
                "Wire connections dropped at their idle deadline.")
        .Set(static_cast<int64_t>(out.net.timeouts));
    metrics
        ->gauge("qmap_net_bytes_read_total",
                "Bytes read by the wire server.")
        .Set(static_cast<int64_t>(out.net.bytes_read));
    metrics
        ->gauge("qmap_net_bytes_written_total",
                "Bytes written by the wire server.")
        .Set(static_cast<int64_t>(out.net.bytes_written));
    metrics
        ->gauge("qmap_rpc_requests_total",
                "Translate frames decoded by the wire server; one frame "
                "carries one or more sources.")
        .Set(static_cast<int64_t>(out.requests));
    metrics
        ->gauge("qmap_rpc_answered_inline_total",
                "Translate frames answered on the wire server's event-loop "
                "thread, with no pool round trip: every listed source a "
                "RAM-cache hit, the query failed to parse, or no service "
                "was loaded.")
        .Set(static_cast<int64_t>(out.answered_inline));
    metrics
        ->gauge("qmap_rpc_rejected_overload_total",
                "Frames rejected by admission control (max in-flight).")
        .Set(static_cast<int64_t>(out.rejected_overload));
    metrics
        ->gauge("qmap_rpc_rejected_quota_total",
                "Frames rejected by per-connection token-bucket quotas.")
        .Set(static_cast<int64_t>(out.rejected_quota));
    metrics
        ->gauge("qmap_rpc_malformed_frames_total",
                "Connections dropped on wire protocol violations.")
        .Set(static_cast<int64_t>(out.malformed_frames));
  }
  return out;
}

void QmapServer::OnAccept(Conn& conn) {
  auto state = std::make_shared<ConnState>();
  state->tokens = options_.quota_burst;
  state->last_refill = std::chrono::steady_clock::now();
  conn.set_user_data(std::move(state));
  conn.SetDeadlineMs(options_.idle_timeout_ms);
}

void QmapServer::OnClose(Conn& conn) { (void)conn; }

bool QmapServer::TakeQuotaToken(ConnState& state) {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - state.last_refill).count();
  state.last_refill = now;
  state.tokens = std::min(options_.quota_burst,
                          state.tokens +
                              elapsed * options_.quota_tokens_per_sec);
  if (state.tokens < 1.0) return false;
  state.tokens -= 1.0;
  return true;
}

void QmapServer::Reply(Conn& conn, FrameType type, std::string_view payload) {
  conn.Write(EncodeFrame(type, payload));
  conn.SetDeadlineMs(options_.idle_timeout_ms);
}

void QmapServer::OnData(Conn& conn) {
  auto* state = static_cast<ConnState*>(conn.user_data().get());
  while (!conn.reads_paused()) {
    FrameType type;
    std::string_view payload;
    size_t frame_len = 0;
    switch (DecodeFrame(conn.in(), &type, &payload, &frame_len)) {
      case FrameDecodeResult::kMalformed:
        // Protocol violation (bad magic/version/length/checksum): the
        // stream cannot be resynchronized, so drop the connection. Never
        // anything worse — this is the server half of the fuzz guarantee.
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        conn.Abort();
        return;
      case FrameDecodeResult::kNeedMore:
        conn.SetDeadlineMs(options_.idle_timeout_ms);
        return;
      case FrameDecodeResult::kFrame:
        break;
    }
    switch (type) {
      case FrameType::kTranslateRequest:
        HandleTranslate(conn, payload);
        break;
      case FrameType::kCatalogRequest:
        HandleCatalog(conn);
        break;
      default:
        // A response frame sent *to* a server is as unrecoverable as a bad
        // checksum.
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        conn.Abort();
        return;
    }
    conn.in().erase(0, frame_len);
    if (state->pending >= options_.max_pending_per_conn) {
      // Backpressure: further buffered frames stay unparsed and further
      // bytes stay in the kernel until a pooled frame is answered (its
      // completion resumes reads and re-enters OnData).
      conn.PauseReads();
      return;
    }
  }
}

void QmapServer::HandleCatalog(Conn& conn) {
  catalog_requests_.fetch_add(1, std::memory_order_relaxed);
  CatalogResponse response;
  std::shared_ptr<TranslationService> service = this->service();
  if (service != nullptr) {
    for (const SourceCatalogEntry& entry : service->SourceCatalog()) {
      response.sources.push_back(CatalogEntry{entry.name, entry.rule_set_fp});
    }
  }
  Reply(conn, FrameType::kCatalogResponse, EncodeCatalogResponse(response));
}

namespace {

// The response answering every source `request` lists with `failure`.
TranslateResponse FailedResponse(const TranslateRequest& request,
                                 const Status& failure) {
  TranslateResponse response;
  response.request_id = request.request_id;
  response.failure = failure;
  response.further.resize(request.further_sources.size());
  for (SourceReply& reply : response.further) reply.failure = failure;
  return response;
}

// The response carrying one result per source `request` lists, in order.
TranslateResponse AnsweredResponse(const TranslateRequest& request,
                                   std::vector<Result<Translation>> results) {
  TranslateResponse response;
  response.request_id = request.request_id;
  response.further.resize(request.further_sources.size());
  for (size_t k = 0; k < results.size(); ++k) {
    SourceReply& reply = k == 0 ? response : response.further[k - 1];
    reply.ok = results[k].ok();
    if (reply.ok) {
      reply.value = *std::move(results[k]);
    } else {
      reply.failure = results[k].status();
    }
  }
  return response;
}

// The sources `request` lists, first source first. The views point into
// `request`.
std::vector<std::string_view> ListedSources(const TranslateRequest& request) {
  std::vector<std::string_view> names;
  names.reserve(1 + request.further_sources.size());
  names.push_back(request.source);
  names.insert(names.end(), request.further_sources.begin(),
               request.further_sources.end());
  return names;
}

}  // namespace

void QmapServer::RejectTranslate(Conn& conn, const TranslateRequest& request,
                                 const Status& failure) {
  responses_error_.fetch_add(1 + request.further_sources.size(),
                             std::memory_order_relaxed);
  Reply(conn, FrameType::kTranslateResponse,
        EncodeTranslateResponse(FailedResponse(request, failure)));
}

std::string QmapServer::EncodeCounted(const TranslateResponse& response) {
  uint64_t ok = response.ok ? 1 : 0;
  for (const SourceReply& reply : response.further) ok += reply.ok ? 1 : 0;
  responses_ok_.fetch_add(ok, std::memory_order_relaxed);
  responses_error_.fetch_add(1 + response.further.size() - ok,
                             std::memory_order_relaxed);
  return EncodeTranslateResponse(response);
}

void QmapServer::HandleTranslate(Conn& conn, std::string_view payload) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  auto* state = static_cast<ConnState*>(conn.user_data().get());
  Result<TranslateRequest> request = DecodeTranslateRequest(payload);
  if (!request.ok()) {
    // The frame checksum passed but the payload is not a TranslateRequest:
    // a confused or hostile peer, not a transient condition.
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    conn.Abort();
    return;
  }
  // Quota and admission count a frame once, however many sources it lists,
  // and shed it before its query is parsed.
  if (options_.quota_tokens_per_sec > 0 && !TakeQuotaToken(*state)) {
    rejected_quota_.fetch_add(1, std::memory_order_relaxed);
    RejectTranslate(conn, *request,
                    Status::Unavailable("qmap server: quota exceeded"));
    return;
  }
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    RejectTranslate(conn, *request,
                    Status::Unavailable(
                        "qmap server: overloaded (" +
                        std::to_string(options_.max_in_flight) +
                        " requests in flight)"));
    return;
  }

  // Cache-first: each S_i(Q) depends only on Q and source i's rules, so a
  // frame whose every source the RAM cache holds is answered here, on the
  // loop thread, with no pool round trip. The loop parses a text only up to
  // the parse memo's bound and runs no store, translation or guard.
  std::shared_ptr<TranslationService> service = this->service();
  std::optional<Query> query;
  TranslationService::SourceProbe probe;
  const auto answer_inline = [&](const TranslateResponse& response) {
    answered_inline_.fetch_add(1, std::memory_order_relaxed);
    Reply(conn, FrameType::kTranslateResponse, EncodeCounted(response));
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  };
  if (service == nullptr) {
    answer_inline(FailedResponse(
        *request, Status::Unavailable("qmap server: no service loaded")));
    return;
  }
  if (request->query_text.size() <= kParseMemoMaxTextBytes) {
    Result<Query> parsed = ParseQuery(request->query_text);
    if (!parsed.ok()) {
      answer_inline(FailedResponse(*request, parsed.status()));
      return;
    }
    const std::vector<std::string_view> names = ListedSources(*request);
    probe = service->ProbeSources(names, *parsed);
    if (probe.misses.empty()) {
      answer_inline(AnsweredResponse(
          *request, service->FinishSources(std::move(probe), names, *parsed)));
      return;
    }
    query = *std::move(parsed);
  }

  // The rest goes to the pool as one task per frame, carrying the parsed
  // query and the probe's outcomes: no source is parsed or probed twice.
  state->pending += 1;
  const uint64_t conn_id = conn.id();
  pool_.Submit([this, conn_id, service = std::move(service),
                request = *std::move(request), query = std::move(query),
                probe = std::move(probe)]() mutable {
    const std::vector<std::string_view> names = ListedSources(request);
    TranslateResponse response;
    if (query.has_value()) {
      response = AnsweredResponse(
          request, service->FinishSources(std::move(probe), names, *query,
                                          request.deadline_ms));
    } else {
      Result<Query> parsed = ParseQuery(request.query_text);
      response = parsed.ok()
                     ? AnsweredResponse(
                           request, service->TranslateSources(
                                        names, *parsed, request.deadline_ms))
                     : FailedResponse(request, parsed.status());
    }
    std::string frame =
        EncodeFrame(FrameType::kTranslateResponse, EncodeCounted(response));
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    loop_.Post([this, conn_id, frame = std::move(frame)] {
      Conn* conn = loop_.FindConn(conn_id);
      if (conn == nullptr) return;  // peer left; state died with the conn
      auto* state = static_cast<ConnState*>(conn->user_data().get());
      state->pending -= 1;
      conn->Write(frame);
      conn->SetDeadlineMs(options_.idle_timeout_ms);
      if (conn->reads_paused() &&
          state->pending < options_.max_pending_per_conn) {
        conn->ResumeReads();
        // Frames that piled up in conn.in() while paused parse now.
        OnData(*conn);
      }
    });
  });
}

}  // namespace qmap
