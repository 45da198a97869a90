#include "qmap/wire/remote_transport.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "qmap/expr/printer.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/wire/messages.h"

namespace qmap {

RemoteTransport::RemoteTransport(std::string source, std::string endpoint,
                                 std::shared_ptr<WireClient> client,
                                 RemoteTransportOptions options)
    : source_(std::move(source)),
      endpoint_(std::move(endpoint)),
      client_(std::move(client)),
      options_(options) {
  if (options_.metrics != nullptr) {
    calls_counter_ = &options_.metrics->counter(
        "qmap_rpc_calls_total",
        "Remote translate calls issued; one call carries one or more "
        "sources.");
    failures_counter_ = &options_.metrics->counter(
        "qmap_rpc_failures_total",
        "Remote translate calls that failed, or that returned a failure for "
        "at least one source.");
    latency_hist_ = &options_.metrics->histogram(
        "qmap_rpc_latency_us",
        "Remote translate call round-trip in microseconds.");
  }
}

Result<Translation> RemoteTransport::Translate(const Query& full, Trace* trace,
                                               uint64_t parent_span,
                                               const CancelToken* cancel) {
  SourceTransport* self = this;
  return std::move(
      TranslateMany(std::span(&self, 1), full, trace, parent_span, cancel)
          .front());
}

bool RemoteTransport::SharesCallWith(const SourceTransport& other) const {
  const auto* remote = dynamic_cast<const RemoteTransport*>(&other);
  return remote != nullptr && remote->client_ == client_ &&
         remote->endpoint_ == endpoint_;
}

std::vector<Result<Translation>> RemoteTransport::TranslateMany(
    std::span<SourceTransport* const> members, const Query& full,
    Trace* trace, uint64_t parent_span, const CancelToken* cancel) {
  if (members.empty()) return {};
  Span rpc_span(trace, "rpc.translate", parent_span);
  if (calls_counter_ != nullptr) calls_counter_->Inc();
  // Every member's outcome is `status` (a failure of the call itself).
  const auto fail_all = [&](const Status& status) {
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    if (rpc_span.enabled()) rpc_span.AddAttr("error", status.message());
    return std::vector<Result<Translation>>(members.size(), status);
  };

  TranslateRequest request;
  request.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  for (size_t k = 0; k < members.size(); ++k) {
    if (!SharesCallWith(*members[k])) {
      return fail_all(Status::Internal(
          "rpc " + endpoint_ + ": a member does not share this call"));
    }
    const std::string& source =
        static_cast<const RemoteTransport*>(members[k])->source_;
    if (k == 0) {
      request.source = source;
    } else {
      request.further_sources.push_back(source);
    }
  }
  if (rpc_span.enabled()) {
    std::string names = request.source;
    for (const std::string& name : request.further_sources) names += "," + name;
    rpc_span.AddAttr("source", std::move(names));
    rpc_span.AddAttr("endpoint", endpoint_);
    rpc_span.AddAttr("sources", std::to_string(members.size()));
  }
  request.query_text = ToParseableText(full);
  request.deadline_ms = options_.default_deadline_ms;
  if (cancel != nullptr && cancel->budget.bounded()) {
    ResilienceClock& clock = options_.clock != nullptr
                                 ? *options_.clock
                                 : DefaultResilienceClock();
    const uint64_t remaining_us = cancel->budget.remaining_us(clock.NowUs());
    if (remaining_us == 0) {
      return fail_all(Status::DeadlineExceeded(
          "rpc " + request.source + ": budget exhausted before send"));
    }
    // Round up so a sub-millisecond remainder still reaches the wire as a
    // positive deadline instead of "unbounded" (0).
    request.deadline_ms = static_cast<uint32_t>(
        std::min<uint64_t>((remaining_us + 999) / 1000, UINT32_MAX));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  Result<std::pair<FrameType, std::string>> reply =
      client_->Call(endpoint_, FrameType::kTranslateRequest,
                    EncodeTranslateRequest(request), request.deadline_ms);
  if (latency_hist_ != nullptr) {
    latency_hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count()));
  }
  if (!reply.ok()) return fail_all(reply.status());
  if (reply->first != FrameType::kTranslateResponse) {
    return fail_all(Status::Internal("rpc " + request.source +
                                     ": unexpected response frame type"));
  }
  Result<TranslateResponse> response = DecodeTranslateResponse(reply->second);
  if (!response.ok()) {
    return fail_all(Status::Internal("rpc " + request.source + ": " +
                                     response.status().message()));
  }
  if (response->request_id != request.request_id) {
    // Connections carry one call at a time, so a mismatched id means the
    // pooled connection desynchronized — treat it like a protocol error.
    return fail_all(
        Status::Internal("rpc " + request.source + ": response id mismatch"));
  }
  if (response->further.size() != request.further_sources.size()) {
    return fail_all(Status::Internal("rpc " + request.source +
                                     ": reply count does not match the "
                                     "sources sent"));
  }

  std::vector<Result<Translation>> out;
  out.reserve(members.size());
  std::string errors;  // the failed sources' messages, for the span
  bool failed = false;
  for (size_t k = 0; k < members.size(); ++k) {
    SourceReply& source_reply =
        k == 0 ? *response : response->further[k - 1];
    if (source_reply.ok) {
      out.push_back(std::move(source_reply.value));
      continue;
    }
    failed = true;
    if (rpc_span.enabled()) {
      if (!errors.empty()) errors += "; ";
      errors += source_reply.failure.message();
    }
    out.push_back(std::move(source_reply.failure));
  }
  if (failed) {
    // One failed source makes the call count as failed.
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    if (rpc_span.enabled()) rpc_span.AddAttr("error", errors);
  }
  return out;
}

}  // namespace qmap
