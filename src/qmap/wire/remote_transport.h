#ifndef QMAP_WIRE_REMOTE_TRANSPORT_H_
#define QMAP_WIRE_REMOTE_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "qmap/service/source_transport.h"
#include "qmap/wire/wire_client.h"

namespace qmap {

class Counter;
class Histogram;
class MetricsRegistry;

struct RemoteTransportOptions {
  /// Per-call deadline when the caller's CancelToken carries no budget.
  uint32_t default_deadline_ms = 5000;
  /// Clock the caller's deadline budgets are minted under (the service's
  /// resilience clock); null uses the process steady clock. Must outlive
  /// the transport.
  ResilienceClock* clock = nullptr;
  /// When set, registers/updates qmap_rpc_calls_total,
  /// qmap_rpc_failures_total and qmap_rpc_latency_us, all per wire call.
  /// Must outlive the transport.
  MetricsRegistry* metrics = nullptr;
};

/// A SourceTransport whose translation runs on a shard worker reached over
/// the qmap wire protocol. The query travels as ToParseableText and the
/// worker's translation comes back through the shared body codec, so the
/// result is byte-identical to translating in-process against the same rule
/// set. Remote transports with the same endpoint and the same WireClient
/// share calls: TranslateMany sends one TranslateRequest listing all their
/// sources, and Translate is its one-source case. Worker failures —
/// connection refused, worker died mid-call, deadline expiry — surface as
/// Unavailable / DeadlineExceeded, the same vocabulary a tripped breaker
/// uses, so the front-end's resilience layer degrades around a dead worker
/// exactly like around a sick local source.
///
/// Thread-safe: the fan-out calls Translate concurrently (the WireClient
/// gives each concurrent call its own connection, up to its per-endpoint
/// bound).
class RemoteTransport : public SourceTransport {
 public:
  /// `source` is the name the worker registered; `endpoint` is
  /// "host:port". The client is shared so all remote sources in a process
  /// reuse one connection pool.
  RemoteTransport(std::string source, std::string endpoint,
                  std::shared_ptr<WireClient> client,
                  RemoteTransportOptions options = {});

  Result<Translation> Translate(const Query& full, Trace* trace,
                                uint64_t parent_span,
                                const CancelToken* cancel) override;

  /// True for a RemoteTransport to the same endpoint over the same client.
  bool SharesCallWith(const SourceTransport& other) const override;

  /// One wire call — one "rpc.translate" span — for every member's source.
  /// A failed call fails every member with its status; otherwise each
  /// member gets the worker's reply for its source.
  std::vector<Result<Translation>> TranslateMany(
      std::span<SourceTransport* const> members, const Query& full,
      Trace* trace, uint64_t parent_span, const CancelToken* cancel) override;

  std::string endpoint() const override { return endpoint_; }
  const std::string& source() const { return source_; }

 private:
  const std::string source_;
  const std::string endpoint_;
  const std::shared_ptr<WireClient> client_;
  const RemoteTransportOptions options_;
  std::atomic<uint64_t> next_request_id_{1};
  Counter* calls_counter_ = nullptr;
  Counter* failures_counter_ = nullptr;
  Histogram* latency_hist_ = nullptr;
};

}  // namespace qmap

#endif  // QMAP_WIRE_REMOTE_TRANSPORT_H_
