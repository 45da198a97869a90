#ifndef QMAP_WIRE_QMAP_SERVER_H_
#define QMAP_WIRE_QMAP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "qmap/common/status.h"
#include "qmap/expr/printer.h"
#include "qmap/net/event_loop.h"
#include "qmap/net/tcp_listener.h"
#include "qmap/service/thread_pool.h"
#include "qmap/service/translation_service.h"
#include "qmap/wire/frame.h"
#include "qmap/wire/messages.h"

namespace qmap {

class Counter;
class MetricsRegistry;

struct QmapServerOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  // 0 picks an ephemeral port (see port())
  /// Concurrent connection bound; excess peers are accepted and closed
  /// (the kernel backlog bounds the rest).
  int max_connections = 64;
  int poll_interval_ms = 20;
  /// A connection idle this long (no request in flight, no bytes arriving)
  /// is dropped.
  int idle_timeout_ms = 30000;
  /// Admission control: translate frames being answered, on the loop
  /// thread or running or queued on the worker pool. A frame arriving at
  /// the bound is answered immediately — every source it lists with
  /// Unavailable — rather than queued without limit.
  int max_in_flight = 64;
  /// Per-connection token bucket: sustained translate frames/second (0 = no
  /// quota) with `quota_burst` of headroom. Frames past the bucket are
  /// answered with Unavailable for every listed source, not dropped.
  double quota_tokens_per_sec = 0;
  double quota_burst = 32;
  /// Backpressure: with this many of one connection's frames on the worker
  /// pool, its reads pause until one is answered — the peer's TCP window,
  /// not our memory, absorbs the rest of a pipeline.
  size_t max_pending_per_conn = 4;
  /// Worker threads executing translations (the service may run its own
  /// fan-out pool below this one).
  int num_threads = 4;
  /// Drain(): how long to wait for in-flight requests before stopping.
  int drain_timeout_ms = 5000;
  /// When set, exports qmap_net_* counters for this server. Must outlive
  /// the server.
  MetricsRegistry* metrics = nullptr;
};

struct QmapServerStats {
  uint64_t requests = 0;           // translate frames decoded
  uint64_t responses_ok = 0;       // per-source replies carrying a translation
  uint64_t responses_error = 0;    // per-source replies carrying a Status
  uint64_t rejected_overload = 0;  // frames rejected by admission control
  uint64_t rejected_quota = 0;     // frames rejected by the token bucket
  uint64_t malformed_frames = 0;   // connections dropped on protocol errors
  uint64_t catalog_requests = 0;
  uint64_t reloads = 0;            // SetService swaps after Start
  /// Translate frames answered on the event-loop thread, with no pool round
  /// trip: every listed source a RAM-cache hit (or unknown), a query that
  /// failed to parse, or no service loaded.
  uint64_t answered_inline = 0;
  /// Query texts the inline replies took from the server's RenderMemo, and
  /// those it rendered.
  uint64_t render_memo_hits = 0;
  uint64_t render_memo_misses = 0;
  EventLoopStats net;
};

/// The wire-protocol front door of a federation worker (and of a front-end
/// exposing its merged catalog): length-prefixed translate/catalog frames
/// over the shared EventLoop, and the three overload levers every
/// long-lived server needs — admission control, per-client quotas, and read
/// backpressure.
///
/// Where a translate frame (one query, one or more sources) runs: the loop
/// thread decodes it and applies quota and admission first, so a shed frame
/// is never parsed. It then parses a query text of at most
/// kParseMemoMaxTextBytes and probes each listed source's RAM cache
/// (TranslationService::ProbeSources). When every source hits, it encodes
/// and writes the response on the spot (stats().answered_inline). Any other
/// frame becomes one task on the worker pool, carrying the parsed query and
/// the probe's outcomes, so nothing is parsed or probed twice; a longer text
/// reaches the pool unparsed. The loop thread never runs store work, the
/// store warm-up, a translation or a resilience guard. Responses to frames
/// pipelined on one connection may therefore come back out of order; the
/// request id pairs them. The loop thread renders the inline replies through
/// the server's own RenderMemo, so a translation the cache serves over and
/// over is rendered about once; pooled replies render afresh. A connection
/// whose unflushed output reaches kMaxUnflushedBytes has no further frame
/// parsed until its peer reads.
///
/// The TranslationService behind it is hot-swappable: SetService atomically
/// replaces the shared pointer (SIGHUP/admin-triggered reload), in-flight
/// requests finish on the service they started with, new requests see the
/// new one. Drain() is the graceful half of SIGTERM: stop accepting, let
/// in-flight requests finish under a deadline, then stop the loop.
class QmapServer : private ConnHandler {
 public:
  explicit QmapServer(QmapServerOptions options = {});
  ~QmapServer() override;

  /// Swaps the service serving new requests. Thread-safe, callable before
  /// Start (required: Start with no service fails) and while running.
  void SetService(std::shared_ptr<TranslationService> service);
  std::shared_ptr<TranslationService> service() const;

  Status Start();
  /// Hard stop: drops connections, joins the loop. Idempotent.
  void Stop();
  /// Graceful drain: stops accepting, waits for in-flight requests (bounded
  /// by options.drain_timeout_ms plus one tick for final flushes), then
  /// stops. Safe to call from a signal-triggered thread or admin handler.
  void Drain();

  bool running() const { return loop_.running(); }
  int port() const { return port_; }
  QmapServerStats stats() const;

 private:
  /// Per-connection quota/backpressure state, owned via Conn::user_data.
  struct ConnState {
    double tokens = 0;
    std::chrono::steady_clock::time_point last_refill;
    size_t pending = 0;  // frames on the worker pool, not yet answered
  };

  void OnAccept(Conn& conn) override;
  void OnData(Conn& conn) override;
  void OnClose(Conn& conn) override;

  void HandleTranslate(Conn& conn, std::string_view payload);
  /// Answers every source `request` lists with `failure`. Loop thread.
  void RejectTranslate(Conn& conn, const TranslateRequest& request,
                       const Status& failure);
  /// Counts `response`'s per-source outcomes and encodes it, through
  /// `memo` when given (the loop thread's render_memo_). Any thread.
  std::string EncodeCounted(const TranslateResponse& response,
                            RenderMemo* memo = nullptr);
  void HandleCatalog(Conn& conn);
  /// Writes one response frame and re-arms the idle deadline. Loop thread.
  void Reply(Conn& conn, FrameType type, std::string_view payload);
  /// True when the bucket has a token (consuming it); refills lazily.
  bool TakeQuotaToken(ConnState& state);

  const QmapServerOptions options_;
  TcpListener listener_;
  EventLoop loop_;
  ThreadPool pool_;
  int port_ = 0;

  mutable std::mutex service_mu_;
  std::shared_ptr<TranslationService> service_;  // guarded by service_mu_

  std::atomic<int> in_flight_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> responses_error_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> rejected_quota_{0};
  std::atomic<uint64_t> malformed_frames_{0};
  std::atomic<uint64_t> catalog_requests_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> answered_inline_{0};
  /// Renders the inline replies; the loop thread's alone.
  RenderMemo render_memo_;
};

}  // namespace qmap

#endif  // QMAP_WIRE_QMAP_SERVER_H_
