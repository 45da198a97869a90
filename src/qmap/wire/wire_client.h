#ifndef QMAP_WIRE_WIRE_CLIENT_H_
#define QMAP_WIRE_WIRE_CLIENT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qmap/common/status.h"
#include "qmap/wire/frame.h"

namespace qmap {

struct WireClientOptions {
  /// Bound on establishing one TCP connection.
  int connect_timeout_ms = 2000;
  /// Default bound on one whole Call (send + response) when the caller
  /// passes no per-call deadline.
  int io_timeout_ms = 5000;
  /// Connections per endpoint: at most this many are open at once, and
  /// they are kept for reuse. A call that finds them all busy waits, within
  /// its deadline, for one to come back — concurrent callers share a bounded
  /// set of connections instead of each dialing its own. 0 disables pooling
  /// (every call dials fresh, without a bound).
  size_t max_idle_per_endpoint = 4;
};

struct WireClientStats {
  uint64_t calls = 0;
  uint64_t connects = 0;        // fresh TCP connections dialed
  uint64_t reuses = 0;          // calls served over a pooled connection
  uint64_t retries = 0;         // stale-pooled-connection retries
  uint64_t failures = 0;        // calls that returned a non-ok status
};

/// A blocking, thread-safe client for the qmap wire protocol: one request
/// frame out, one response frame back, over a pooled TCP connection per
/// endpoint ("host:port"). Failure vocabulary is the resilience layer's:
/// connect/send/receive errors surface as Unavailable, deadline expiry as
/// DeadlineExceeded, protocol violations as Internal — so a RemoteTransport
/// built on this degrades exactly like any other guarded source.
///
/// Pooled connections can go stale (the worker restarted, an idle timeout
/// fired). A call that fails on a *pooled* connection before reading any
/// response byte is retried once on a freshly dialed connection; a fresh
/// connection failing, or any failure after response bytes arrived, is
/// reported as-is (the request may have executed — retrying is the caller's
/// policy, and translation is idempotent anyway).
class WireClient {
 public:
  explicit WireClient(WireClientOptions options = {});
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Sends one `type` frame carrying `payload` to `endpoint` and reads one
  /// response frame. `deadline_ms` bounds the whole call (0 = use
  /// options.io_timeout_ms).
  Result<std::pair<FrameType, std::string>> Call(const std::string& endpoint,
                                                 FrameType type,
                                                 std::string_view payload,
                                                 uint32_t deadline_ms = 0);

  /// Closes every pooled idle connection (e.g. after a known worker
  /// restart). In-flight calls are unaffected.
  void CloseIdle();

  WireClientStats stats() const;

 private:
  /// One call attempt over `fd`. Sets *got_bytes when any response byte was
  /// read (the attempt is then non-retryable).
  Result<std::pair<FrameType, std::string>> CallOn(int fd, FrameType type,
                                                   std::string_view payload,
                                                   uint32_t deadline_ms,
                                                   bool* got_bytes);
  /// Dials `endpoint` ("host:port", numeric host) within connect_timeout_ms.
  Result<int> Connect(const std::string& endpoint);
  /// A connection to `endpoint`: a pooled idle one (*pooled = true), else a
  /// fresh dial while fewer than max_idle_per_endpoint are open, else the
  /// first one released before `deadline`.
  Result<int> Acquire(const std::string& endpoint,
                      std::chrono::steady_clock::time_point deadline,
                      bool* pooled);
  /// Gives an acquired connection back: pooled for reuse when `reuse`,
  /// else closed (fd -1: the dial itself failed).
  void Release(const std::string& endpoint, int fd, bool reuse);

  /// One endpoint's connections. A Pool never moves (map nodes are
  /// stable), so waiters can sleep on its condition variable.
  struct Pool {
    std::vector<int> idle;
    size_t open = 0;  // idle plus in use
    /// Signalled when one of this endpoint's connections comes back or
    /// closes, so a release wakes a caller waiting on the same endpoint.
    std::condition_variable released;
  };

  const WireClientOptions options_;
  std::mutex mu_;
  std::map<std::string, Pool> pools_;  // guarded by mu_
  mutable std::mutex stats_mu_;
  WireClientStats stats_;  // guarded by stats_mu_
};

}  // namespace qmap

#endif  // QMAP_WIRE_WIRE_CLIENT_H_
