#include "qmap/wire/wire_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "qmap/net/net_util.h"

namespace qmap {
namespace {

using Clock = std::chrono::steady_clock;

int RemainingMs(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<int64_t>(0, left.count()));
}

/// Splits "host:port" (numeric IPv4 host). Returns false on any other shape.
bool ParseEndpoint(const std::string& endpoint, std::string* host,
                   uint16_t* port) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return false;
  }
  *host = endpoint.substr(0, colon);
  uint32_t value = 0;
  for (size_t i = colon + 1; i < endpoint.size(); ++i) {
    char c = endpoint[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 65535) return false;
  }
  *port = static_cast<uint16_t>(value);
  return *port != 0;
}

}  // namespace

WireClient::WireClient(WireClientOptions options) : options_(options) {
  IgnoreSigpipe();
}

WireClient::~WireClient() { CloseIdle(); }

void WireClient::CloseIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [endpoint, pool] : pools_) {
    for (int fd : pool.idle) ::close(fd);
    pool.open -= pool.idle.size();
    pool.idle.clear();
    pool.released.notify_all();
  }
}

WireClientStats WireClient::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Result<int> WireClient::Acquire(const std::string& endpoint,
                                Clock::time_point deadline, bool* pooled) {
  const size_t cap = options_.max_idle_per_endpoint;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Pool& pool = pools_[endpoint];
    while (pool.idle.empty() && cap > 0 && pool.open >= cap) {
      if (pool.released.wait_until(lock, deadline) ==
              std::cv_status::timeout &&
          pool.idle.empty() && pool.open >= cap) {
        return Status::DeadlineExceeded(
            "wire client: no free connection to " + endpoint +
            " before the deadline");
      }
    }
    if (!pool.idle.empty()) {
      const int fd = pool.idle.back();
      pool.idle.pop_back();
      *pooled = true;
      return fd;
    }
    ++pool.open;
  }
  *pooled = false;
  Result<int> fresh = Connect(endpoint);
  if (!fresh.ok()) Release(endpoint, -1, /*reuse=*/false);
  return fresh;
}

void WireClient::Release(const std::string& endpoint, int fd, bool reuse) {
  std::lock_guard<std::mutex> lock(mu_);
  Pool& pool = pools_[endpoint];
  if (reuse && options_.max_idle_per_endpoint > 0) {
    pool.idle.push_back(fd);
  } else {
    if (fd >= 0) ::close(fd);
    --pool.open;
  }
  // One connection came back, so one waiter on this endpoint can use it.
  pool.released.notify_one();
}

Result<int> WireClient::Connect(const std::string& endpoint) {
  std::string host;
  uint16_t port = 0;
  if (!ParseEndpoint(endpoint, &host, &port)) {
    return Status::InvalidArgument("wire client: bad endpoint '" + endpoint +
                                   "' (want host:port)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("wire client: bad host '" + host + "'");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("wire client: socket: ") +
                            std::strerror(errno));
  }
  // Non-blocking connect bounded by connect_timeout_ms, then back to
  // blocking I/O (per-call deadlines are enforced with poll() in CallOn).
  SetNonBlockingFd(fd);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return Status::Unavailable("wire client: connect " + endpoint + ": " +
                               std::strerror(errno));
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, options_.connect_timeout_ms);
    int err = 0;
    socklen_t len = sizeof(err);
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return ready == 0 ? Status::DeadlineExceeded(
                              "wire client: connect " + endpoint + " timed out")
                        : Status::Unavailable("wire client: connect " +
                                              endpoint + ": " +
                                              std::strerror(err != 0 ? err
                                                                     : errno));
    }
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.connects += 1;
  }
  return fd;
}

Result<std::pair<FrameType, std::string>> WireClient::CallOn(
    int fd, FrameType type, std::string_view payload, uint32_t deadline_ms,
    bool* got_bytes) {
  *got_bytes = false;
  const auto deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  const std::string frame = EncodeFrame(type, payload);

  size_t sent = 0;
  while (sent < frame.size()) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready == 0) {
      return Status::DeadlineExceeded("wire client: send timed out");
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("wire client: poll: ") +
                                 std::strerror(errno));
    }
    ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("wire client: send: ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }

  std::string buf;
  char chunk[4096];
  for (;;) {
    FrameType response_type;
    std::string_view response_payload;
    size_t frame_len = 0;
    switch (DecodeFrame(buf, &response_type, &response_payload, &frame_len)) {
      case FrameDecodeResult::kFrame:
        return std::make_pair(response_type, std::string(response_payload));
      case FrameDecodeResult::kMalformed:
        return Status::Internal("wire client: malformed response frame");
      case FrameDecodeResult::kNeedMore:
        break;
    }
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready == 0) {
      return Status::DeadlineExceeded("wire client: response timed out");
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("wire client: poll: ") +
                                 std::strerror(errno));
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::Unavailable("wire client: connection closed by peer");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("wire client: recv: ") +
                                 std::strerror(errno));
    }
    buf.append(chunk, static_cast<size_t>(n));
    *got_bytes = true;
  }
}

Result<std::pair<FrameType, std::string>> WireClient::Call(
    const std::string& endpoint, FrameType type, std::string_view payload,
    uint32_t deadline_ms) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.calls += 1;
  }
  if (deadline_ms == 0) {
    deadline_ms = static_cast<uint32_t>(std::max(1, options_.io_timeout_ms));
  }
  const auto fail = [this](Result<std::pair<FrameType, std::string>> result) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.failures += 1;
    return result;
  };

  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  bool pooled = false;
  Result<int> acquired = Acquire(endpoint, deadline, &pooled);
  if (!acquired.ok()) return fail(acquired.status());
  int fd = *acquired;
  if (pooled) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.reuses += 1;
  }
  // A wait for a free connection spends the same budget.
  const auto remaining_ms = [&] {
    return static_cast<uint32_t>(std::max(1, RemainingMs(deadline)));
  };

  bool got_bytes = false;
  Result<std::pair<FrameType, std::string>> result =
      CallOn(fd, type, payload, remaining_ms(), &got_bytes);
  // A pooled connection that died before yielding any response byte is the
  // classic stale-idle case (worker restarted, server idle-timeout); one
  // fresh dial retries it safely — the request cannot have been observed.
  if (result.ok() || !pooled || got_bytes ||
      result.status().code() == StatusCode::kDeadlineExceeded) {
    Release(endpoint, fd, result.ok());
    return result.ok() ? std::move(result) : fail(std::move(result));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.retries += 1;
  }
  ::close(fd);  // the stale connection's slot goes to the fresh dial
  Result<int> fresh = Connect(endpoint);
  if (!fresh.ok()) {
    Release(endpoint, -1, /*reuse=*/false);
    return fail(fresh.status());
  }
  fd = *fresh;
  result = CallOn(fd, type, payload, remaining_ms(), &got_bytes);
  Release(endpoint, fd, result.ok());
  return result.ok() ? std::move(result) : fail(std::move(result));
}

}  // namespace qmap
