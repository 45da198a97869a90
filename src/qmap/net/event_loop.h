#ifndef QMAP_NET_EVENT_LOOP_H_
#define QMAP_NET_EVENT_LOOP_H_

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qmap/common/status.h"
#include "qmap/net/tcp_listener.h"

namespace qmap {

class EventLoop;

/// One accepted connection, owned by its EventLoop. Handlers receive a Conn&
/// during OnAccept/OnData/OnClose and may also look one up by id() via
/// EventLoop::FindConn from a Post()ed task; both only on the loop thread.
/// Pointers must not be retained across loop ticks — keep the id instead.
class Conn {
 public:
  int fd() const { return fd_; }
  /// Loop-unique id, never reused within one EventLoop run. The stable name
  /// for completions posted from worker threads.
  uint64_t id() const { return id_; }

  /// Bytes read so far and not yet consumed. Handlers parse from here and
  /// erase what they consumed (or leave partial frames for the next tick).
  std::string& in() { return in_; }

  /// Queues bytes for writing. The loop flushes opportunistically every tick
  /// while output is pending (and polls for POLLOUT), preserving ordering.
  void Write(std::string_view data) { out_.append(data); }

  size_t out_pending() const { return out_.size() - out_offset_; }

  /// After the pending output drains, close the connection. Reads stop
  /// immediately. The admin server sets this on every response
  /// ("Connection: close"); the wire server only on fatal protocol errors.
  void CloseAfterFlush() { close_after_flush_ = true; }

  /// Close now, discarding any pending output.
  void Abort() { aborted_ = true; }

  /// Backpressure: stop polling for readable data until ResumeReads. Bytes
  /// already in in() stay there; the kernel socket buffer (and then the
  /// peer's TCP window) absorbs the rest.
  void PauseReads() { reads_paused_ = true; }
  void ResumeReads() { reads_paused_ = false; }
  bool reads_paused() const { return reads_paused_; }

  /// Arms (or re-arms) the idle deadline: the loop drops the connection —
  /// counting a timeout — if it is still open `ms` from now.
  void SetDeadlineMs(int ms) {
    deadline_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    has_deadline_ = true;
  }
  void ClearDeadline() { has_deadline_ = false; }

  /// Scratch slot for the handler (e.g. per-connection quota state). The
  /// loop never touches it beyond destruction on close.
  void set_user_data(std::shared_ptr<void> data) { user_data_ = std::move(data); }
  const std::shared_ptr<void>& user_data() const { return user_data_; }

 private:
  friend class EventLoop;

  int fd_ = -1;
  uint64_t id_ = 0;
  std::string in_;
  std::string out_;
  size_t out_offset_ = 0;
  bool close_after_flush_ = false;
  bool aborted_ = false;
  bool reads_paused_ = false;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::shared_ptr<void> user_data_;
};

/// Callbacks a server layers on top of the loop. All run on the loop thread.
class ConnHandler {
 public:
  virtual ~ConnHandler() = default;
  /// A connection was accepted (already non-blocking, already counted).
  /// Typical work: arm the I/O deadline, attach quota state.
  virtual void OnAccept(Conn& conn) = 0;
  /// New bytes were appended to conn.in(). Consume complete requests/frames;
  /// partial input may be left in place.
  virtual void OnData(Conn& conn) = 0;
  /// The connection is about to close (any path: flushed, error, timeout,
  /// abort, loop shutdown). Drop per-connection state keyed by conn.id().
  virtual void OnClose(Conn& conn) = 0;
};

struct EventLoopOptions {
  /// Concurrent connection bound. At the bound the listener is not polled,
  /// so excess connections wait in the kernel backlog; when a slot frees up
  /// the backlog is drained in one burst and connections past the bound are
  /// accepted and immediately closed (counted in stats().rejected).
  int max_connections = 64;
  /// poll() tick used to re-check the stop flag, posted tasks, and deadlines.
  int poll_interval_ms = 50;
};

/// Counters describing loop activity since Start().
struct EventLoopStats {
  uint64_t accepted = 0;        // connections accepted and registered
  uint64_t rejected = 0;        // closed immediately: at max_connections
  uint64_t timeouts = 0;        // connections dropped at their deadline
  uint64_t flushed_closes = 0;  // CloseAfterFlush connections whose output
                                // drained (or whose peer vanished mid-write)
  uint64_t error_closes = 0;    // EOF / socket error / abort closes
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// The non-blocking poll() event loop extracted from the admin HTTP server,
/// now shared by every network server in the process. One background thread
/// multiplexes a TcpListener plus at most max_connections sockets: a
/// self-pipe wakes the loop for Stop()/Post(), per-connection deadlines
/// bound slow clients, and writes are flushed opportunistically every tick.
///
/// Threading: OnAccept/OnData/OnClose and FindConn run on the loop thread
/// only. Worker threads hand results back with Post(), which wakes the loop
/// and runs the task on the loop thread before the next I/O pass. Stop()
/// joins the thread, so it is safe to destroy the handler afterwards.
class EventLoop {
 public:
  explicit EventLoop(EventLoopOptions options = {});
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread serving `listener` (already listening) through
  /// `handler`. Neither is owned; both must outlive the loop. Fails if
  /// already running or the self-pipe can't be created.
  Status Start(TcpListener* listener, ConnHandler* handler);

  /// Stops the loop thread, closing all connections (OnClose runs for each).
  /// Idempotent; also run by the destructor. Does not close the listener.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Runs `task` on the loop thread before the next I/O pass. Thread-safe;
  /// the canonical way for worker threads to deliver completions. Tasks
  /// posted after Stop() are discarded.
  void Post(std::function<void()> task);

  /// Wakes the loop out of poll() without queueing work.
  void Wake();

  /// Gate for graceful drain: with accepting(false) the listener is left in
  /// the poll set with no events requested, so new connections queue in the
  /// kernel backlog and are not served. Thread-safe.
  void SetAccepting(bool accepting) {
    accepting_.store(accepting, std::memory_order_release);
    Wake();
  }
  bool accepting() const { return accepting_.load(std::memory_order_acquire); }

  /// Number of live connections; loop thread or post-Stop only.
  size_t num_connections() const { return conns_.size(); }

  /// Looks a connection up by id. Loop thread only (i.e. from handler
  /// callbacks or Post()ed tasks); returns nullptr if it already closed.
  Conn* FindConn(uint64_t id);

  EventLoopStats stats() const;

  const EventLoopOptions& options() const { return options_; }

 private:
  void Run();
  void CloseConn(size_t index, bool flushed);

  const EventLoopOptions options_;
  TcpListener* listener_ = nullptr;
  ConnHandler* handler_ = nullptr;

  int wake_fd_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written by Wake()
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> accepting_{true};

  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;

  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  /// Run's poll set, rebuilt in place every tick (loop thread only).
  std::vector<pollfd> fds_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> flushed_closes_{0};
  std::atomic<uint64_t> error_closes_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace qmap

#endif  // QMAP_NET_EVENT_LOOP_H_
