#include "qmap/net/event_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "qmap/net/net_util.h"

namespace qmap {

namespace {
using SteadyClock = std::chrono::steady_clock;

enum class CloseKind { kFlushed, kError, kTimeout };
}  // namespace

EventLoop::EventLoop(EventLoopOptions options) : options_(options) {}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start(TcpListener* listener, ConnHandler* handler) {
  if (running_.load(std::memory_order_acquire) || thread_.joinable()) {
    return Status::InvalidArgument("event loop: already started");
  }
  if (listener == nullptr || !listener->listening() || handler == nullptr) {
    return Status::InvalidArgument("event loop: need a listening socket");
  }
  IgnoreSigpipe();
  if (pipe(wake_fd_) != 0) {
    return Status::Internal("event loop: failed to create self-pipe");
  }
  SetNonBlockingFd(wake_fd_[0]);
  SetNonBlockingFd(wake_fd_[1]);

  listener_ = listener;
  handler_ = handler;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  for (int* fd : {&wake_fd_[0], &wake_fd_[1]}) {
    if (*fd >= 0) {
      close(*fd);
      *fd = -1;
    }
  }
  std::lock_guard<std::mutex> lock(tasks_mu_);
  tasks_.clear();
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    tasks_.push_back(std::move(task));
  }
  Wake();
}

void EventLoop::Wake() {
  if (wake_fd_[1] >= 0) {
    char byte = 'x';
    // Best-effort wake; the poll tick bounds the wait even if the pipe is
    // full.
    [[maybe_unused]] ssize_t n = write(wake_fd_[1], &byte, 1);
  }
}

Conn* EventLoop::FindConn(uint64_t id) {
  for (const std::unique_ptr<Conn>& conn : conns_) {
    if (conn->id() == id) return conn.get();
  }
  return nullptr;
}

EventLoopStats EventLoop::stats() const {
  EventLoopStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.timeouts = timeouts_.load(std::memory_order_relaxed);
  out.flushed_closes = flushed_closes_.load(std::memory_order_relaxed);
  out.error_closes = error_closes_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return out;
}

void EventLoop::CloseConn(size_t index, bool flushed) {
  Conn& conn = *conns_[index];
  handler_->OnClose(conn);
  // Count before closing: a peer that sees EOF and then reads the stats
  // must find its connection counted.
  if (flushed) {
    flushed_closes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    error_closes_.fetch_add(1, std::memory_order_relaxed);
  }
  close(conn.fd_);
  conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(index));
}

void EventLoop::Run() {
  std::vector<pollfd>& fds = fds_;
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({wake_fd_[0], POLLIN, 0});
    bool room =
        conns_.size() < static_cast<size_t>(options_.max_connections < 0
                                                ? 0
                                                : options_.max_connections);
    // When full (or draining), stop polling the listener: the kernel queues
    // (then we accept-and-close below once there is room or on the next
    // tick). During a drain the backlog simply never gets served.
    bool take = room && accepting_.load(std::memory_order_acquire);
    fds.push_back({listener_->fd(), static_cast<short>(take ? POLLIN : 0), 0});
    for (const std::unique_ptr<Conn>& conn : conns_) {
      short events = 0;
      if (!conn->close_after_flush_ && !conn->reads_paused_) events |= POLLIN;
      if (conn->out_pending() > 0) events |= POLLOUT;
      fds.push_back({conn->fd_, events, 0});
    }

    int rc = poll(fds.data(), fds.size(), options_.poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; shut the loop down
    }
    if (stop_.load(std::memory_order_acquire)) break;

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (read(wake_fd_[0], buf, sizeof(buf)) > 0) {
      }
    }

    // Completions posted by worker threads run before the I/O pass, so a
    // response Write()d here is flushed on this very tick.
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      tasks.swap(tasks_);
    }
    for (std::function<void()>& task : tasks) task();

    // Only the connections that were present at poll() time have pollfd
    // entries; anything accepted below waits for the next tick.
    const size_t num_polled = conns_.size();

    // Accept as many as there is room for; close the rest immediately so a
    // misbehaving client can't starve the loop.
    if ((fds[1].revents & POLLIN) != 0) {
      while (true) {
        int fd = listener_->Accept();
        if (fd < 0) break;
        if (conns_.size() >= static_cast<size_t>(options_.max_connections) ||
            !SetNonBlockingFd(fd)) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          close(fd);
          continue;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_unique<Conn>();
        conn->fd_ = fd;
        conn->id_ = next_conn_id_++;
        conns_.push_back(std::move(conn));
        handler_->OnAccept(*conns_.back());
        if (conns_.back()->aborted_) {
          CloseConn(conns_.size() - 1, /*flushed=*/false);
        }
      }
    }

    const auto now = SteadyClock::now();
    for (size_t i = num_polled; i-- > 0;) {
      Conn& conn = *conns_[i];
      // fds layout: [wake, listener, conns[0] ...].
      const pollfd& pfd = fds[i + 2];
      if (conn.aborted_) {
        CloseConn(i, /*flushed=*/false);
        continue;
      }
      // A half-dead socket with a response still queued gets its flush
      // attempt below (the send failure path settles it); anything else
      // erroring out closes here.
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          conn.out_pending() == 0 && !conn.close_after_flush_) {
        CloseConn(i, /*flushed=*/false);
        continue;
      }
      if (conn.has_deadline_ && now >= conn.deadline_) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        CloseConn(i, /*flushed=*/false);
        continue;
      }
      if (!conn.close_after_flush_ && !conn.reads_paused_ &&
          (pfd.revents & POLLIN) != 0) {
        char buf[4096];
        bool peer_gone = false;
        size_t appended = 0;
        while (true) {
          ssize_t n = read(conn.fd_, buf, sizeof(buf));
          if (n > 0) {
            conn.in_.append(buf, static_cast<size_t>(n));
            appended += static_cast<size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          peer_gone = true;  // EOF or hard error mid-request
          break;
        }
        bytes_read_.fetch_add(appended, std::memory_order_relaxed);
        if (peer_gone) {
          CloseConn(i, /*flushed=*/false);
          continue;
        }
        if (appended > 0) {
          handler_->OnData(conn);
          if (conn.aborted_) {
            CloseConn(i, /*flushed=*/false);
            continue;
          }
        }
      }
      if (conn.out_pending() > 0 || conn.close_after_flush_) {
        while (conn.out_offset_ < conn.out_.size()) {
          ssize_t n = send(conn.fd_, conn.out_.data() + conn.out_offset_,
                           conn.out_.size() - conn.out_offset_, MSG_NOSIGNAL);
          if (n > 0) {
            conn.out_offset_ += static_cast<size_t>(n);
            bytes_written_.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          conn.out_offset_ = conn.out_.size();  // peer gone; give up
          break;
        }
        if (conn.out_offset_ >= conn.out_.size()) {
          if (conn.close_after_flush_) {
            CloseConn(i, /*flushed=*/true);
            continue;
          }
          conn.out_.clear();
          conn.out_offset_ = 0;
        }
      }
    }
  }

  for (size_t i = conns_.size(); i-- > 0;) {
    handler_->OnClose(*conns_[i]);
    close(conns_[i]->fd_);
  }
  conns_.clear();
}

}  // namespace qmap
