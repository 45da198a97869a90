// Tests for the reusable qmap/net layer: TcpListener + EventLoop driven by a
// minimal echo handler over real sockets, plus the SIGPIPE regression — a
// peer that closes its socket mid-response must surface as an error close,
// never as a process-killing signal — and the bound on a connection's
// unflushed output, for a peer that never reads.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "qmap/net/event_loop.h"
#include "qmap/net/net_util.h"
#include "qmap/net/tcp_listener.h"

namespace qmap {
namespace {

// A connected loopback socket; with `receive_buffer`, its kernel receive
// buffer is shrunk to about that many bytes first.
int ConnectTo(uint16_t port, int receive_buffer = 0) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (receive_buffer > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
               sizeof(receive_buffer));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string RecvUntilClose(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

// Echoes every byte back; "quit\n" closes after flush. When amplify > 1,
// each received byte is answered with that many — used to force a response
// much larger than the socket buffers so a write lands on a closed peer.
class EchoHandler : public ConnHandler {
 public:
  explicit EchoHandler(size_t amplify = 1) : amplify_(amplify) {}

  void OnAccept(Conn& conn) override {
    ++accepts_;
    conn.SetDeadlineMs(5000);
  }
  void OnData(Conn& conn) override {
    const bool quit = conn.in().find("quit") != std::string::npos;
    for (size_t i = 0; i < amplify_; ++i) conn.Write(conn.in());
    bytes_ += conn.in().size();
    conn.in().clear();
    if (quit) conn.CloseAfterFlush();
  }
  void OnClose(Conn&) override { ++closes_; }

  std::atomic<int> accepts_{0};
  std::atomic<int> closes_{0};
  std::atomic<size_t> bytes_{0};

 private:
  const size_t amplify_;
};

struct LoopFixture {
  explicit LoopFixture(ConnHandler* handler, EventLoopOptions options = {}) {
    options.poll_interval_ms = 5;
    loop = std::make_unique<EventLoop>(options);
    EXPECT_TRUE(listener.Listen("127.0.0.1", 0).ok());
    EXPECT_TRUE(loop->Start(&listener, handler).ok());
  }
  ~LoopFixture() {
    loop->Stop();
    listener.Close();
  }
  TcpListener listener;
  std::unique_ptr<EventLoop> loop;
};

TEST(EventLoop, AcceptsEchoesAndClosesAfterFlush) {
  EchoHandler handler;
  LoopFixture fx(&handler);

  int fd = ConnectTo(fx.listener.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "hello "));
  ASSERT_TRUE(SendAll(fd, "quit\n"));
  EXPECT_EQ(RecvUntilClose(fd), "hello quit\n");
  close(fd);

  // Close accounting catches up within a tick or two.
  for (int i = 0; i < 100 && handler.closes_ < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(handler.accepts_.load(), 1);
  EXPECT_EQ(handler.closes_.load(), 1);
  fx.loop->Stop();
  EventLoopStats stats = fx.loop->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.flushed_closes, 1u);
  EXPECT_GE(stats.bytes_read, 11u);
  EXPECT_GE(stats.bytes_written, 11u);
}

TEST(EventLoop, ConnectionsPastTheBoundWaitInTheBacklogThenOverflowIsShed) {
  EchoHandler handler;
  EventLoopOptions options;
  options.max_connections = 1;
  LoopFixture fx(&handler, options);

  int first = ConnectTo(fx.listener.port());
  ASSERT_GE(first, 0);
  ASSERT_TRUE(SendAll(first, "a"));
  char echoed = 0;
  ASSERT_EQ(read(first, &echoed, 1), 1);  // registered and serving
  EXPECT_EQ(echoed, 'a');

  // At the bound the listener is not polled: these two queue in the kernel
  // backlog unserved.
  int second = ConnectTo(fx.listener.port());
  int third = ConnectTo(fx.listener.port());
  ASSERT_GE(second, 0);
  ASSERT_GE(third, 0);
  ASSERT_TRUE(SendAll(second, "b quit"));
  EXPECT_EQ(handler.accepts_.load(), 1);

  // Freeing the slot drains the backlog in one burst: the first pending
  // connection fills the loop back to the bound, the rest are accepted and
  // immediately shed.
  close(first);
  EXPECT_EQ(RecvUntilClose(second), "b quit");
  close(second);
  for (int i = 0; i < 200; ++i) {
    if (fx.loop->stats().rejected >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fx.loop->stats().rejected, 1u);
  EXPECT_EQ(RecvUntilClose(third), "");
  close(third);
  EXPECT_EQ(handler.accepts_.load(), 2);
}

TEST(EventLoop, IdleDeadlineDropsTheConnection) {
  class DeadlineHandler : public EchoHandler {
   public:
    void OnAccept(Conn& conn) override {
      ++accepts_;
      conn.SetDeadlineMs(30);
    }
  };
  DeadlineHandler handler;
  LoopFixture fx(&handler);

  int fd = ConnectTo(fx.listener.port());
  ASSERT_GE(fd, 0);
  // Say nothing: the deadline fires and the loop drops us.
  EXPECT_EQ(RecvUntilClose(fd), "");
  close(fd);
  for (int i = 0; i < 200; ++i) {
    if (fx.loop->stats().timeouts >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fx.loop->stats().timeouts, 1u);
}

TEST(EventLoop, PostRunsTasksOnTheLoopThread) {
  EchoHandler handler;
  LoopFixture fx(&handler);
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) {
    fx.loop->Post([&ran] { ++ran; });
  }
  for (int i = 0; i < 200 && ran < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ran.load(), 3);
}

// Regression: writing a large response to a socket whose peer already
// closed must not kill the process with SIGPIPE (the loop both ignores the
// signal process-wide and sends with MSG_NOSIGNAL). Before the guard, this
// test died on the signal instead of failing an expectation.
TEST(EventLoop, WriteToPeerClosedSocketDoesNotRaiseSigpipe) {
  // 8 MiB of echo for a 1 KiB request: guaranteed to overflow the kernel
  // socket buffers, so part of the response is still unwritten when the peer
  // is gone and an unguarded send() would raise SIGPIPE.
  EchoHandler handler(8192);
  LoopFixture fx(&handler);

  int fd = ConnectTo(fx.listener.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, std::string(1024, 'x')));
  // Close without reading: RST on further writes from the server.
  close(fd);

  for (int i = 0; i < 200 && handler.closes_ < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(handler.closes_.load(), 1);

  // The loop survived and still serves new connections.
  int again = ConnectTo(fx.listener.port());
  ASSERT_GE(again, 0);
  ASSERT_TRUE(SendAll(again, "quit"));
  EXPECT_NE(RecvUntilClose(again), "");
  close(again);
}

// Answers every call with 64 KiB and remembers the most output its
// connection had unflushed whenever it was entered. Its kernel send buffer
// is shrunk, so the output piles up in the connection, not the kernel.
class FloodHandler : public ConnHandler {
 public:
  static constexpr size_t kReplyBytes = size_t{64} << 10;

  void OnAccept(Conn& conn) override {
    int bytes = 16 << 10;
    setsockopt(conn.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    conn.SetDeadlineMs(10000);
  }
  void OnData(Conn& conn) override {
    max_pending_at_entry_.store(
        std::max(max_pending_at_entry_.load(), conn.out_pending()));
    conn.in().clear();
    conn.Write(std::string(kReplyBytes, 'r'));
    ++calls_;
  }
  void OnClose(Conn&) override {}

  std::atomic<int> calls_{0};
  std::atomic<size_t> max_pending_at_entry_{0};
};

// Whether `handler` has been entered `calls` times within `ms`.
bool WaitForCalls(const FloodHandler& handler, int calls, int ms) {
  for (int i = 0; i < ms && handler.calls_ < calls; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return handler.calls_ >= calls;
}

TEST(EventLoop, APeerThatNeverReadsIsNotReadPastTheOutputBound) {
  FloodHandler handler;
  LoopFixture fx(&handler);
  const int fd = ConnectTo(fx.listener.port(), /*receive_buffer=*/16 << 10);
  ASSERT_GE(fd, 0);

  // One byte per request, each answered with 64 KiB the peer never reads:
  // 64 answers would queue 4 MiB. Past the bound the loop stops reading the
  // peer, so a request goes unanswered and the output stops growing.
  constexpr int kRequests = 64;
  int answered = 0;
  while (answered < kRequests) {
    ASSERT_TRUE(SendAll(fd, "q"));
    if (!WaitForCalls(handler, answered + 1, 500)) break;
    ++answered;
  }
  EXPECT_LT(answered, kRequests) << "the handler kept being entered";
  EXPECT_GE(answered,
            static_cast<int>(kMaxUnflushedBytes / FloodHandler::kReplyBytes));
  EXPECT_LT(handler.max_pending_at_entry_.load(), kMaxUnflushedBytes);

  // Once the peer reads, the output flushes under the bound and the request
  // it sent meanwhile reaches the handler.
  char buf[1 << 16];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (handler.calls_ <= answered &&
         std::chrono::steady_clock::now() < deadline) {
    if (recv(fd, buf, sizeof(buf), MSG_DONTWAIT) <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(handler.calls_.load(), answered + 1);
  EXPECT_LT(handler.max_pending_at_entry_.load(), kMaxUnflushedBytes);
  close(fd);
}

}  // namespace
}  // namespace qmap
