// serve::Listener over real loopback sockets: ephemeral binding,
// concurrent sessions sharing one cache and quota table, oversized-line
// errors, idle timeouts, max-connection rejection, back-to-back requests
// answered without a delayed-ACK stall, and — the teardown property the
// serving layer exists for — a client killed mid-solve leaves the server
// healthy, with its job canceled and drained.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "serve/listener.h"
#include "serve/server.h"

namespace fsbb::serve {
namespace {

/// Minimal blocking NDJSON test client over one loopback connection.
class TestConn {
 public:
  explicit TestConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
  }

  ~TestConn() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
  }

  /// Next complete line; "" on timeout or peer close.
  std::string read_line(int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return "";
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return "";
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return "";  // closed
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// Reads until a line contains `needle` (skipping progress etc.).
  std::string read_until(const std::string& needle, int timeout_ms = 30000) {
    for (;;) {
      const std::string line = read_line(timeout_ms);
      if (line.empty()) {
        ADD_FAILURE() << "connection closed waiting for: " << needle;
        return "";
      }
      if (line.find(needle) != std::string::npos) return line;
    }
  }

  /// True once the server closed this connection (recv returns 0).
  bool wait_closed(int timeout_ms = 30000) {
    for (;;) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Server + listener + serve() thread, torn down on destruction.
struct Harness {
  explicit Harness(ServerOptions options)
      : server(options), listener(server, {}) {
    thread = std::thread([this] { listener.serve(); });
  }

  ~Harness() {
    listener.request_stop();
    thread.join();
  }

  Server server;
  Listener listener;
  std::thread thread;
};

ServerOptions quiet_options() {
  ServerOptions options;
  options.workers = 2;
  options.quiet_progress = true;
  return options;
}

TEST(ServeListener, EphemeralPortSolvesAndServesMetrics) {
  Harness h(quiet_options());
  ASSERT_GT(h.listener.port(), 0);

  TestConn conn(h.listener.port());
  conn.send_line(
      R"({"op":"submit","id":"s1","tenant":"net",)"
      R"("cli":"--jobs 8 --machines 4 --seed 5 --backend cpu-serial"})");
  conn.read_until("\"event\":\"accepted\"");
  const JsonValue result =
      JsonValue::parse(conn.read_until("\"event\":\"result\""));
  EXPECT_TRUE(result.bool_or("ok", false));
  EXPECT_EQ(result.string_or("stop_reason", ""), "optimal");

  conn.send_line(R"({"op":"metrics"})");
  const JsonValue metrics =
      JsonValue::parse(conn.read_until("\"event\":\"metrics\""));
  EXPECT_EQ(metrics.find("data")->find("admission")->int_or("accepted", -1),
            1);
  EXPECT_GE(metrics.find("data")->find("connections")->int_or("opened", -1),
            1);
}

TEST(ServeListener, SessionsShareTheResultCache) {
  Harness h(quiet_options());
  {
    TestConn first(h.listener.port());
    first.send_line(
        R"({"op":"submit","id":"a","cli":"--jobs 8 --machines 4 --seed 9"})");
    first.read_until("\"event\":\"result\"");
  }
  // A different connection asking for the same instance is served from
  // the shared cache without a solve.
  TestConn second(h.listener.port());
  second.send_line(
      R"({"op":"submit","id":"b","cli":"--jobs 8 --machines 4 --seed 9"})");
  EXPECT_NE(second.read_until("\"event\":\"accepted\"").find(
                "\"cache\":\"exact\""),
            std::string::npos);
  const std::string result = second.read_until("\"event\":\"result\"");
  EXPECT_NE(result.find("\"backend\":\"cache\""), std::string::npos);
  EXPECT_EQ(h.server.metrics().cache_exact_hits(), 1u);
}

TEST(ServeListener, OversizedLineAnswersErrorAndSessionSurvives) {
  ServerOptions options = quiet_options();
  options.max_line_bytes = 128;
  Harness h(options);
  TestConn conn(h.listener.port());
  conn.send_line(std::string(500, 'x'));
  EXPECT_NE(conn.read_until("\"event\":\"error\"").find("exceeds"),
            std::string::npos);
  // The connection still works afterwards.
  conn.send_line(R"({"op":"metrics"})");
  const JsonValue metrics =
      JsonValue::parse(conn.read_until("\"event\":\"metrics\""));
  EXPECT_EQ(
      metrics.find("data")->find("errors")->int_or("oversized_lines", -1), 1);
}

TEST(ServeListener, ShutdownOpClosesOnlyThatSessionByDefault) {
  Harness h(quiet_options());
  TestConn doomed(h.listener.port());
  doomed.send_line(R"({"op":"shutdown"})");
  EXPECT_TRUE(doomed.wait_closed());
  // The listener itself is still accepting and serving.
  EXPECT_FALSE(h.listener.stop_requested());
  TestConn next(h.listener.port());
  next.send_line(R"({"op":"metrics"})");
  EXPECT_FALSE(next.read_until("\"event\":\"metrics\"").empty());
}

TEST(ServeListener, RemoteShutdownStopsTheWholeServerWhenAllowed) {
  ServerOptions options = quiet_options();
  options.allow_remote_shutdown = true;
  Harness h(options);
  TestConn conn(h.listener.port());
  conn.send_line(R"({"op":"shutdown"})");
  EXPECT_TRUE(conn.wait_closed());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!h.listener.stop_requested() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(h.listener.stop_requested());
}

TEST(ServeListener, IdleConnectionTimesOut) {
  ServerOptions options = quiet_options();
  options.idle_timeout_ms = 300;
  Harness h(options);
  TestConn conn(h.listener.port());
  // Say nothing: the server notices, answers, and hangs up.
  EXPECT_NE(conn.read_until("idle timeout", 30000), "");
  EXPECT_TRUE(conn.wait_closed());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.listener.active_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(h.listener.active_sessions(), 0u);
}

TEST(ServeListener, ConnectionsBeyondTheCapAreTurnedAway) {
  ServerOptions options = quiet_options();
  options.max_connections = 1;
  Harness h(options);
  TestConn kept(h.listener.port());
  // Round-trip once so the first session is registered before the second
  // connection races it.
  kept.send_line(R"({"op":"metrics"})");
  kept.read_until("\"event\":\"metrics\"");

  TestConn extra(h.listener.port());
  EXPECT_NE(extra.read_until("max connections").find("retry later"),
            std::string::npos);
  EXPECT_TRUE(extra.wait_closed());
  // The first connection is unaffected.
  kept.send_line(R"({"op":"metrics"})");
  EXPECT_FALSE(kept.read_until("\"event\":\"metrics\"").empty());
}

TEST(ServeListener, BackToBackRequestsDoNotWaitForDelayedAck) {
  Harness h(quiet_options());
  // TestConn sets no socket options: like any peer, it delays its ACKs.
  TestConn conn(h.listener.port());
  const auto round_trip_ms = [&conn](int i) {
    const auto start = std::chrono::steady_clock::now();
    conn.send_line(R"({"op":"submit","id":"r)" + std::to_string(i) +
                   R"(","cli":"--backend cpu-serial","instance":{"ptm":)"
                   R"([[5,3,2,4],[1,4,4,2],[3,1,5,2],[2,2,3,3],[4,5,1,1],)"
                   R"([3,3,3,2]]}})");
    const std::string result = conn.read_until("\"event\":\"result\"");
    EXPECT_NE(result.find("\"stop_reason\":\"optimal\""), std::string::npos)
        << result;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  round_trip_ms(0);  // the fresh solve fills the cache

  // Every repeat is an exact hit: `accepted` and `result` leave back to
  // back. With Nagle on, `result` waits for the ACK of `accepted`, which
  // the client delays (40 ms on Linux) once the connection's quick-ACK
  // start is over.
  std::vector<double> ms;
  for (int i = 1; i <= 20; ++i) ms.push_back(round_trip_ms(i));
  EXPECT_EQ(h.server.metrics().cache_exact_hits(), 20u);
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  EXPECT_LT(ms[ms.size() / 2], 10.0);
}

TEST(ServeListener, ClientKilledMidSolveLeavesServerHealthy) {
  Harness h(quiet_options());
  auto doomed = std::make_unique<TestConn>(h.listener.port());
  // A search too big to finish before the disconnect lands (weak
  // explicit upper bound suppresses the NEH seed).
  doomed->send_line(
      R"({"op":"submit","id":"d","tenant":"gone",)"
      R"("cli":"--jobs 14 --machines 10 --seed 777 --ub 1000000"})");
  doomed->read_until("\"event\":\"accepted\"");
  ASSERT_EQ(h.server.service().snapshot().running +
                h.server.service().snapshot().queued,
            1u);
  doomed.reset();  // abrupt disconnect, no shutdown op

  // The session tears down, cancels the orphan job, and the service
  // drains — nothing leaks, nothing hangs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((h.server.service().jobs_active() != 0 ||
          h.listener.active_sessions() != 0 ||
          h.server.admission().active_jobs("gone") != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(h.server.service().jobs_active(), 0u);
  EXPECT_EQ(h.listener.active_sessions(), 0u);
  EXPECT_EQ(h.server.admission().active_jobs("gone"), 0u);

  // And the server still serves: a fresh connection solves to optimality.
  TestConn next(h.listener.port());
  next.send_line(
      R"({"op":"submit","id":"n","cli":"--jobs 8 --machines 4 --seed 6"})");
  const JsonValue result =
      JsonValue::parse(next.read_until("\"event\":\"result\""));
  EXPECT_TRUE(result.bool_or("ok", false));
  EXPECT_EQ(result.string_or("stop_reason", ""), "optimal");
}

}  // namespace
}  // namespace fsbb::serve
