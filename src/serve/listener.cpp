#include "serve/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/check.h"
#include "common/json.h"
#include "serve/line_io.h"

namespace fsbb::serve {
namespace {

constexpr int kPollTickMs = 200;

/// Mutex-serialized line writer over one socket fd. Owns the fd; close()
/// (or destruction) releases it, after which writes become no-ops — so a
/// Client sink can safely outlive its session. MSG_NOSIGNAL keeps a peer
/// that hung up from killing the process with SIGPIPE. Each framed line
/// goes out in one send(): with Nagle off, two sends would be two segments.
class SocketWriter {
 public:
  explicit SocketWriter(int fd) : fd_(fd) {}
  ~SocketWriter() { close(); }

  SocketWriter(const SocketWriter&) = delete;
  SocketWriter& operator=(const SocketWriter&) = delete;

  void line(const std::string& json) {
    const LockGuard lock(mu_);
    if (fd_ < 0) return;
    std::string framed = json;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        // Peer gone (EPIPE/ECONNRESET/...): drop the fd, swallow the
        // event — the reader side notices the hangup and tears down.
        ::close(fd_);
        fd_ = -1;
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  void close() {
    const LockGuard lock(mu_);
    if (fd_ < 0) return;
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  Mutex mu_;
  int fd_ FSBB_GUARDED_BY(mu_);
};

}  // namespace

struct Listener::Session {
  std::shared_ptr<Client> client;
  std::shared_ptr<SocketWriter> writer;
  std::atomic<bool> done{false};
  std::thread thread;
};

Listener::Listener(Server& server, Options options)
    : server_(server), options_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  FSBB_CHECK_MSG(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw CheckFailure("invalid bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw CheckFailure("cannot listen on " + options_.bind_address + ":" +
                       std::to_string(options_.port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  FSBB_CHECK(::getsockname(listen_fd_,
                           reinterpret_cast<sockaddr*>(&bound),
                           &bound_len) == 0);
  port_ = ntohs(bound.sin_port);
}

Listener::~Listener() {
  request_stop();
  {
    const LockGuard lock(mu_);
    for (auto& session : sessions_) {
      if (session->thread.joinable()) session->thread.join();
    }
    sessions_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Listener::reap_locked() {
  auto it = sessions_.begin();
  while (it != sessions_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t Listener::active_sessions() {
  const LockGuard lock(mu_);
  reap_locked();
  return sessions_.size();
}

void Listener::serve() {
  FSBB_CHECK_MSG(listen_fd_ >= 0, "listener was not bound");
  while (!stop_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      const LockGuard lock(mu_);
      reap_locked();
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Nagle off: every request answers with two small lines, `accepted`
    // and then `result` (a solve's from the job's completion callback on a
    // worker thread, so they cannot share a send). With Nagle on, `result`
    // waits until the peer ACKs `accepted`, and peers delay that ACK
    // (40 ms minimum on Linux).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const LockGuard lock(mu_);
    reap_locked();
    if (sessions_.size() >= server_.options().max_connections) {
      server_.metrics().record_connection_rejected();
      SocketWriter turned_away(fd);  // takes fd ownership; closes on exit
      JsonWriter o;
      o.str("event", "error");
      o.str("error", "server at max connections (" +
                         std::to_string(server_.options().max_connections) +
                         "); retry later");
      turned_away.line(o.done());
      continue;
    }

    server_.metrics().record_connection_opened();
    auto session = std::make_unique<Session>();
    session->writer = std::make_shared<SocketWriter>(fd);
    const std::shared_ptr<SocketWriter> writer = session->writer;
    session->client = std::make_shared<Client>(
        server_, [writer](const std::string& json) { writer->line(json); });
    Session* raw = session.get();
    session->thread = std::thread([this, raw, fd] { run_session(raw, fd); });
    sessions_.push_back(std::move(session));
  }

  // Unwind: every session sees stop_ within one poll tick and tears
  // itself down; join them all before returning.
  std::vector<std::unique_ptr<Session>> sessions;
  {
    const LockGuard lock(mu_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
  }
}

void Listener::run_session(Session* session, int fd) {
  BoundedLineReader reader(server_.options().max_line_bytes);
  const std::uint64_t idle_limit_ms = server_.options().idle_timeout_ms;
  auto last_activity = std::chrono::steady_clock::now();
  char buf[4096];

  bool keep_going = true;
  while (keep_going && !stop_requested()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      if (idle_limit_ms > 0) {
        const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - last_activity)
                              .count();
        if (static_cast<std::uint64_t>(idle) >= idle_limit_ms) {
          server_.metrics().record_idle_timeout();
          JsonWriter o;
          o.str("event", "error");
          o.str("error", "idle timeout after " +
                             std::to_string(idle_limit_ms) +
                             "ms without a request");
          session->writer->line(o.done());
          break;
        }
      }
      continue;
    }

    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    last_activity = std::chrono::steady_clock::now();
    for (const BoundedLineReader::Line& line :
         reader.feed(buf, static_cast<std::size_t>(n))) {
      if (line.oversized) {
        session->client->handle_oversized_line();
        continue;
      }
      if (session->client->handle_line(line.text) ==
          Client::Action::kShutdown) {
        if (server_.options().allow_remote_shutdown) request_stop();
        keep_going = false;
        break;
      }
    }
  }

  // Teardown order matters: close() first (cancels this peer's jobs and
  // gates the sink), then release the fd. Job callbacks may still run
  // afterwards — their emits are discarded, their quota releases and
  // cache inserts still happen.
  session->client->close();
  session->writer->close();
  server_.metrics().record_connection_closed();
  session->done.store(true, std::memory_order_release);
}

}  // namespace fsbb::serve
