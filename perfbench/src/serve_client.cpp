#include "serve_client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/json.h"

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  int out[2];
  if (pipe(out) != 0) fail("pipe");
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) fail("fork");
  if (pid_ == 0) {
    dup2(out[1], STDOUT_FILENO);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  stdout_fd_ = out[0];

  // The first stdout line is {"event":"listening","port":N}.
  std::string line;
  char ch = 0;
  while (read(stdout_fd_, &ch, 1) == 1 && ch != '\n') line.push_back(ch);
  try {
    const fsbb::JsonValue event = fsbb::JsonValue::parse(line);
    const fsbb::JsonValue* port = event.find("port");
    if (event.string_or("event", "") != "listening" || port == nullptr) {
      throw std::runtime_error("unexpected first line '" + line + "'");
    }
    port_ = static_cast<int>(port->as_int());
  } catch (const std::exception& e) {
    stop();
    throw std::runtime_error(std::string("fsbb_serve did not start: ") +
                             e.what());
  }
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

LineClient::LineClient(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd_);
    fail("connect");
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

void LineClient::send(const std::string& line) {
  const std::string data = line + "\n";
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string LineClient::read_line() {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("recv");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace perfbench
