// The serve-mix transport: an fsbb_serve child process and NDJSON TCP
// connections to it.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// `fsbb_serve --listen 0 ...` as a child process. The constructor returns
/// once the server announced its ephemeral port; the destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }

  /// Stops and reaps the child; safe to call twice.
  void stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// One blocking NDJSON connection to 127.0.0.1:port.
class LineClient {
 public:
  explicit LineClient(int port);
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send(const std::string& line);
  /// Next complete line; throws when the peer closed the connection.
  std::string read_line();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
