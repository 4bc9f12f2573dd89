// NDJSON line reading for every process-level front end: fsbb_serve's
// stdio loop and socket sessions, the distributed worker, and the
// coordinator's per-worker stream readers all speak "one JSON object per
// line".
//
// Two realities of line-oriented pipes are handled here so each end
// handles them identically: CRLF clients (Windows netcat, telnet,
// printf "...\r\n") leave a trailing '\r' on every line, and interactive
// clients send blank keep-alive lines — both must be invisible to the
// JSON parser instead of surfacing as "invalid JSON at byte N" errors.
//
// "One request per line" is also an invitation for a malformed (or
// malicious) client to stream gigabytes without ever sending '\n' — an
// unbounded std::getline happily grows a string until the daemon OOMs.
// The serving transports therefore read through a cap: a line longer than
// max_line_bytes is *discarded* (the rest of it is skipped up to the next
// '\n') and surfaced to the caller as an oversized marker, so the front
// end can answer with a structured error instead of dying. The connection
// stays usable — the next well-behaved line parses normally.
#pragma once

#include <cstddef>
#include <istream>
#include <string>
#include <vector>

namespace fsbb::serve {

/// Normalizes one just-read transport line in place: strips one trailing
/// '\r' (CRLF framing). Returns false when the remaining line is empty or
/// whitespace-only — the caller must silently skip it, not parse it.
bool normalize_transport_line(std::string& line);

/// Incremental splitter for a nonblocking byte stream: feed read() chunks
/// in, take completed lines out (normalized, blank lines dropped), so a
/// wakeup that delivers half a line just buffers until the '\n' arrives.
/// A line whose length exceeds the cap is dropped and reported instead of
/// buffered: the reader holds at most max_line_bytes + one read chunk in
/// memory, whatever the peer sends. The coordinator passes
/// std::numeric_limits<std::size_t>::max() — worker checkpoint lines carry
/// whole serialized pools.
class BoundedLineReader {
 public:
  struct Line {
    std::string text;       ///< normalized line ("" when oversized)
    bool oversized = false; ///< true: a line exceeded the cap and was dropped
  };

  explicit BoundedLineReader(std::size_t max_line_bytes);

  /// Appends `size` bytes; returns completed lines (CRLF-normalized,
  /// blank lines dropped) and one oversized marker per discarded line.
  std::vector<Line> feed(const char* data, std::size_t size);

  /// Bytes of the unterminated trailing line still buffered.
  std::size_t pending() const { return buffer_.size(); }

 private:
  std::size_t max_;
  std::string buffer_;
  /// True while skipping the remainder of an oversized line.
  bool discarding_ = false;
};

/// One bounded getline from a (blocking) istream — the stdio daemon loop.
enum class LineStatus {
  kLine,       ///< `out` holds a complete line (normalized, possibly blank)
  kOversized,  ///< the line exceeded the cap and was skipped entirely
  kEof,        ///< stream exhausted, nothing read
};

/// Reads up to '\n' (or EOF) into `out`, never holding more than
/// max_line_bytes; an over-long line is skipped to its '\n' and reported
/// as kOversized. A final unterminated line still counts as a line.
LineStatus read_line_bounded(std::istream& in, std::string& out,
                             std::size_t max_line_bytes);

}  // namespace fsbb::serve
