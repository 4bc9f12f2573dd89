// Line reading: both primitives cap memory per request line, discard
// over-long lines (surfacing a marker instead of dying or buffering
// without limit), normalize CRLF, and keep the stream usable for the next
// well-behaved line. The DistTransport cases drive the same reader the
// way the coordinator does: uncapped, over worker stdout.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "serve/line_io.h"

namespace fsbb::serve {
namespace {

std::vector<BoundedLineReader::Line> feed_str(BoundedLineReader& reader,
                                              const std::string& bytes) {
  return reader.feed(bytes.data(), bytes.size());
}

TEST(ServeLineIO, ReaderSplitsLinesAcrossArbitraryChunks) {
  BoundedLineReader reader(64);
  auto first = feed_str(reader, "{\"op\":\"st");
  EXPECT_TRUE(first.empty());
  EXPECT_EQ(reader.pending(), 9u);
  auto rest = feed_str(reader, "atus\"}\n{\"op\":\"metrics\"}\npartial");
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].text, "{\"op\":\"status\"}");
  EXPECT_EQ(rest[1].text, "{\"op\":\"metrics\"}");
  EXPECT_FALSE(rest[0].oversized);
  EXPECT_EQ(reader.pending(), 7u);  // "partial" still buffered
  auto tail = feed_str(reader, "\n");
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].text, "partial");
}

TEST(ServeLineIO, ReaderNormalizesCrlfAndDropsBlankLines) {
  BoundedLineReader reader(64);
  auto lines = feed_str(reader, "a\r\n\r\n\nb\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "a");
  EXPECT_EQ(lines[1].text, "b");
}

TEST(ServeLineIO, ReaderDiscardsOversizedLineAndRecovers) {
  BoundedLineReader reader(8);
  // One oversized line streamed in several chunks: exactly one marker,
  // no accumulation, and the following line parses normally.
  auto a = feed_str(reader, "0123456789");
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0].oversized);
  auto b = feed_str(reader, "more-of-the-same");
  EXPECT_TRUE(b.empty());  // still the same discarded line
  EXPECT_EQ(reader.pending(), 0u);
  auto c = feed_str(reader, "tail\nok\n");
  ASSERT_EQ(c.size(), 1u);  // "tail" belongs to the discarded line
  EXPECT_EQ(c[0].text, "ok");
  EXPECT_FALSE(c[0].oversized);
}

TEST(ServeLineIO, ReaderEmitsOneMarkerPerOversizedLine) {
  BoundedLineReader reader(4);
  auto lines = feed_str(reader, "toolong1\nalsotoolong\nok\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(lines[0].oversized);
  EXPECT_TRUE(lines[1].oversized);
  EXPECT_EQ(lines[2].text, "ok");
}

TEST(ServeLineIO, ReaderRejectsTinyCap) {
  EXPECT_THROW(BoundedLineReader(1), CheckFailure);
}

TEST(ServeLineIO, StreamReadsLinesWithinCap) {
  std::istringstream in("first\nsecond\n");
  std::string line;
  EXPECT_EQ(read_line_bounded(in, line, 32), LineStatus::kLine);
  EXPECT_EQ(line, "first");
  EXPECT_EQ(read_line_bounded(in, line, 32), LineStatus::kLine);
  EXPECT_EQ(line, "second");
  EXPECT_EQ(read_line_bounded(in, line, 32), LineStatus::kEof);
}

TEST(ServeLineIO, StreamSkipsOversizedLineAndContinues) {
  std::istringstream in(std::string(10000, 'x') + "\nok\n");
  std::string line;
  EXPECT_EQ(read_line_bounded(in, line, 64), LineStatus::kOversized);
  EXPECT_EQ(read_line_bounded(in, line, 64), LineStatus::kLine);
  EXPECT_EQ(line, "ok");
}

TEST(ServeLineIO, StreamHandlesLinesLongerThanInternalChunk) {
  // Longer than the 4096-byte getline chunk but within the cap: must
  // come back intact, not truncated or flagged.
  const std::string big(6000, 'y');
  std::istringstream in(big + "\nnext\n");
  std::string line;
  EXPECT_EQ(read_line_bounded(in, line, 1 << 20), LineStatus::kLine);
  EXPECT_EQ(line, big);
  EXPECT_EQ(read_line_bounded(in, line, 1 << 20), LineStatus::kLine);
  EXPECT_EQ(line, "next");
}

TEST(ServeLineIO, StreamReturnsFinalUnterminatedLine) {
  std::istringstream in("no-newline-at-eof");
  std::string line;
  EXPECT_EQ(read_line_bounded(in, line, 64), LineStatus::kLine);
  EXPECT_EQ(line, "no-newline-at-eof");
  EXPECT_EQ(read_line_bounded(in, line, 64), LineStatus::kEof);
}


// --- the coordinator's uncapped reader and the shared line normalization --

BoundedLineReader uncapped() {
  return BoundedLineReader(std::numeric_limits<std::size_t>::max());
}

std::vector<std::string> texts(
    const std::vector<BoundedLineReader::Line>& lines) {
  std::vector<std::string> out;
  for (const BoundedLineReader::Line& line : lines) {
    EXPECT_FALSE(line.oversized);
    out.push_back(line.text);
  }
  return out;
}

TEST(DistTransport, NormalizeStripsOneTrailingCarriageReturn) {
  std::string line = "{\"op\":\"status\"}\r";
  EXPECT_TRUE(normalize_transport_line(line));
  EXPECT_EQ(line, "{\"op\":\"status\"}");

  // Only the CRLF framing '\r' goes; an embedded one is payload.
  line = "a\rb\r";
  EXPECT_TRUE(normalize_transport_line(line));
  EXPECT_EQ(line, "a\rb");
}

TEST(DistTransport, NormalizeRejectsBlankLines) {
  for (const char* blank : {"", "\r", " ", "   ", "\t", " \t ", " \t\r"}) {
    std::string line = blank;
    EXPECT_FALSE(normalize_transport_line(line)) << '"' << blank << '"';
  }
}

TEST(DistTransport, NormalizeKeepsPayloadLinesIntact) {
  std::string line = "{}";
  EXPECT_TRUE(normalize_transport_line(line));
  EXPECT_EQ(line, "{}");

  // Leading/inner whitespace is the JSON parser's business, not ours.
  line = "  {\"a\": 1}";
  EXPECT_TRUE(normalize_transport_line(line));
  EXPECT_EQ(line, "  {\"a\": 1}");
}

TEST(DistTransport, LineReaderReassemblesSplitChunks) {
  BoundedLineReader reader = uncapped();
  const std::string stream =
      "{\"event\":\"ready\"}\n{\"event\":\"done\"}\n";
  std::vector<std::string> lines;
  // Feed one byte at a time — the worst poll(2) can do.
  for (const char c : stream) {
    for (std::string& line : texts(reader.feed(&c, 1))) {
      lines.push_back(std::move(line));
    }
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"event\":\"ready\"}");
  EXPECT_EQ(lines[1], "{\"event\":\"done\"}");
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(DistTransport, LineReaderDropsBlankAndNormalizesCrlf) {
  BoundedLineReader reader = uncapped();
  const std::vector<std::string> lines =
      texts(feed_str(reader, "a\r\n\r\n\n  \nb\n"));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

TEST(DistTransport, LineReaderBuffersUnterminatedTail) {
  BoundedLineReader reader = uncapped();
  const std::string head = "{\"half\":";
  EXPECT_TRUE(feed_str(reader, head).empty());
  EXPECT_EQ(reader.pending(), head.size());

  // A checkpoint line far past any request cap still comes back whole.
  const std::string pool(100000, '7');
  const std::vector<std::string> lines =
      texts(feed_str(reader, pool + "}\n"));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], head + pool + "}");
  EXPECT_EQ(reader.pending(), 0u);
}

}  // namespace
}  // namespace fsbb::serve
