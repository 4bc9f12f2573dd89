// serve::Client protocol behavior against a live Server: structured
// errors for malformed/oversized/unknown requests, explicit-instance
// submits, the metrics op, tenant/priority overrides, and close()
// canceling a peer's jobs while muting its sink.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "serve/server.h"

namespace fsbb::serve {
namespace {

/// Collects sink lines; wait_for() polls for the first line containing a
/// substring (events arrive from service worker threads).
struct LineCollector {
  std::mutex mu;
  std::vector<std::string> lines;

  Client::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    };
  }

  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lock(mu);
    return lines;
  }

  std::string wait_for(const std::string& needle, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        for (const std::string& line : lines) {
          if (line.find(needle) != std::string::npos) return line;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ADD_FAILURE() << "no line containing: " << needle;
    return "";
  }
};

ServerOptions small_options() {
  ServerOptions options;
  options.workers = 2;
  options.quiet_progress = true;
  return options;
}

TEST(ServeClient, MalformedAndUnknownRequestsAnswerErrors) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());

  EXPECT_EQ(client->handle_line("{not json"), Client::Action::kContinue);
  EXPECT_EQ(client->handle_line("{\"op\":\"fly\"}"), Client::Action::kContinue);
  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\":\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("unknown op 'fly'"), std::string::npos);

  const JsonValue metrics =
      JsonValue::parse(server.metrics_json());
  EXPECT_EQ(metrics.find("errors")->int_or("malformed_requests", -1), 2);
}

TEST(ServeClient, SubmitValidationRejectsWithReasons) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());

  client->handle_line(R"({"op":"submit","cli":"--jobs 4"})");
  out.wait_for("non-empty \\\"id\\\"");
  client->handle_line(R"({"op":"submit","id":"a"})");
  out.wait_for("\\\"cli\\\" string or array");
  client->handle_line(
      R"({"op":"submit","id":"a","cli":"--jobs 4","priority":"urgent"})");
  out.wait_for("unknown priority");
  client->handle_line(
      R"({"op":"submit","id":"a","cli":"--jobs 4","cache":"always"})");
  out.wait_for("use | refresh | bypass");
  client->handle_line(
      R"({"op":"submit","id":"a","cli":"--jobs 4 --machines 3 --count 2"})");
  out.wait_for("one instance per solve (--count 1), got --count 2");
  // None of these reached the service or charged a quota.
  EXPECT_EQ(server.service().jobs_submitted(), 0u);
  EXPECT_EQ(server.admission().active_jobs("anonymous"), 0u);
}

TEST(ServeClient, OversizedLineAnswersStructuredError) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_oversized_line();
  const std::string line = out.wait_for("\"event\":\"error\"");
  EXPECT_NE(line.find("exceeds"), std::string::npos);
  const JsonValue metrics = JsonValue::parse(server.metrics_json());
  EXPECT_EQ(metrics.find("errors")->int_or("oversized_lines", -1), 1);
}

TEST(ServeClient, ExplicitInstanceSubmitSolvesAndEchoesTenant) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_line(
      R"({"op":"submit","id":"w1","tenant":"acme","priority":"high",)"
      R"("cli":"--backend cpu-serial",)"
      R"("instance":{"name":"wire-3x2","ptm":[[3,2],[1,4],[2,2]]}})");
  const std::string accepted = out.wait_for("\"event\":\"accepted\"");
  EXPECT_NE(accepted.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(accepted.find("\"priority\":\"high\""), std::string::npos);
  EXPECT_NE(accepted.find("\"cache\":\"miss\""), std::string::npos);
  const JsonValue result =
      JsonValue::parse(out.wait_for("\"event\":\"result\""));
  EXPECT_TRUE(result.bool_or("ok", false));
  const JsonValue* report = result.find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("instance")->string_or("name", ""), "wire-3x2");
  // The report echoes who asked — billing-grade attribution.
  EXPECT_EQ(report->find("config")->string_or("tenant", ""), "acme");
  client->drain();
}

TEST(ServeClient, MalformedExplicitInstanceRejects) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_line(
      R"({"op":"submit","id":"w2","cli":"","instance":{"name":"bad"}})");
  out.wait_for("\\\"ptm\\\" array");
  client->handle_line(
      R"({"op":"submit","id":"w3","cli":"","instance":{"ptm":[[1,2],[3]]}})");
  out.wait_for("same machine count");
  // A time fsp::Time cannot hold, and a total work whose makespans would
  // wrap: both answer `rejected`, never a wrong optimum.
  client->handle_line(
      R"({"op":"submit","id":"w4","cli":"",)"
      R"("instance":{"ptm":[[4294967297,5],[3,4]]}})");
  EXPECT_NE(out.wait_for("4294967297").find("\"event\":\"rejected\""),
            std::string::npos);
  client->handle_line(
      R"({"op":"submit","id":"w5","cli":"","instance":{"ptm":)"
      R"([[2000000000,2000000000],[2000000000,2000000000]]}})");
  EXPECT_NE(out.wait_for("total work 8000000000")
                .find("\"event\":\"rejected\""),
            std::string::npos);
}

TEST(ServeClient, MetricsOpReturnsFullRegistry) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_line(R"({"op":"metrics"})");
  const JsonValue event =
      JsonValue::parse(out.wait_for("\"event\":\"metrics\""));
  const JsonValue* data = event.find("data");
  ASSERT_NE(data, nullptr);
  for (const char* section : {"queue", "admission", "cache", "latency_ms",
                              "backends", "connections", "errors"}) {
    EXPECT_NE(data->find(section), nullptr) << section;
  }
}

TEST(ServeClient, CloseCancelsJobsAndMutesTheSink) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  // A search that cannot finish fast: weak explicit upper bound.
  client->handle_line(
      R"({"op":"submit","id":"long","tenant":"t",)"
      R"("cli":"--jobs 14 --machines 10 --seed 777 --ub 1000000"})");
  out.wait_for("\"event\":\"accepted\"");
  EXPECT_EQ(client->jobs_open(), 1u);

  client->close();
  const std::size_t muted_at = out.snapshot().size();
  client->drain();  // job reaches a terminal state (canceled)
  // The quota was released by the completion callback even though the
  // peer is gone, and nothing was emitted after close().
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.admission().active_jobs("t") != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.admission().active_jobs("t"), 0u);
  EXPECT_EQ(out.snapshot().size(), muted_at);
}

}  // namespace
}  // namespace fsbb::serve
