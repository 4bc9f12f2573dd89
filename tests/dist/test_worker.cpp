// The distributed worker loop (fsbb_serve --worker) driven in-process over
// real pipes: protocol hygiene (ready/error/rejected events, CRLF and blank
// lines), a full shard solve to a done event, checkpoint emission and exact
// resume from a checkpointed sub-pool, and incumbent injection.
//
// Pipes rather than stringstreams because the worker cancels its in-flight
// shard on stdin EOF — a pre-filled stringstream would race the solve. The
// GNU stdio_filebuf extension wraps the fds; the codebase is POSIX-only
// (dist/process.h) so this is no new portability loss.
#include "dist/worker.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/solver.h"
#include "api/solver_config.h"
#include "common/json.h"
#include "core/pool_io.h"
#include "dist/frontier.h"
#include "fsp/lb_data.h"
#include "fsp/makespan.h"

namespace fsbb::dist {
namespace {

/// One in-process worker on its own thread, with line-oriented request and
/// event streams for the test to drive.
class WorkerHarness {
 public:
  WorkerHarness() {
    int to_worker[2], from_worker[2];
    EXPECT_EQ(::pipe(to_worker), 0);
    EXPECT_EQ(::pipe(from_worker), 0);
    worker_in_ = std::make_unique<__gnu_cxx::stdio_filebuf<char>>(
        to_worker[0], std::ios::in);
    worker_out_ = std::make_unique<__gnu_cxx::stdio_filebuf<char>>(
        from_worker[1], std::ios::out);
    requests_buf_ = std::make_unique<__gnu_cxx::stdio_filebuf<char>>(
        to_worker[1], std::ios::out);
    events_buf_ = std::make_unique<__gnu_cxx::stdio_filebuf<char>>(
        from_worker[0], std::ios::in);
    in_ = std::make_unique<std::istream>(worker_in_.get());
    out_ = std::make_unique<std::ostream>(worker_out_.get());
    requests_ = std::make_unique<std::ostream>(requests_buf_.get());
    events_ = std::make_unique<std::istream>(events_buf_.get());
    thread_ = std::thread([this] { exit_code_ = run_worker(*in_, *out_); });
  }

  ~WorkerHarness() {
    if (thread_.joinable()) shutdown();
  }

  void send(const std::string& line) { *requests_ << line << "\n" << std::flush; }

  /// Blocks until the worker emits its next event line.
  JsonValue next_event() {
    std::string line;
    EXPECT_TRUE(std::getline(*events_, line)) << "worker closed its stream";
    return JsonValue::parse(line);
  }

  /// Reads events until one matches `kind`, returning it (and any events
  /// skipped on the way, for callers that care).
  JsonValue next_event_of(const std::string& kind,
                          std::vector<JsonValue>* skipped = nullptr) {
    for (;;) {
      JsonValue event = next_event();
      if (event.string_or("event", "") == kind) return event;
      if (skipped != nullptr) skipped->push_back(std::move(event));
    }
  }

  int shutdown() {
    send("{\"op\":\"shutdown\"}");
    requests_.reset();
    requests_buf_.reset();  // close write end: EOF backs up the shutdown
    thread_.join();
    return exit_code_;
  }

 private:
  std::unique_ptr<__gnu_cxx::stdio_filebuf<char>> worker_in_, worker_out_,
      requests_buf_, events_buf_;
  std::unique_ptr<std::istream> in_, events_;
  std::unique_ptr<std::ostream> out_, requests_;
  std::thread thread_;
  int exit_code_ = -1;
};

struct Shard {
  fsp::Instance inst;
  std::int32_t seed;
  std::string pool_text;
  fsp::Time optimum;
};

/// A one-shard frontier for a small instance, with the serial engine's
/// proven optimum as the oracle. Built from the same InstanceSpec the
/// worker will regenerate from the request's cli tokens.
Shard make_shard(int jobs, int machines, std::int32_t seed,
                 std::size_t frontier_nodes) {
  api::InstanceSpec spec;
  spec.jobs = jobs;
  spec.machines = machines;
  spec.seed = seed;
  Shard s{std::move(api::make_instances(spec).front()), seed, "", 0};
  const auto data = fsp::LowerBoundData::build(s.inst);
  const FrontierResult r =
      build_root_frontier(s.inst, data, frontier_nodes, std::nullopt);
  EXPECT_FALSE(r.solved);
  s.pool_text = core::write_frozen_pool_string(r.frontier);
  api::SolverConfig config;
  config.backend = "cpu-serial";
  const api::SolveReport oracle = api::Solver(config).solve(s.inst);
  EXPECT_TRUE(oracle.proven_optimal);
  s.optimum = oracle.best_makespan;
  return s;
}

/// {"op":"solve","id":...,"cli":[--jobs...],"pool":...,"slice_nodes":...}
/// The cli regenerates the instance in the worker — the same InstanceSpec
/// language every front end speaks.
std::string solve_request(const std::string& id, const Shard& shard,
                          std::uint64_t slice_nodes) {
  JsonWriter o;
  o.str("op", "solve");
  o.str("id", id);
  std::string cli = "[\"--jobs\",\"" + std::to_string(shard.inst.jobs()) +
                    "\",\"--machines\"," + "\"" +
                    std::to_string(shard.inst.machines()) + "\",\"--seed\"," +
                    "\"" + std::to_string(shard.seed) +
                    "\",\"--backend\",\"cpu-serial\"]";
  o.field("cli", cli);
  o.str("pool", shard.pool_text);
  o.integer("slice_nodes", slice_nodes);
  return o.done();
}

TEST(DistWorker, AnnouncesReadyAndSurvivesProtocolNoise) {
  WorkerHarness w;
  EXPECT_EQ(w.next_event().string_or("event", ""), "ready");

  w.send("this is not json");
  EXPECT_EQ(w.next_event().string_or("event", ""), "error");

  w.send("");                      // blank keep-alive: silently skipped
  w.send("\r");                    // bare CRLF: likewise
  w.send("{\"op\":\"bogus\"}\r");  // CRLF-framed request still parses
  const JsonValue e = w.next_event();
  EXPECT_EQ(e.string_or("event", ""), "error");
  EXPECT_NE(e.string_or("error", "").find("bogus"), std::string::npos);

  EXPECT_EQ(w.shutdown(), 0);
}

TEST(DistWorker, RejectsMalformedSolveRequests) {
  WorkerHarness w;
  w.next_event_of("ready");

  w.send("{\"op\":\"solve\",\"cli\":[],\"pool\":\"x\"}");  // no id
  EXPECT_EQ(w.next_event().string_or("event", ""), "rejected");

  w.send("{\"op\":\"solve\",\"id\":\"s0\",\"cli\":[]}");  // no pool
  JsonValue e = w.next_event();
  EXPECT_EQ(e.string_or("event", ""), "rejected");
  EXPECT_EQ(e.string_or("id", ""), "s0");

  // A corrupt pool: the rejection names the transport source, not a file.
  w.send(
      "{\"op\":\"solve\",\"id\":\"s1\",\"cli\":[\"--jobs\",\"8\"],"
      "\"pool\":\"garbage\"}");
  e = w.next_event();
  EXPECT_EQ(e.string_or("event", ""), "rejected");
  EXPECT_NE(e.string_or("error", "").find("solve request"), std::string::npos);

  // Checkpoint/recall with nothing running are protocol errors, not crashes.
  w.send("{\"op\":\"checkpoint\"}");
  EXPECT_EQ(w.next_event().string_or("event", ""), "error");
  w.send("{\"op\":\"recall\"}");
  EXPECT_EQ(w.next_event().string_or("event", ""), "error");

  EXPECT_EQ(w.shutdown(), 0);
}

TEST(DistWorker, RejectsACountAboveOneBeforeGenerating) {
  WorkerHarness w;
  w.next_event_of("ready");
  w.send(
      "{\"op\":\"solve\",\"id\":\"s0\",\"cli\":[\"--jobs\",\"6\","
      "\"--machines\",\"3\",\"--count\",\"2\"],\"pool\":\"x\"}");
  const JsonValue e = w.next_event();
  EXPECT_EQ(e.string_or("event", ""), "rejected");
  EXPECT_NE(e.string_or("error", "").find(
                "one instance per solve (--count 1), got --count 2"),
            std::string::npos)
      << e.string_or("error", "");
  EXPECT_EQ(w.shutdown(), 0);
}

TEST(DistWorker, SolvesAShardToTheExactOptimum) {
  const Shard shard = make_shard(9, 5, 21, 12);

  WorkerHarness w;
  w.next_event_of("ready");
  w.send(solve_request("s0", shard, 1 << 20));
  w.next_event_of("accepted");

  const JsonValue done = w.next_event_of("done");
  EXPECT_EQ(done.string_or("id", ""), "s0");
  EXPECT_EQ(done.int_or("best", -1), shard.optimum);
  EXPECT_TRUE(done.bool_or("proven_optimal", false));
  EXPECT_EQ(done.string_or("stop_reason", ""), "optimal");
  ASSERT_NE(done.find("stats"), nullptr);
  const JsonValue& stats = *done.find("stats");
  EXPECT_GE(stats.int_or("generated", 0), stats.int_or("branched", 0));

  // The schedule travels with the result and actually has that makespan
  // (the root frontier seeds an NEH bound, so a strictly better schedule
  // may or may not exist; when one does, verify it).
  const JsonValue* perm = done.find("permutation");
  ASSERT_NE(perm, nullptr);
  if (!perm->as_array().empty()) {
    std::vector<fsp::JobId> p;
    for (const JsonValue& j : perm->as_array()) {
      p.push_back(static_cast<fsp::JobId>(j.as_int()));
    }
    EXPECT_EQ(fsp::makespan(shard.inst, p), shard.optimum);
  }

  EXPECT_EQ(w.shutdown(), 0);
}

TEST(DistWorker, CheckpointsCarryAResumableSubPool) {
  const Shard shard = make_shard(10, 5, 13, 16);

  // Tiny slices force checkpoint events at every slice boundary.
  WorkerHarness w;
  w.next_event_of("ready");
  w.send(solve_request("s0", shard, 20));
  w.next_event_of("accepted");

  std::vector<JsonValue> seen;
  const JsonValue done = w.next_event_of("done", &seen);
  EXPECT_EQ(done.int_or("best", -1), shard.optimum);
  EXPECT_TRUE(done.bool_or("proven_optimal", false));

  // At least one checkpoint streamed, with monotone seq and a pool whose
  // node count matches the advertised one.
  std::string checkpoint_pool;
  std::int64_t last_seq = 0;
  for (const JsonValue& event : seen) {
    if (event.string_or("event", "") != "checkpoint") continue;
    EXPECT_GT(event.int_or("seq", 0), last_seq);
    last_seq = event.int_or("seq", 0);
    const core::FrozenPool pool = core::read_frozen_pool_string(
        event.string_or("pool", ""), "checkpoint event");
    EXPECT_EQ(static_cast<std::int64_t>(pool.nodes.size()),
              event.int_or("nodes", -1));
    EXPECT_EQ(pool.incumbent, event.int_or("incumbent", -1));
    checkpoint_pool = event.string_or("pool", "");
  }
  ASSERT_GT(last_seq, 0) << "no checkpoint in " << seen.size() << " events";

  // Crash-recovery contract: a fresh solve from the *last* checkpoint's
  // sub-pool alone still reaches the exact optimum — the checkpoint is the
  // complete remaining work, not a hint.
  Shard resumed = shard;
  resumed.pool_text = checkpoint_pool;
  w.send(solve_request("s1", resumed, 1 << 20));
  w.next_event_of("accepted");
  const JsonValue redone = w.next_event_of("done");
  EXPECT_EQ(redone.int_or("best", -1), shard.optimum);
  EXPECT_TRUE(redone.bool_or("proven_optimal", false));

  EXPECT_EQ(w.shutdown(), 0);
}

TEST(DistWorker, InjectedIncumbentsTightenTheShardBound) {
  const Shard shard = make_shard(9, 5, 21, 12);

  WorkerHarness w;
  w.next_event_of("ready");
  // Inject while idle: the bound must stick to the next dispatch. A bound
  // *below* the optimum prunes the entire shard, so the done event reports
  // the injected value — proof the injection reached the engine.
  const fsp::Time impossible = shard.optimum - 1;
  w.send("{\"op\":\"inject_incumbent\",\"value\":" +
         std::to_string(impossible) + "}");
  w.send(solve_request("s0", shard, 1 << 20));
  w.next_event_of("accepted");
  const JsonValue done = w.next_event_of("done");
  EXPECT_EQ(done.int_or("best", -1), impossible);
  EXPECT_EQ(done.string_or("stop_reason", ""), "optimal");

  EXPECT_EQ(w.shutdown(), 0);
}

}  // namespace
}  // namespace fsbb::dist
