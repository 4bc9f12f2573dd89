#include "dist/worker.h"

#include <algorithm>
#include <atomic>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/backend_registry.h"
#include "api/report.h"
#include "api/solver_config.h"
#include "common/check.h"
#include "common/json.h"
#include "common/mutex.h"
#include "core/pool_io.h"
#include "core/search_control.h"
#include "fsp/lb_data.h"
#include "serve/line_io.h"

namespace fsbb::dist {
namespace {

/// Serializes the stdout stream: the reader thread (accepted/rejected/
/// error) and the solve thread (incumbent/checkpoint/done) both write.
class EventOut {
 public:
  explicit EventOut(std::ostream& out) : out_(out) {}

  void line(const std::string& json) {
    const LockGuard lock(mu_);
    out_ << json << "\n" << std::flush;
  }

 private:
  Mutex mu_;
  std::ostream& out_;
};

std::string permutation_json(const std::vector<fsp::JobId>& perm) {
  std::string out = "[";
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(perm[i]);
  }
  return out + "]";
}

/// Everything one accepted shard solve owns. Shared between the reader
/// thread (injects, recall, shutdown) and the solve thread.
struct Dispatch {
  std::string id;
  std::optional<fsp::Instance> instance;
  std::optional<fsp::LowerBoundData> data;
  api::SolverConfig config;
  std::unique_ptr<api::Backend> backend;
  core::FrozenPool pool;
  std::uint64_t slice_nodes = 0;

  core::SearchControl control;
  std::atomic<bool> recall{false};

  /// Latest checkpoint event line, re-emitted on {"op":"checkpoint"}.
  Mutex checkpoint_mu;
  std::string last_checkpoint FSBB_GUARDED_BY(checkpoint_mu);
};

class Worker {
 public:
  Worker(std::istream& in, std::ostream& out, const WorkerOptions& options)
      : in_(in), out_(out), options_(options) {}

  int run();

 private:
  void handle_solve(const JsonValue& request);
  void handle_inject(const JsonValue& request);
  void handle_checkpoint();
  void handle_recall();

  void reject(const std::string& id, const std::string& error) {
    JsonWriter o;
    o.str("event", "rejected");
    o.str("id", id);
    o.str("error", error);
    out_.line(o.done());
  }

  void protocol_error(const std::string& error) {
    JsonWriter o;
    o.str("event", "error");
    o.str("error", error);
    out_.line(o.done());
  }

  /// The current dispatch if it is still solving, else null.
  std::shared_ptr<Dispatch> active();

  void solve_loop(std::shared_ptr<Dispatch> d);

  std::istream& in_;
  EventOut out_;
  const WorkerOptions options_;

  Mutex mu_;
  std::shared_ptr<Dispatch> current_ FSBB_GUARDED_BY(mu_);
  std::thread solver_ FSBB_GUARDED_BY(mu_);

  /// Tightest incumbent ever injected, folded into the next dispatch too
  /// (an inject that lands between shards must not be lost).
  std::atomic<fsp::Time> injected_ub_{std::numeric_limits<fsp::Time>::max()};
};

std::shared_ptr<Dispatch> Worker::active() {
  const LockGuard lock(mu_);
  return current_;
}

int Worker::run() {
  out_.line("{\"event\":\"ready\"}");
  std::string line;
  while (std::getline(in_, line)) {
    if (!serve::normalize_transport_line(line)) continue;
    JsonValue request;
    try {
      request = JsonValue::parse(line);
    } catch (const std::exception& e) {
      protocol_error(e.what());
      continue;
    }
    const std::string op = request.string_or("op", "");
    if (op == "shutdown") break;
    try {
      if (op == "solve") {
        handle_solve(request);
      } else if (op == "inject_incumbent") {
        handle_inject(request);
      } else if (op == "checkpoint") {
        handle_checkpoint();
      } else if (op == "recall") {
        handle_recall();
      } else {
        protocol_error("unknown op '" + op + "'");
      }
    } catch (const std::exception& e) {
      protocol_error(e.what());
    }
  }

  // Shutdown (explicit or EOF): cancel the in-flight shard — the solve
  // thread emits its terminal event — and join it.
  std::thread solver;
  std::shared_ptr<Dispatch> current;
  {
    const LockGuard lock(mu_);
    current = current_;
    solver = std::move(solver_);
  }
  if (current) current->control.request_cancel();
  if (solver.joinable()) solver.join();
  return 0;
}

void Worker::handle_solve(const JsonValue& request) {
  const std::string id = request.string_or("id", "");
  if (id.empty()) {
    reject(id, "solve needs a non-empty \"id\"");
    return;
  }
  if (active()) {
    reject(id, "worker busy (one shard at a time)");
    return;
  }
  const JsonValue* cli = request.find("cli");
  if (cli == nullptr) {
    reject(id, "solve needs a \"cli\" string or array");
    return;
  }
  const JsonValue* pool_text = request.find("pool");
  if (pool_text == nullptr || !pool_text->is_string()) {
    reject(id, "solve needs a \"pool\" string (core/pool_io text format)");
    return;
  }

  auto d = std::make_shared<Dispatch>();
  d->id = id;
  try {
    d->config = api::SolverConfig::from_cli_payload(*cli);
    d->instance.emplace(api::make_one_instance(d->config.instance));
    d->pool = core::read_frozen_pool_string(pool_text->as_string(),
                                            "solve request \"pool\"");
    FSBB_CHECK_MSG(d->pool.nodes.front().jobs() == d->instance->jobs(),
                   "pool jobs do not match the instance");

    const std::int64_t slice = request.int_or(
        "slice_nodes", static_cast<std::int64_t>(options_.default_slice_nodes));
    FSBB_CHECK_MSG(slice >= 1, "slice_nodes must be >= 1");
    d->slice_nodes = static_cast<std::uint64_t>(slice);
    // Slicing owns the node budget; a budget in the cli would silently
    // truncate the shard mid-checkpoint.
    d->config.node_budget = d->slice_nodes;

    d->data.emplace(fsp::LowerBoundData::build(*d->instance));
    api::BackendContext ctx;
    ctx.instance = &*d->instance;
    ctx.data = &*d->data;
    ctx.config = &d->config;
    ctx.control = &d->control;
    ctx.collect_pool_on_stop = true;
    d->backend =
        api::BackendRegistry::global().create(d->config.backend, ctx);
    FSBB_CHECK_MSG(d->backend->collects_remaining_pool(),
                   "backend '" + d->config.backend +
                       "' cannot checkpoint its pool; distributed shards "
                       "need an engine backend (cpu-serial, cpu-threads, "
                       "callback, gpu-sim, adaptive)");
  } catch (const std::exception& e) {
    reject(id, e.what());
    return;
  }

  // Injects that arrived while idle still tighten this shard.
  const fsp::Time injected = injected_ub_.load(std::memory_order_acquire);
  if (injected < std::numeric_limits<fsp::Time>::max()) {
    d->control.offer_incumbent(injected);
  }

  // Stream locally-found incumbents live (the coordinator broadcasts
  // them); ticks stay local — the coordinator has no use for heartbeats.
  const std::string event_id = d->id;
  d->control.set_sink([this, event_id](const core::SearchEvent& event) {
    if (event.kind != core::SearchEvent::Kind::kIncumbent) return;
    JsonWriter o;
    o.str("event", "incumbent");
    o.str("id", event_id);
    o.integer("value", event.incumbent);
    o.field("permutation", permutation_json(event.permutation));
    out_.line(o.done());
  });

  {
    const LockGuard lock(mu_);
    if (solver_.joinable()) solver_.join();
    current_ = d;
    // Accepted goes out before the solve thread exists: every event of a
    // dispatch (incumbent/checkpoint/done) strictly follows its accepted
    // line, so stream consumers can attribute events without buffering.
    JsonWriter o;
    o.str("event", "accepted");
    o.str("id", id);
    out_.line(o.done());
    solver_ = std::thread([this, d] { solve_loop(d); });
  }
}

void Worker::handle_inject(const JsonValue& request) {
  const JsonValue* value = request.find("value");
  if (value == nullptr || !value->is_number()) {
    protocol_error("inject_incumbent needs a numeric \"value\"");
    return;
  }
  const auto ub = static_cast<fsp::Time>(value->as_int());
  fsp::Time cur = injected_ub_.load(std::memory_order_relaxed);
  while (ub < cur && !injected_ub_.compare_exchange_weak(
                         cur, ub, std::memory_order_acq_rel)) {
  }
  if (const std::shared_ptr<Dispatch> d = active()) {
    d->control.offer_incumbent(ub);
  }
}

void Worker::handle_checkpoint() {
  const std::shared_ptr<Dispatch> d = active();
  if (!d) {
    protocol_error("checkpoint: no active solve");
    return;
  }
  std::string last;
  {
    const LockGuard lock(d->checkpoint_mu);
    last = d->last_checkpoint;
  }
  if (last.empty()) {
    protocol_error("checkpoint: no checkpoint available yet");
    return;
  }
  out_.line(last);
}

void Worker::handle_recall() {
  const std::shared_ptr<Dispatch> d = active();
  if (!d) {
    protocol_error("recall: no active solve");
    return;
  }
  d->recall.store(true, std::memory_order_release);
  d->control.request_cancel();
}

void Worker::solve_loop(std::shared_ptr<Dispatch> d) {
  std::vector<core::Subproblem> nodes = std::move(d->pool.nodes);
  fsp::Time ub = d->pool.incumbent;
  std::vector<fsp::JobId> best_perm;
  core::EngineStats total;
  total.initial_ub = ub;
  std::uint64_t seq = 0;

  // The terminal event and the idle transition must be one atomic step:
  // the coordinator re-dispatches the instant it reads the terminal line,
  // and that solve request must find `current_` already cleared. Emitting
  // under mu_ orders the line strictly before any later active() check.
  const auto finish = [&](const std::string& json) {
    const LockGuard lock(mu_);
    out_.line(json);
    current_.reset();
  };

  try {
    for (;;) {
      ub = std::min(ub, d->control.external_incumbent());
      core::SolveResult result = d->backend->solve_from(std::move(nodes), ub);
      nodes.clear();

      // Sequential slices: counters and both clocks simply add up.
      total.add_counters(result.stats);
      total.wall_seconds += result.stats.wall_seconds;
      total.bounding_seconds += result.stats.bounding_seconds;

      if (result.best_makespan < ub && !result.best_permutation.empty()) {
        best_perm = std::move(result.best_permutation);
      }
      ub = std::min(ub, result.best_makespan);

      if (result.stop_reason == core::StopReason::kBudget) {
        nodes = std::move(result.remaining_pool);
        if (nodes.empty()) continue;  // drained at the boundary: next slice
                                      // proves it and emits done
        core::FrozenPool snapshot;
        snapshot.nodes = nodes;  // copy: the next slice consumes `nodes`
        snapshot.incumbent = ub;
        JsonWriter o;
        o.str("event", "checkpoint");
        o.str("id", d->id);
        o.integer("seq", ++seq);
        o.integer("nodes", nodes.size());
        o.integer("incumbent", ub);
        o.str("pool", core::write_frozen_pool_string(snapshot));
        const std::string line = o.done();
        {
          const LockGuard lock(d->checkpoint_mu);
          d->last_checkpoint = line;
        }
        out_.line(line);
        continue;
      }

      if (result.stop_reason == core::StopReason::kCanceled &&
          d->recall.load(std::memory_order_acquire)) {
        JsonWriter o;
        o.str("event", "recalled");
        o.str("id", d->id);
        o.integer("incumbent", ub);
        o.integer("nodes", result.remaining_pool.size());
        if (!result.remaining_pool.empty()) {
          core::FrozenPool snapshot;
          snapshot.nodes = std::move(result.remaining_pool);
          snapshot.incumbent = ub;
          o.str("pool", core::write_frozen_pool_string(snapshot));
        }
        o.field("permutation", permutation_json(best_perm));
        o.field("stats", api::engine_stats_to_json(total));
        finish(o.done());
        return;
      }

      // Terminal: optimal (shard exhausted), canceled (shutdown), or an
      // engine-level deadline from the shard's own cli.
      JsonWriter o;
      o.str("event", "done");
      o.str("id", d->id);
      o.integer("best", ub);
      o.field("permutation", permutation_json(best_perm));
      o.boolean("proven_optimal", result.proven_optimal);
      o.str("stop_reason", core::to_string(result.stop_reason));
      o.field("stats", api::engine_stats_to_json(total));
      finish(o.done());
      return;
    }
  } catch (const std::exception& e) {
    JsonWriter o;
    o.str("event", "done");
    o.str("id", d->id);
    o.integer("best", ub);
    o.field("permutation", permutation_json(best_perm));
    o.boolean("proven_optimal", false);
    o.str("stop_reason", core::to_string(core::StopReason::kCanceled));
    o.field("stats", api::engine_stats_to_json(total));
    o.str("error", e.what());
    finish(o.done());
  }
}

}  // namespace

int run_worker(std::istream& in, std::ostream& out,
               const WorkerOptions& options) {
  Worker worker(in, out, options);
  return worker.run();
}

}  // namespace fsbb::dist
