#include "trace.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>

#include "api/backend_registry.h"
#include "common/check.h"
#include "common/json.h"
#include "common/timer.h"
#include "gpusim/calibration.h"
#include "gpusim/kernel.h"

namespace perfbench {

using namespace fsbb;

namespace {

std::atomic<EngineTrace*> g_active{nullptr};

EngineTrace& active() {
  EngineTrace* trace = g_active.load(std::memory_order_acquire);
  FSBB_CHECK_MSG(trace != nullptr, "traced twin ran without an active trace");
  return *trace;
}

void add_call(CallAgg& agg, double seconds, std::size_t nodes) {
  agg.busy_s += seconds;
  ++agg.calls;
  agg.nodes += nodes;
}

/// Times iterate() of the wrapped resident pool.
class TimedPool final : public core::ResidentPool {
 public:
  explicit TimedPool(core::ResidentPool& inner) : inner_(inner) {}

  void iterate(fsp::Time ub, std::span<core::ResidentGroup> groups) override {
    const WallTimer timer;
    inner_.iterate(ub, groups);
    const double seconds = timer.seconds();
    std::size_t nodes = 0;
    for (const core::ResidentGroup& g : groups) nodes += g.bounds.size();
    add_call(active().iterate, seconds, nodes);
  }
  void release(std::uint32_t ticket) override { inner_.release(ticket); }
  core::ResidentPoolStats shard_stats() const override {
    return inner_.shard_stats();
  }

 private:
  core::ResidentPool& inner_;
};

/// Timing decorator over the evaluator a built-in backend would build.
class TimedEvaluator final : public core::BoundEvaluator {
 public:
  explicit TimedEvaluator(std::unique_ptr<core::BoundEvaluator> inner)
      : inner_(std::move(inner)) {
    if (core::ResidentPool* pool = inner_->resident_pool()) {
      pool_.emplace(*pool);
    }
  }

  void evaluate(std::span<core::Subproblem> batch) override {
    const WallTimer timer;
    inner_->evaluate(batch);
    add_call(active().eval, timer.seconds(), batch.size());
  }
  bool supports_sibling_batches() const override {
    return inner_->supports_sibling_batches();
  }
  void evaluate_siblings(std::span<const core::SiblingBatch> groups) override {
    const WallTimer timer;
    inner_->evaluate_siblings(groups);
    const double seconds = timer.seconds();
    std::size_t nodes = 0;
    for (const core::SiblingBatch& g : groups) nodes += g.bounds.size();
    add_call(active().eval, seconds, nodes);
  }
  core::ResidentPool* resident_pool() override {
    return pool_ ? &*pool_ : nullptr;
  }
  core::SubtreeDfs* subtree_dfs() override { return inner_->subtree_dfs(); }
  std::string name() const override { return inner_->name(); }
  const core::EvalLedger& ledger() const override { return inner_->ledger(); }

 private:
  std::unique_ptr<core::BoundEvaluator> inner_;
  std::optional<TimedPool> pool_;
};

// Engine batch sizes the registry uses when config.batch_size == 0.
std::size_t default_batch(const std::string& backend) {
  if (backend == "cpu-threads") return 64;
  if (backend == "gpu-sim") return 256;
  return 1;
}

struct GpuParts {
  std::unique_ptr<gpusim::SimDevice> device;
  std::unique_ptr<gpubb::GpuBoundEvaluator> evaluator;
};

// The registry's single-card gpu-sim construction.
GpuParts make_gpu(const api::BackendContext& ctx) {
  const api::SolverConfig& c = *ctx.config;
  FSBB_CHECK_MSG(c.gpu_devices == "1" && c.gpu_pool != gpubb::GpuPoolMode::kAuto,
                 "the benchmark drives one card with an explicit pool mode");
  GpuParts parts;
  parts.device = std::make_unique<gpusim::SimDevice>(api::device_spec_for(c));
  parts.evaluator = std::make_unique<gpubb::GpuBoundEvaluator>(
      *parts.device, *ctx.instance, *ctx.data, c.placement, c.block_threads,
      gpusim::GpuCalibration::fermi_defaults(), c.gpu_pool);
  return parts;
}

core::EngineOptions engine_options(const api::BackendContext& ctx,
                                   const std::string& backend) {
  const api::SolverConfig& c = *ctx.config;
  core::EngineOptions o;
  o.strategy = c.strategy;
  o.batch_size = c.batch_size != 0 ? c.batch_size : default_batch(backend);
  o.initial_ub = c.initial_ub;
  o.node_budget = c.node_budget;
  o.time_limit_seconds = c.time_limit_seconds;
  o.collect_pool_on_stop = ctx.collect_pool_on_stop;
  o.control = ctx.control;
  return o;
}

/// A traced twin: the built-in engine backend with a timed evaluator.
class TracedBackend final : public api::Backend {
 public:
  TracedBackend(std::string key, std::string backend,
                const api::BackendContext& ctx,
                std::unique_ptr<core::BoundEvaluator> inner,
                std::unique_ptr<gpusim::SimDevice> device = nullptr,
                const gpubb::GpuBoundEvaluator* gpu = nullptr)
      : key_(std::move(key)),
        backend_(std::move(backend)),
        ctx_(ctx),
        device_(std::move(device)),
        gpu_(gpu),
        timed_(std::move(inner)) {}

  std::string name() const override { return key_; }
  std::string detail() const override { return timed_.name(); }

  core::SolveResult solve() override {
    return run([&](core::BBEngine& engine) { return engine.solve(); });
  }
  core::SolveResult solve_from(std::vector<core::Subproblem> initial,
                               fsp::Time initial_ub) override {
    return run([&](core::BBEngine& engine) {
      return engine.solve_from(std::move(initial), initial_ub);
    });
  }
  const core::EvalLedger* eval_ledger() const override {
    return &timed_.ledger();
  }
  bool collects_remaining_pool() const override { return true; }

 private:
  template <typename Fn>
  core::SolveResult run(Fn&& fn) {
    core::BBEngine engine(*ctx_.instance, *ctx_.data, timed_,
                          engine_options(ctx_, backend_));
    const WallTimer timer;
    core::SolveResult result = fn(engine);
    EngineTrace& trace = active();
    trace.engine_s += timer.seconds();
    if (gpu_ != nullptr) trace.gpu = gpu_->gpu_ledger();
    return result;
  }

  std::string key_;
  std::string backend_;
  api::BackendContext ctx_;
  std::unique_ptr<gpusim::SimDevice> device_;  // referenced by timed_
  const gpubb::GpuBoundEvaluator* gpu_;        // owned by timed_
  TimedEvaluator timed_;
};

void require_lb1(const api::BackendContext& ctx) {
  FSBB_CHECK_MSG(ctx.config->bound == api::Bound::kLb1,
                 "traced twins reproduce the LB1 backends only");
}

}  // namespace

void set_active_trace(EngineTrace* trace) {
  g_active.store(trace, std::memory_order_release);
}

std::string traced_key(const std::string& backend) {
  if (backend == "cpu-serial" || backend == "cpu-threads" ||
      backend == "gpu-sim") {
    return "traced-" + backend;
  }
  return "";
}

void register_traced_twins() {
  static std::once_flag once;
  std::call_once(once, [] {
    api::BackendRegistry& r = api::BackendRegistry::global();
    r.add(traced_key("cpu-serial"), "cpu-serial with a timed evaluator",
          [](const api::BackendContext& ctx) -> std::unique_ptr<api::Backend> {
            require_lb1(ctx);
            return std::make_unique<TracedBackend>(
                traced_key("cpu-serial"), "cpu-serial", ctx,
                std::make_unique<core::SerialCpuEvaluator>(*ctx.instance,
                                                           *ctx.data));
          });
    r.add(traced_key("cpu-threads"), "cpu-threads with a timed evaluator",
          [](const api::BackendContext& ctx) -> std::unique_ptr<api::Backend> {
            require_lb1(ctx);
            return std::make_unique<TracedBackend>(
                traced_key("cpu-threads"), "cpu-threads", ctx,
                std::make_unique<core::ThreadedCpuEvaluator>(
                    *ctx.instance, *ctx.data, ctx.config->threads));
          });
    r.add(traced_key("gpu-sim"), "gpu-sim with a timed evaluator",
          [](const api::BackendContext& ctx) -> std::unique_ptr<api::Backend> {
            require_lb1(ctx);
            GpuParts parts = make_gpu(ctx);
            const gpubb::GpuBoundEvaluator* gpu = parts.evaluator.get();
            return std::make_unique<TracedBackend>(
                traced_key("gpu-sim"), "gpu-sim", ctx, std::move(parts.evaluator),
                std::move(parts.device), gpu);
          });
  });
}

GpuRun run_gpu_direct(const fsp::Instance& inst,
                      const api::SolverConfig& config,
                      const core::FrozenPool* frozen) {
  const fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
  const api::BackendContext ctx{&inst, &data, &config, nullptr};
  GpuParts parts = make_gpu(ctx);
  core::BBEngine engine(inst, data, *parts.evaluator,
                        engine_options(ctx, "gpu-sim"));
  GpuRun run;
  run.result = frozen ? engine.solve_from(frozen->nodes, frozen->incumbent)
                      : engine.solve();
  run.ledger = parts.evaluator->gpu_ledger();
  return run;
}

Tracer::Tracer()
    : origin_(std::chrono::duration<double>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin_;
}

int Tracer::add(std::string name, double start_s, double end_s, int parent,
                std::uint64_t request) {
  FSBB_CHECK_MSG(parent < static_cast<int>(spans_.size()),
                 "span parent must be recorded first");
  spans_.push_back(Span{std::move(name), start_s, end_s, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_s - spans_[i].start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonWriter args;
    args.integer("request", s.request);
    args.integer("parent", s.parent);
    JsonWriter e;
    e.str("name", s.name);
    e.str("cat", s.name.substr(0, s.name.find('.')));
    e.str("ph", "X");
    e.real("ts", s.start_s * 1e6);
    e.real("dur", (s.end_s - s.start_s) * 1e6);
    e.integer("pid", 1);
    e.integer("tid", 1);
    e.field("args", args.done());
    os << (i ? "," : "") << e.done();
  }
  os << "]}";
  return os.str();
}

}  // namespace perfbench
