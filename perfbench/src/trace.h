// Benchmark-side tracing: spans kept in memory, and traced twins of the
// engine backends.
//
// Nothing here changes the program under test. The twins are registered
// through the public api::BackendRegistry::add under their own keys
// ("traced-cpu-serial", ...). Each builds the same evaluator the built-in
// backend builds, wraps it in a timing decorator and drives the same
// core::BBEngine, so a twin's search is the untraced search: the fidelity
// tests pin every EngineStats counter, the makespan and the permutation.
//
// Per-batch evaluator calls are aggregated (count, nodes, busy seconds)
// rather than recorded one span each: the m5 proofs make millions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/solver_config.h"
#include "core/engine.h"
#include "core/protocol.h"
#include "fsp/instance.h"
#include "gpubb/gpu_evaluator.h"

namespace perfbench {

/// Aggregate of many short calls into one layer.
struct CallAgg {
  std::uint64_t calls = 0;
  std::uint64_t nodes = 0;
  double busy_s = 0;

  CallAgg& operator+=(const CallAgg& o) {
    calls += o.calls;
    nodes += o.nodes;
    busy_s += o.busy_s;
    return *this;
  }
};

/// What a traced twin records during one solve.
struct EngineTrace {
  double engine_s = 0;  ///< span around BBEngine::solve / solve_from
  CallAgg eval;         ///< evaluate + evaluate_siblings
  CallAgg iterate;      ///< ResidentPool::iterate (gpu-sim resident mode)
  std::optional<fsbb::gpubb::GpuLedger> gpu;  ///< gpu twin: the solve's ledger
};

/// Registers the twins once per process (idempotent).
void register_traced_twins();

/// Registry key of the traced twin of `backend`, or "" when it has none
/// (multicore and cpu-steal run their own search loop, no evaluator seam).
std::string traced_key(const std::string& backend);

/// The trace the next twin solve writes into (one solve at a time; the
/// benchmark sets it before each traced call and reads it afterwards).
void set_active_trace(EngineTrace* trace);

/// Runs gpu-sim's engine on a benchmark-built GpuBoundEvaluator constructed
/// exactly as the registry constructs it, and returns the modeled ledger.
/// `frozen` selects the §IV slice instead of a root solve.
struct GpuRun {
  fsbb::core::SolveResult result;
  fsbb::gpubb::GpuLedger ledger;
};
GpuRun run_gpu_direct(const fsbb::fsp::Instance& inst,
                      const fsbb::api::SolverConfig& config,
                      const fsbb::core::FrozenPool* frozen);

/// One timed interval. `parent` indexes the enclosing span (-1 at a root);
/// spans of one job share `request`. The layer is the name's first
/// dot-separated component.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  Tracer();

  /// Seconds since the tracer was created.
  double now() const;

  int add(std::string name, double start_s, double end_s, int parent,
          std::uint64_t request);
  void close(int span, double end_s) { spans_[span].end_s = end_s; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace-event JSON of every span (opens in Perfetto).
  std::string to_json() const;

 private:
  double origin_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
