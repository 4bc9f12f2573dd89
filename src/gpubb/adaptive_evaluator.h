// Adaptive bounding backend — the paper's §VI outlook ("combination of the
// GPU-based bounding model with the multi-core parallel search") grown
// from big-vs-small iteration routing into genuinely concurrent
// heterogeneous execution.
//
// Below the modeled break-even threshold an iteration is too small to
// amortize the offload overheads and runs entirely on host threads (the
// children stay non-resident and re-enter the device later as refills —
// the seam's graceful degradation). At or above it the iteration is SPLIT:
// the device side (a MultiDevicePool: one card, or several) takes the
// leading groups, the host sibling-seam workers take a trailing slice
// sized by the modeled CPU/GPU throughput ratio, and both drain the
// engine's one NodeArena simultaneously — the device on a worker thread,
// the host threads on the calling thread. The bounds are bit-identical
// either way (a tested invariant), so the engine's counters and incumbent
// stream never see the split.
#pragma once

#include <cstddef>

#include "core/evaluator.h"
#include "gpubb/gpu_evaluator.h"
#include "gpubb/multi_device_pool.h"

namespace fsbb::gpubb {

/// Routes bounding work between a threaded CPU evaluator and one or more
/// simulated GPUs, overlapping the two above the break-even threshold.
class AdaptiveEvaluator final : public core::BoundEvaluator,
                                public core::ResidentPool {
 public:
  /// The device side is a MultiDevicePool over `config.specs`
  /// (heterogeneous mixes allowed; one card is its own pool).
  /// threshold == 0 derives the break-even batch size from the offload
  /// model at construction time, against card 0: no sampled kernel run
  /// is needed, because the threshold uses the static Table I work
  /// estimate, which is exact for the root and conservative below (and
  /// for faster sibling cards).
  AdaptiveEvaluator(const fsp::Instance& inst, const fsp::LowerBoundData& data,
                    MultiDeviceConfig config, std::size_t cpu_threads = 0,
                    std::size_t threshold = 0);

  void evaluate(std::span<core::Subproblem> batch) override;
  core::ResidentPool* resident_pool() override {
    return device_.resident_pool() != nullptr ? this : nullptr;
  }
  /// DFS mode is all-device (whole subtrees never surface per level, so
  /// there is no per-batch routing decision to make): delegate wholesale.
  core::SubtreeDfs* subtree_dfs() override { return device_.subtree_dfs(); }
  std::string name() const override;
  const core::EvalLedger& ledger() const override { return ledger_; }

  // --- core::ResidentPool (device side delegated, host slice overlapped) --
  void iterate(fsp::Time ub, std::span<core::ResidentGroup> groups) override;
  void release(std::uint32_t ticket) override;
  core::ResidentPoolStats shard_stats() const override;

  std::size_t threshold() const { return threshold_; }
  /// Fraction of an above-threshold iteration's children the host takes
  /// (0 = everything offloads; capped at 1/2 — the device is the point).
  double host_share() const { return host_share_; }
  std::uint64_t cpu_batches() const { return cpu_batches_; }
  std::uint64_t gpu_batches() const { return gpu_batches_; }
  /// Card 0 of the device pool.
  const GpuBoundEvaluator& gpu() const { return device_.lane(0); }

 private:
  core::ThreadedCpuEvaluator cpu_;
  MultiDevicePool device_;
  std::size_t threshold_;
  double host_share_ = 0;
  std::uint64_t cpu_batches_ = 0;
  std::uint64_t gpu_batches_ = 0;
  core::EvalLedger ledger_;
};

}  // namespace fsbb::gpubb
