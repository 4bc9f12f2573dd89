// BoundEvaluator backed by the simulated GPU (paper Fig. 3).
//
// Three pool modes:
//
//   kResident (default) — per-SM device-resident sharded pools
//     (gpubb/resident_pool.h): the engine drives offload iterations
//     through the core::ResidentPool seam; node payloads stay on the
//     card, host↔device traffic shrinks to incumbents, tickets, refill
//     batches and bounds.
//   kRepack — the paper's original shape: every offload packs the pending
//     pool host-side, ships it whole, and the kernel replays each prefix.
//     Kept as the A/B baseline (BENCH_core.json gpu.resident_vs_repack).
//   kDfs — per-thread device-side iterative DFS (gpubb/dfs_pool.h): each
//     lane explores a whole subtree over the compact IvmNode encoding,
//     select/branch/bound fused in one kernel; the engine drives it
//     through the core::SubtreeDfs seam (requires --strategy depth-first).
//     A/B'd against resident in BENCH_core.json gpu.dfs.threaddfs.
//
// evaluate(batch) always takes the repack path: the root bound, every
// repack-mode engine batch (one flat batch through the default
// evaluate_siblings) and harnesses that bound ad-hoc node lists use it.
// The resident machinery engages through resident_pool(), the DFS
// machinery through subtree_dfs().
#pragma once

#include <memory>
#include <string>

#include "core/evaluator.h"
#include "gpubb/device_lb_data.h"
#include "gpubb/dfs_pool.h"
#include "gpubb/lb_kernel.h"
#include "gpubb/placement.h"
#include "gpubb/resident_pool.h"
#include "gpusim/calibration.h"
#include "gpusim/kernel.h"
#include "gpusim/occupancy.h"
#include "gpusim/timing.h"
#include "gpusim/transfer.h"

namespace fsbb::gpubb {

/// How the device pool is organized across offload iterations.
enum class GpuPoolMode {
  kResident,  ///< per-SM resident shards; only incumbent/refill/bounds move
  kRepack,    ///< per-offload full-pool repack (the paper's original design)
  kDfs,       ///< per-thread device DFS over IvmNode subtrees
  kAuto,      ///< resolved per device by the autotuner probe before any
              ///< evaluator is built (gpubb::choose_pool_mode); never
              ///< reaches a GpuBoundEvaluator constructor
};

const char* to_string(GpuPoolMode mode);
GpuPoolMode parse_gpu_pool_mode(const std::string& text);

/// Modeled-time ledger of every offload the evaluator performed.
struct GpuLedger {
  gpusim::TransferLedger transfers;
  double kernel_seconds = 0;     ///< modeled device compute
  double iteration_seconds = 0;  ///< modeled per-offload host/driver overhead
  std::uint64_t launches = 0;
  gpusim::AccessCounters counters;  ///< functional totals over all launches

  /// Modeled end-to-end GPU-side seconds.
  double modeled_seconds() const {
    return transfers.total_seconds() + kernel_seconds + iteration_seconds;
  }
};

/// Simulated-GPU bounding backend.
class GpuBoundEvaluator final : public core::BoundEvaluator,
                                public core::ResidentPool,
                                public core::SubtreeDfs {
 public:
  /// block_threads == 0 picks the recommended size for the placement
  /// (256, bumped while a lone resident block has < 16 warps).
  GpuBoundEvaluator(gpusim::SimDevice& device, const fsp::Instance& inst,
                    const fsp::LowerBoundData& data, PlacementPolicy policy,
                    int block_threads = 0,
                    gpusim::GpuCalibration calibration =
                        gpusim::GpuCalibration::fermi_defaults(),
                    GpuPoolMode mode = GpuPoolMode::kResident,
                    ResidentPoolConfig pool_config = {},
                    DfsPoolConfig dfs_config = {});

  void evaluate(std::span<core::Subproblem> batch) override;
  core::ResidentPool* resident_pool() override {
    return mode_ == GpuPoolMode::kResident ? this : nullptr;
  }
  core::SubtreeDfs* subtree_dfs() override {
    return mode_ == GpuPoolMode::kDfs ? this : nullptr;
  }
  std::string name() const override;
  const core::EvalLedger& ledger() const override { return ledger_; }

  // --- core::ResidentPool ------------------------------------------------
  void iterate(fsp::Time ub, std::span<core::ResidentGroup> groups) override;
  void release(std::uint32_t ticket) override;
  core::ResidentPoolStats shard_stats() const override;

  // --- core::SubtreeDfs ---------------------------------------------------
  std::size_t max_roots() const override;
  std::uint64_t launch_expansions() const override;
  core::DfsLaunchResult run_subtrees(
      fsp::Time ub, std::span<const core::DfsRoot> roots,
      std::uint64_t max_expansions) override;

  GpuPoolMode mode() const { return mode_; }
  const GpuLedger& gpu_ledger() const { return gpu_ledger_; }
  const DeviceLbData& device_data() const { return device_data_; }
  const gpusim::OccupancyResult& occupancy() const { return occupancy_; }
  int block_threads() const { return block_threads_; }
  /// The resident pool (null outside resident mode) — for tests/benches.
  const DeviceResidentPool* resident() const { return resident_.get(); }
  /// Mutable resident pool — the multi-device wrapper's recall/re-upload
  /// handle for cross-device rebalancing.
  DeviceResidentPool* resident_mut() { return resident_.get(); }
  /// The DFS pool (null outside dfs mode) — for tests and benches.
  const DeviceDfsPool* dfs() const { return dfs_.get(); }

  /// Prices an out-of-band pool transfer on this lane's ledger — how the
  /// multi-device wrapper charges rebalance payload moves and incumbent
  /// broadcasts to the device that actually carries them.
  void record_pool_transfer(gpusim::TransferDir dir, std::size_t bytes) {
    transfer_model_.record(dir, bytes, gpu_ledger_.transfers);
  }

 private:
  gpusim::SimDevice* device_;
  const fsp::Instance* inst_;
  PlacementPolicy policy_;
  int block_threads_;
  gpusim::GpuCalibration calibration_;
  GpuPoolMode mode_;
  DeviceLbData device_data_;
  gpusim::OccupancyResult occupancy_;
  gpusim::TransferModel transfer_model_;
  PackedPool staging_;  ///< reused host-staging buffers (see repack)
  std::unique_ptr<DeviceResidentPool> resident_;  ///< kResident only
  std::unique_ptr<DeviceDfsPool> dfs_;            ///< kDfs only
  gpusim::OccupancyResult dfs_occupancy_;         ///< kDfs only
  core::EvalLedger ledger_;
  GpuLedger gpu_ledger_;
};

}  // namespace fsbb::gpubb
