// Multi-device resident pools — Chakroun & Melab's adaptive multi-GPU
// follow-up (arXiv:1206.4973) over N simulated cards.
//
// One GpuBoundEvaluator lane per SimDevice (heterogeneous specs allowed:
// a Fermi-class C2050 next to a GT200 C1060), each hosting its own
// DeviceResidentPool / DeviceDfsPool, presented to BBEngine as a SINGLE
// core::BoundEvaluator + ResidentPool + SubtreeDfs. The engine never
// learns there is more than one card:
//
//   tickets    — a handle table maps the engine's (outer) tickets to
//                {device, inner slot}; the outer ticket stays stable even
//                when the rebalancer moves the payload to another card;
//   routing    — resident parents go to the card that holds them; refill
//                parents go to the least-occupied card (most free slots),
//                the cross-card analogue of the per-SM hungriest-shard
//                rule; flat batches split by modeled device throughput;
//   incumbent  — every improvement is broadcast to all cards (a 4-byte
//                upload each) and offered to the shared SearchControl, so
//                a co-resident engine sees it too — monotone by CAS-min;
//   rebalance  — when one card starves (live-slot gap over a threshold)
//                the busiest card recalls payloads (D2H) and re-splits
//                them onto the starved card (H2D): each move is one extra
//                allocate/release pair the engine's tickets never see,
//                counted in ResidentPoolStats::rebalanced and pinned by
//                core::audit's conservation check.
//
// Per-lane pool modes may differ (the --gpu-pool auto probe resolves each
// device separately): resident and repack lanes mix freely — a repack
// lane bounds the refill groups routed to it through its flat kernel and
// returns non-resident children; dfs requires every lane to run dfs (the
// launches chain in root order, threading the incumbent through).
//
// Modeled time: each lane keeps its own GpuLedger; the cards run
// concurrently, so the pool's modeled wall-clock advances by the MAX of
// the participating lanes' per-call deltas (the BENCH_core.json
// gpu_multidevice_scaling headline), while the combined ledger sums every
// lane for totals.
//
// One card is its own pool: with a single lane, evaluate(),
// resident_pool(), subtree_dfs(), name(), ledger() and
// modeled_wall_seconds() are the card's own, so a one-card solve runs the
// bare GpuBoundEvaluator — no ticket table, no incumbent broadcast to
// itself. That is how gpu-sim and adaptive build every card count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "gpubb/gpu_evaluator.h"
#include "gpusim/device_spec.h"

namespace fsbb::core {
class SearchControl;
}  // namespace fsbb::core

namespace fsbb::gpubb {

/// Geometry and policy of a multi-device pool.
struct MultiDeviceConfig {
  /// One spec per card (>= 1). Heterogeneous mixes are allowed.
  std::vector<gpusim::DeviceSpec> specs;
  /// Per-device pool mode; empty = every lane runs `mode`. Resident and
  /// repack lanes may mix; dfs must be unanimous.
  std::vector<GpuPoolMode> modes;
  GpuPoolMode mode = GpuPoolMode::kResident;
  PlacementPolicy policy = PlacementPolicy::kSharedJmPtm;
  int block_threads = 0;  ///< 0 = per-device recommended size
  gpusim::GpuCalibration calibration = gpusim::GpuCalibration::fermi_defaults();
  ResidentPoolConfig pool_config;
  DfsPoolConfig dfs_config;

  /// Rebalance trigger: busiest card's live slots must exceed the
  /// hungriest card's by this much before payloads move.
  std::uint64_t rebalance_min_gap = 512;
  /// Payload moves per triggered rebalance (one recall + re-upload each).
  std::size_t rebalance_batch = 32;

  /// Incumbent broadcast target (optional): every improvement the engine
  /// ships down is also offered here, so co-resident engines sharing the
  /// control fold it in (SearchControl::offer_incumbent is CAS-min, so
  /// offering the engine's own bound back is a harmless no-op).
  core::SearchControl* control = nullptr;
};

/// N simulated cards behind the single-evaluator seams.
class MultiDevicePool final : public core::BoundEvaluator,
                              public core::ResidentPool,
                              public core::SubtreeDfs {
 public:
  static constexpr std::uint32_t kNullTicket = core::ResidentPool::kNullTicket;

  MultiDevicePool(const fsp::Instance& inst, const fsp::LowerBoundData& data,
                  MultiDeviceConfig config);
  ~MultiDevicePool() override;

  // --- core::BoundEvaluator ----------------------------------------------
  void evaluate(std::span<core::Subproblem> batch) override;
  core::ResidentPool* resident_pool() override;
  core::SubtreeDfs* subtree_dfs() override;
  std::string name() const override;
  const core::EvalLedger& ledger() const override;

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

  // --- introspection (tests, benches, report) ----------------------------
  std::size_t device_count() const { return lanes_.size(); }
  const GpuBoundEvaluator& lane(std::size_t d) const { return *lanes_[d]; }
  GpuBoundEvaluator& lane_mut(std::size_t d) { return *lanes_[d]; }
  const gpusim::SimDevice& device(std::size_t d) const { return *devices_[d]; }
  /// Combined per-call-max modeled wall seconds: the cards run
  /// concurrently, so this is what a wall clock would see. One card
  /// reports its own ledger's modeled seconds.
  double modeled_wall_seconds() const;
  /// Sum of every lane's ledger (totals, not wall-clock).
  GpuLedger combined_gpu_ledger() const;
  /// Payloads moved card-to-card so far.
  std::uint64_t rebalanced() const { return rebalanced_; }
  /// Test hook: force one rebalance scan outside iterate().
  std::size_t debug_rebalance() { return rebalance(); }

 private:
  struct TicketEntry {
    std::uint32_t device = 0;
    std::uint32_t inner = kNullTicket;  ///< kNullTicket = free entry
    std::uint32_t next_free = kNullTicket;
  };

  /// The card of a one-card pool, which stands in for the pool on every
  /// seam; null with two or more cards.
  GpuBoundEvaluator* solo() const;
  std::uint32_t issue(std::uint32_t device, std::uint32_t inner);
  /// Moves up to rebalance_batch payloads from the busiest resident lane
  /// to the hungriest once the live gap crosses rebalance_min_gap.
  /// Returns the number of payloads moved.
  std::size_t rebalance();
  /// Broadcasts a strictly-improving incumbent to every card (4-byte
  /// upload each) and the shared SearchControl.
  void broadcast_incumbent(fsp::Time ub);
  /// Accumulates this call's modeled wall advance: max over lanes of the
  /// per-lane modeled_seconds() delta since `before`.
  void advance_wall(const std::vector<double>& before);
  std::vector<double> lane_seconds() const;

  const fsp::Instance* inst_;
  MultiDeviceConfig config_;
  std::vector<std::unique_ptr<gpusim::SimDevice>> devices_;
  std::vector<std::unique_ptr<GpuBoundEvaluator>> lanes_;
  std::vector<GpuPoolMode> lane_modes_;
  bool all_dfs_ = false;
  bool any_resident_ = false;

  std::vector<TicketEntry> table_;
  std::uint32_t free_head_ = kNullTicket;
  std::uint64_t rebalanced_ = 0;
  fsp::Time last_broadcast_ = 0;
  bool broadcast_valid_ = false;

  // Scratch reused across iterate() calls (group partitions, payloads).
  std::vector<std::vector<core::ResidentGroup>> lane_groups_;
  std::vector<std::vector<std::size_t>> lane_group_index_;
  std::vector<fsp::JobId> move_perm_;
  std::vector<std::int32_t> move_fronts_;

  double modeled_wall_seconds_ = 0;
  core::EvalLedger ledger_;
};

}  // namespace fsbb::gpubb
