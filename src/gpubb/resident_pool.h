// Device-resident per-SM sharded node pools (Chakroun & Melab's adaptive
// multi-GPU layout, arXiv:1206.4973) for the simulated card.
//
// The paper's original design keeps the frontier host-side and repacks a
// fresh pool onto the card every offload iteration: every child costs
// (n + 2) bytes down and a full prefix replay (O(depth·m)) inside the
// kernel. Here the node payloads — permutation, depth AND machine fronts —
// stay resident in device memory, partitioned into one shard per simulated
// SM. An offload iteration then ships only:
//
//   down:  the incumbent, 12-byte parent descriptors, 4-byte child slot
//          ids, and full payloads for the few non-resident parents
//          ("refill batches");
//   up:    4-byte bounds per child and a small per-shard occupancy block.
//
// The fused branch+bound kernel derives each child from its parent's
// resident payload: copy-with-swap of the permutation, an O(m) front
// extension instead of the O(depth·m) replay (the device-side analogue of
// the host Lb1BoundContext), then the shared lb1_evaluate sweep — so the
// bounds stay bit-identical to every CPU path.
//
// Shard structure: each SM's slice of the slot arena keeps its free slots
// on a plain stack in a DeviceBuffer (one count per shard; the slot
// released last is the next one handed out). One host thread drives the
// pool at a time, so the stacks take no lock. Allocation prefers the
// parent's shard (locality); a full shard borrows a slot from the sibling
// with the most free slots (counted as a spill/steal pair); refill parents
// land on the least-occupied shard, which is what re-feeds a starved SM.
// When every shard is full, children are bounded in a scratch region and
// returned non-resident (ticket kNullTicket) — they re-enter later as
// refills, the graceful overflow path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/evaluator.h"
#include "core/steal_stats.h"
#include "gpubb/device_lb_data.h"
#include "gpubb/lb_kernel.h"
#include "gpusim/kernel.h"
#include "gpusim/memory.h"

namespace fsbb::gpubb {

/// Geometry of a resident pool.
struct ResidentPoolConfig {
  /// Shards (simulated SMs); 0 = the device's SM count.
  int shards = 0;
  /// Node slots per shard; 0 derives a block-aligned default from the
  /// device memory budget (capped so the pool never crowds out the
  /// LB tables). Always rounded to whole blocks via block_aligned_capacity.
  std::size_t slots_per_shard = 0;
  /// Kernel block size the capacity rounding aligns to.
  int block_threads = 256;
};

/// One offload iteration's traffic, for the owning evaluator's ledgers.
struct ResidentIterationIo {
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  std::size_t children = 0;
  std::size_t refills = 0;
  gpusim::KernelRun run;  ///< fused branch+bound kernel counters
};

/// The device-resident sharded pool. Allocated once from SimDevice memory;
/// all slot accounting is host-side (tickets are slot ids), all payload
/// traffic is device-side and counted.
class DeviceResidentPool {
 public:
  static constexpr std::uint32_t kNullTicket = core::ResidentPool::kNullTicket;

  DeviceResidentPool(gpusim::SimDevice& device, const DeviceLbData& data,
                     ResidentPoolConfig config);

  int shards() const { return static_cast<int>(free_count_.size()); }
  std::size_t slots_per_shard() const { return slots_per_shard_; }
  std::size_t capacity() const { return capacity_; }
  /// Resident bytes per node slot (perm + depth + fronts + lb).
  std::size_t slot_bytes() const;

  /// Runs one fused select→branch→bound offload iteration. Fills each
  /// group's bounds and child tickets; `io` receives the traffic and the
  /// kernel run for the caller's transfer/timing ledgers.
  void iterate(fsp::Time ub, std::span<core::ResidentGroup> groups,
               ResidentIterationIo& io);

  /// Returns a slot to its shard's free stack (host bookkeeping only).
  void release(std::uint32_t ticket);

  /// Recalls a live slot's payload to the host and frees the slot — the
  /// extract half of cross-device rebalancing. The caller prices the read
  /// as a payload_bytes() D2H transfer. Accounting-wise this is a normal
  /// release on the slot's shard, so per-shard conservation holds.
  void extract_payload(std::uint32_t ticket, std::span<fsp::JobId> perm,
                       std::int32_t& depth, std::span<std::int32_t> fronts,
                       std::int32_t& lb);

  /// Re-uploads a recalled payload into this pool (the resplit half),
  /// landing on the hungriest shard like a refill batch would. Returns
  /// kNullTicket when the pool is full. The caller prices the write as a
  /// payload_bytes() H2D transfer; the allocation is a normal acquire, so
  /// the extra allocate/release pair of a move must be accounted by the
  /// caller's pool-level rebalance counter (core::audit pins this).
  std::uint32_t insert_payload(std::span<const fsp::JobId> perm,
                               std::int32_t depth,
                               std::span<const std::int32_t> fronts,
                               std::int32_t lb);

  /// Bytes one recall/re-upload moves (perm + depth + fronts + lb).
  std::size_t payload_bytes() const { return slot_bytes(); }

  /// Slots currently allocated across all shards (the load signal the
  /// multi-device refill router and rebalancer read).
  std::uint64_t live_slots() const;
  /// Free slots across all shards (rebalance recipient capacity).
  std::size_t free_slots() const;

  core::ResidentPoolStats stats() const;

  /// Shard a slot belongs to (slots are striped per shard region).
  int shard_of(std::uint32_t slot) const {
    return static_cast<int>(slot / slots_per_shard_);
  }

  /// Test hook: drain every free slot of one shard so allocations must
  /// spill — the deterministic way to starve a shard.
  std::vector<std::uint32_t> debug_drain_shard(int shard);
  /// Test hook: hand slots back (inverse of debug_drain_shard).
  void debug_refill_shard(std::vector<std::uint32_t> slots);
  /// Test hook: the device-resident permutation bytes of a slot.
  std::span<const std::uint8_t> debug_perm(std::uint32_t slot) const;

 private:
  /// Pops a free slot, preferring `home`; spills to the sibling shard with
  /// the most free slots when `home` is full. Returns kNullTicket when the
  /// whole pool is full.
  std::uint32_t acquire(int home);
  /// Pops the top of a non-empty shard's free stack.
  std::uint32_t pop_free(std::size_t shard);
  /// Pushes a slot back on its own shard's free stack.
  void push_free(std::uint32_t slot);
  /// Least-occupied shard — where refill parents land (feeds starvation).
  int hungriest_shard() const;
  void grow_scratch(std::size_t nodes);
  void grow_descriptors(std::size_t parents, std::size_t children);

  gpusim::SimDevice* device_;
  const DeviceLbData* data_;
  int block_threads_;
  std::size_t slots_per_shard_ = 0;
  std::size_t capacity_ = 0;

  // --- resident payloads (allocated once) -------------------------------
  gpusim::DeviceBuffer<std::uint8_t> perms_;    ///< capacity x jobs
  gpusim::DeviceBuffer<std::uint16_t> depths_;  ///< capacity
  gpusim::DeviceBuffer<std::int32_t> fronts_;   ///< capacity x machines
  gpusim::DeviceBuffer<std::int32_t> lbs_;      ///< capacity

  // --- scratch region for overflow children (grown on demand) -----------
  gpusim::DeviceBuffer<std::uint8_t> scratch_perms_;
  gpusim::DeviceBuffer<std::uint16_t> scratch_depths_;
  gpusim::DeviceBuffer<std::int32_t> scratch_fronts_;
  gpusim::DeviceBuffer<std::int32_t> scratch_lbs_;
  std::size_t scratch_slots_ = 0;

  // --- per-iteration descriptor buffers (grown on demand, reused) -------
  gpusim::DeviceBuffer<std::uint32_t> d_parent_slot_;
  gpusim::DeviceBuffer<std::uint16_t> d_parent_depth_;
  gpusim::DeviceBuffer<std::uint8_t> d_parent_flags_;  ///< bit0: has fronts
  gpusim::DeviceBuffer<std::uint32_t> d_first_child_;  ///< parents + 1
  gpusim::DeviceBuffer<std::uint32_t> d_child_slot_;   ///< bit31: scratch
  std::size_t parent_capacity_ = 0;
  std::size_t child_capacity_ = 0;

  /// Free-slot stacks, one per simulated SM: shard s holds its free slots
  /// in free_storage_[s * slots_per_shard_, + free_count_[s]), top last.
  gpusim::DeviceBuffer<std::uint32_t> free_storage_;
  std::vector<std::size_t> free_count_;

  mutable std::vector<core::ShardOccupancy> shard_stats_;
  std::uint64_t overflow_children_ = 0;
  std::uint64_t refills_total_ = 0;
};

}  // namespace fsbb::gpubb
