#include "gpubb/resident_pool.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace fsbb::gpubb {
namespace {

/// Scratch/resident discriminator bit in packed slot ids. Slot ids are
/// u32 arena indices; capacities stay far below 2^31.
constexpr std::uint32_t kScratchBit = 0x80000000u;

/// Default slots per shard before memory capping (block-aligned below).
constexpr std::size_t kDefaultSlotsPerShard = 4096;

/// Fraction of device memory the resident pool may claim.
constexpr std::size_t kMemoryDivisor = 4;

}  // namespace

DeviceResidentPool::DeviceResidentPool(gpusim::SimDevice& device,
                                       const DeviceLbData& data,
                                       ResidentPoolConfig config)
    : device_(&device),
      data_(&data),
      block_threads_(config.block_threads > 0 ? config.block_threads : 256),
      slots_per_shard_([&] {
        const int shards =
            config.shards > 0 ? config.shards : device.spec().sm_count;
        std::size_t per_shard = config.slots_per_shard > 0
                                    ? config.slots_per_shard
                                    : kDefaultSlotsPerShard;
        // Never let the pool crowd the LB tables out of device memory.
        const std::size_t per_slot =
            static_cast<std::size_t>(data.jobs()) + sizeof(std::uint16_t) +
            static_cast<std::size_t>(data.machines()) * sizeof(std::int32_t) +
            sizeof(std::int32_t) + sizeof(std::uint32_t);
        const std::size_t budget = device.spec().global_mem_bytes /
                                   kMemoryDivisor /
                                   (static_cast<std::size_t>(shards) * per_slot);
        per_shard = std::min(per_shard, budget);
        return block_aligned_capacity(
            std::max<std::size_t>(per_shard, 1),
            config.block_threads > 0 ? config.block_threads : 256);
      }()),
      capacity_([&] {
        const int shards =
            config.shards > 0 ? config.shards : device.spec().sm_count;
        return slots_per_shard_ * static_cast<std::size_t>(shards);
      }()),
      perms_(device.alloc<std::uint8_t>(
          capacity_ * static_cast<std::size_t>(data.jobs()),
          gpusim::MemSpace::kGlobal)),
      depths_(device.alloc<std::uint16_t>(capacity_,
                                          gpusim::MemSpace::kGlobal)),
      fronts_(device.alloc<std::int32_t>(
          capacity_ * static_cast<std::size_t>(data.machines()),
          gpusim::MemSpace::kGlobal)),
      lbs_(device.alloc<std::int32_t>(capacity_, gpusim::MemSpace::kGlobal)),
      free_storage_(device.alloc<std::uint32_t>(capacity_,
                                                gpusim::MemSpace::kGlobal)),
      free_count_(capacity_ / slots_per_shard_, slots_per_shard_) {
  FSBB_CHECK_MSG(data.jobs() <= 255, "resident pool packs permutations as u8");
  shard_stats_.resize(free_count_.size());
  // Every shard's stack starts full with its own slot range in order, so
  // the first acquire takes the shard's highest slot.
  auto slots = free_storage_.host_span();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<std::uint32_t>(i);
  }
}

std::size_t DeviceResidentPool::slot_bytes() const {
  return static_cast<std::size_t>(data_->jobs()) + sizeof(std::uint16_t) +
         static_cast<std::size_t>(data_->machines()) * sizeof(std::int32_t) +
         sizeof(std::int32_t);
}

std::uint32_t DeviceResidentPool::pop_free(std::size_t shard) {
  std::size_t& count = free_count_[shard];
  FSBB_ASSERT(count > 0);
  --count;
  return free_storage_.host_span()[shard * slots_per_shard_ + count];
}

void DeviceResidentPool::push_free(std::uint32_t slot) {
  const auto shard = static_cast<std::size_t>(shard_of(slot));
  std::size_t& count = free_count_[shard];
  FSBB_CHECK_MSG(count < slots_per_shard_, "resident shard free stack overflow");
  free_storage_.host_span()[shard * slots_per_shard_ + count] = slot;
  ++count;
}

std::uint32_t DeviceResidentPool::acquire(int home) {
  auto shard = static_cast<std::size_t>(home);
  if (free_count_[shard] == 0) {
    // Home shard full: borrow from the sibling with the most free slots
    // (deterministic: ties go to the lowest index).
    std::size_t best_free = 0;
    for (std::size_t s = 0; s < free_count_.size(); ++s) {
      if (free_count_[s] > best_free) {
        best_free = free_count_[s];
        shard = s;
      }
    }
    if (best_free == 0) return kNullTicket;  // the whole pool is full
    ++shard_stats_[static_cast<std::size_t>(home)].spills;
    ++shard_stats_[shard].steals;
  }
  auto& st = shard_stats_[shard];
  ++st.allocated;
  ++st.live;
  st.peak_live = std::max(st.peak_live, st.live);
  return pop_free(shard);
}

int DeviceResidentPool::hungriest_shard() const {
  return static_cast<int>(
      std::max_element(free_count_.begin(), free_count_.end()) -
      free_count_.begin());
}

void DeviceResidentPool::release(std::uint32_t ticket) {
  FSBB_ASSERT(ticket != kNullTicket && (ticket & kScratchBit) == 0);
  auto& st = shard_stats_[static_cast<std::size_t>(shard_of(ticket))];
  FSBB_ASSERT(st.live > 0);
  ++st.released;
  --st.live;
  push_free(ticket);
}

void DeviceResidentPool::grow_scratch(std::size_t nodes) {
  if (scratch_slots_ >= nodes) return;
  std::size_t target = std::max<std::size_t>(scratch_slots_ * 2, 256);
  target = std::max(target, nodes);
  scratch_perms_ = device_->alloc<std::uint8_t>(
      target * static_cast<std::size_t>(data_->jobs()),
      gpusim::MemSpace::kGlobal);
  scratch_depths_ =
      device_->alloc<std::uint16_t>(target, gpusim::MemSpace::kGlobal);
  scratch_fronts_ = device_->alloc<std::int32_t>(
      target * static_cast<std::size_t>(data_->machines()),
      gpusim::MemSpace::kGlobal);
  scratch_lbs_ =
      device_->alloc<std::int32_t>(target, gpusim::MemSpace::kGlobal);
  scratch_slots_ = target;
}

void DeviceResidentPool::grow_descriptors(std::size_t parents,
                                          std::size_t children) {
  if (parent_capacity_ < parents + 1) {
    const std::size_t target =
        std::max(parents + 1, std::max<std::size_t>(parent_capacity_ * 2, 64));
    d_parent_slot_ =
        device_->alloc<std::uint32_t>(target, gpusim::MemSpace::kGlobal);
    d_parent_depth_ =
        device_->alloc<std::uint16_t>(target, gpusim::MemSpace::kGlobal);
    d_parent_flags_ =
        device_->alloc<std::uint8_t>(target, gpusim::MemSpace::kGlobal);
    d_first_child_ =
        device_->alloc<std::uint32_t>(target, gpusim::MemSpace::kGlobal);
    parent_capacity_ = target;
  }
  if (child_capacity_ < children) {
    const std::size_t target =
        std::max(children, std::max<std::size_t>(child_capacity_ * 2, 256));
    d_child_slot_ =
        device_->alloc<std::uint32_t>(target, gpusim::MemSpace::kGlobal);
    child_capacity_ = target;
  }
}

void DeviceResidentPool::iterate(fsp::Time ub,
                                 std::span<core::ResidentGroup> groups,
                                 ResidentIterationIo& io) {
  const int n = data_->jobs();
  const int m = data_->machines();
  const std::size_t parents = groups.size();
  std::size_t children = 0;
  std::size_t refill_parents = 0;
  for (const core::ResidentGroup& g : groups) {
    children += g.bounds.size();
    if (g.ticket == kNullTicket) ++refill_parents;
  }
  io = ResidentIterationIo{};
  io.children = children;
  io.refills = refill_parents;
  if (children == 0) return;

  grow_descriptors(parents, children);
  grow_scratch(refill_parents + children);

  // --- host-side slot assignment (deterministic, mirrors the device) ----
  auto parent_slots = d_parent_slot_.host_span();
  auto parent_depths = d_parent_depth_.host_span();
  auto parent_flags = d_parent_flags_.host_span();
  auto first_child = d_first_child_.host_span();
  auto child_slots = d_child_slot_.host_span();

  std::size_t scratch_next = 0;
  std::size_t child_idx = 0;
  std::size_t refill_payload_bytes = 0;
  for (std::size_t g = 0; g < parents; ++g) {
    core::ResidentGroup& group = groups[g];
    first_child[g] = static_cast<std::uint32_t>(child_idx);
    parent_depths[g] = static_cast<std::uint16_t>(group.depth);
    int home;
    if (group.ticket != kNullTicket) {
      // Resident parent: payload (perm + fronts) already on the device.
      parent_slots[g] = group.ticket;
      parent_flags[g] = 1;
      home = shard_of(group.ticket);
    } else {
      // Refill: upload the full permutation into a scratch slot (the
      // parent is consumed this iteration); its children land on the
      // least-occupied shard, which is what re-feeds a starved SM.
      const auto scratch = static_cast<std::uint32_t>(scratch_next++);
      parent_slots[g] = kScratchBit | scratch;
      parent_flags[g] = 0;  // no resident fronts: the kernel replays
      auto dst = scratch_perms_.host_span().subspan(
          static_cast<std::size_t>(scratch) * static_cast<std::size_t>(n),
          static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        dst[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
            group.perm[static_cast<std::size_t>(j)]);
      }
      scratch_depths_.host_span()[scratch] =
          static_cast<std::uint16_t>(group.depth);
      refill_payload_bytes += static_cast<std::size_t>(n) + 2;
      home = hungriest_shard();
      ++shard_stats_[static_cast<std::size_t>(home)].refills;
      ++refills_total_;
    }
    for (std::size_t i = 0; i < group.bounds.size(); ++i, ++child_idx) {
      const std::uint32_t slot = acquire(home);
      if (slot != kNullTicket) {
        child_slots[child_idx] = slot;
        group.child_tickets[i] = slot;
      } else {
        // Pool full: bound in scratch, hand back a non-resident child.
        child_slots[child_idx] =
            kScratchBit | static_cast<std::uint32_t>(scratch_next++);
        group.child_tickets[i] = kNullTicket;
        ++overflow_children_;
      }
    }
  }
  first_child[parents] = static_cast<std::uint32_t>(child_idx);

  // --- modeled H2D: incumbent + descriptors + refill payloads -----------
  io.h2d_bytes = sizeof(std::int32_t) /* incumbent */ +
                 parents * (sizeof(std::uint32_t) + sizeof(std::uint16_t) +
                            sizeof(std::uint8_t) + sizeof(std::uint32_t)) +
                 sizeof(std::uint32_t) /* first_child sentinel */ +
                 children * sizeof(std::uint32_t) + refill_payload_bytes;

  // --- the fused branch+bound kernel ------------------------------------
  const int grid = blocks_for(children, block_threads_);
  const gpusim::LaunchConfig config{grid, block_threads_};

  const auto v_parent_slot = d_parent_slot_.view();
  const auto v_parent_depth = d_parent_depth_.view();
  const auto v_parent_flags = d_parent_flags_.view();
  const auto v_first_child = d_first_child_.view();
  const auto v_child_slot = d_child_slot_.view();
  const auto v_perms = perms_.view();
  const auto v_fronts = fronts_.view();
  const auto v_scr_perms = scratch_perms_.view();
  const auto mv_perms = perms_.mut_view();
  const auto mv_depths = depths_.mut_view();
  const auto mv_fronts = fronts_.mut_view();
  const auto mv_lbs = lbs_.mut_view();
  const auto mv_scr_perms = scratch_perms_.mut_view();
  const auto mv_scr_depths = scratch_depths_.mut_view();
  const auto mv_scr_fronts = scratch_fronts_.mut_view();
  const auto mv_scr_lbs = scratch_lbs_.mut_view();
  const DeviceLbData* data = data_;
  const auto parent_count = static_cast<std::int64_t>(parents);
  const auto child_count = static_cast<std::int64_t>(children);

  auto body = [=](gpusim::ThreadCtx& ctx) {
    const std::int64_t idx = ctx.global_idx();
    if (idx >= child_count) return;
    auto provider = DeviceLb1Provider(ctx, *data);

    // --- locate this child's group: binary search over first_child ------
    std::int64_t lo = 0, hi = parent_count - 1;
    while (lo < hi) {
      const std::int64_t mid = (lo + hi + 1) / 2;
      if (static_cast<std::int64_t>(
              ctx.ld(v_first_child, static_cast<std::size_t>(mid))) <= idx) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    const auto g = static_cast<std::size_t>(lo);
    const std::int64_t first =
        ctx.ld(v_first_child, g);
    const auto i = static_cast<std::size_t>(idx - first);  // sibling index

    const std::uint32_t pslot = ctx.ld(v_parent_slot, g);
    const int depth = ctx.ld(v_parent_depth, g);
    const bool parent_has_fronts = ctx.ld(v_parent_flags, g) != 0;
    const bool parent_scratch = (pslot & kScratchBit) != 0;
    const std::size_t pbase =
        static_cast<std::size_t>(pslot & ~kScratchBit) *
        static_cast<std::size_t>(n);
    const std::size_t pfront_base =
        static_cast<std::size_t>(pslot & ~kScratchBit) *
        static_cast<std::size_t>(m);

    const std::uint32_t cslot =
        ctx.ld(v_child_slot, static_cast<std::size_t>(idx));
    const bool child_scratch = (cslot & kScratchBit) != 0;
    const std::size_t craw = static_cast<std::size_t>(cslot & ~kScratchBit);
    const std::size_t cbase = craw * static_cast<std::size_t>(n);
    const std::size_t cfront_base = craw * static_cast<std::size_t>(m);

    // --- branch: derive the child permutation from the resident parent --
    // child = parent with positions depth and depth+i swapped
    // (core::write_child_perm, device-side). The scheduled mask is built
    // for free while streaming the prefix.
    std::uint8_t scheduled[kKernelMaxJobs] = {};
    std::uint8_t child_job = 0;
    ctx.add_stores(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(n));
    const auto swap_a = static_cast<std::size_t>(depth);
    const std::size_t swap_b = swap_a + i;
    for (int j = 0; j < n; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      // Read the byte that lands at position j after the swap.
      std::size_t src = jj;
      if (jj == swap_a) src = swap_b;
      else if (jj == swap_b) src = swap_a;
      const std::uint8_t byte =
          parent_scratch ? ctx.ld(v_scr_perms, pbase + src)
                         : ctx.ld(v_perms, pbase + src);
      if (jj <= swap_a) {
        scheduled[byte] = 1;
        ctx.add_stores(gpusim::MemSpace::kLocal, 1);
        if (jj == swap_a) child_job = byte;
      }
      if (child_scratch) {
        ctx.st(mv_scr_perms, cbase + jj, byte);
      } else {
        ctx.st(mv_perms, cbase + jj, byte);
      }
    }

    // --- fronts: O(m) extension of the resident parent fronts (refill
    // parents replay their prefix once, like the flat kernel did) --------
    fsp::Time fronts[kKernelMaxMachines] = {};
    ctx.add_stores(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(m));
    if (parent_has_fronts) {
      for (int k = 0; k < m; ++k) {
        fronts[k] = ctx.ld(v_fronts, pfront_base + static_cast<std::size_t>(k));
      }
      ctx.add_stores(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(m));
    } else {
      for (int pos = 0; pos < depth; ++pos) {
        const auto job = static_cast<int>(
            parent_scratch
                ? ctx.ld(v_scr_perms, pbase + static_cast<std::size_t>(pos))
                : ctx.ld(v_perms, pbase + static_cast<std::size_t>(pos)));
        fsp::Time prev = 0;
        for (int k = 0; k < m; ++k) {
          const fsp::Time start = std::max(prev, fronts[k]);
          prev = start + provider.ptm(job, k);
          fronts[k] = prev;
        }
        ctx.add_loads(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(m));
        ctx.add_stores(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(m));
        ctx.add_ops(static_cast<std::uint64_t>(m) * 2);
      }
    }
    // Extend by the newly scheduled job — the same arithmetic as one more
    // replay step, so the fronts equal a full replay bit-for-bit.
    {
      fsp::Time prev = 0;
      for (int k = 0; k < m; ++k) {
        const fsp::Time start = std::max(prev, fronts[k]);
        prev = start + provider.ptm(static_cast<int>(child_job), k);
        fronts[k] = prev;
      }
      ctx.add_loads(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(m));
      ctx.add_stores(gpusim::MemSpace::kLocal, static_cast<std::uint64_t>(m));
      ctx.add_ops(static_cast<std::uint64_t>(m) * 2);
    }

    // Persist the child payload (the resident part of "resident pools").
    for (int k = 0; k < m; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      if (child_scratch) {
        ctx.st(mv_scr_fronts, cfront_base + kk, fronts[k]);
      } else {
        ctx.st(mv_fronts, cfront_base + kk, fronts[k]);
      }
    }
    if (child_scratch) {
      ctx.st(mv_scr_depths, craw, static_cast<std::uint16_t>(depth + 1));
    } else {
      ctx.st(mv_depths, craw, static_cast<std::uint16_t>(depth + 1));
    }

    // --- bound: the shared LB1 sweep ------------------------------------
    const fsp::Time lb = fsp::lb1_evaluate(
        provider,
        std::span<const fsp::Time>(fronts, static_cast<std::size_t>(m)),
        std::span<const std::uint8_t>(scheduled, static_cast<std::size_t>(n)));
    const auto pairs = static_cast<std::uint64_t>(data->pairs());
    ctx.add_loads(gpusim::MemSpace::kLocal,
                  pairs * (2 + static_cast<std::uint64_t>(n)));
    ctx.add_ops(pairs * (static_cast<std::uint64_t>(n) * 4 + 6));

    if (child_scratch) {
      ctx.st(mv_scr_lbs, craw, static_cast<std::int32_t>(lb));
    } else {
      ctx.st(mv_lbs, craw, static_cast<std::int32_t>(lb));
    }
  };

  auto prologue = [data](int /*block*/, gpusim::AccessCounters& counters) {
    data->account_block_staging(counters);
  };

  io.run = device_->launch(config, body, prologue);
  (void)ub;  // functional pruning stays host-side; the upload is priced

  // --- D2H: bounds + the per-shard occupancy block ----------------------
  child_idx = 0;
  for (core::ResidentGroup& group : groups) {
    for (std::size_t i = 0; i < group.bounds.size(); ++i, ++child_idx) {
      const std::uint32_t cslot = child_slots[child_idx];
      const std::size_t craw = static_cast<std::size_t>(cslot & ~kScratchBit);
      group.bounds[i] = (cslot & kScratchBit) != 0
                            ? scratch_lbs_.host_span()[craw]
                            : lbs_.host_span()[craw];
    }
  }
  io.d2h_bytes = children * sizeof(std::int32_t) +
                 static_cast<std::size_t>(shards()) * 16;
}

void DeviceResidentPool::extract_payload(std::uint32_t ticket,
                                         std::span<fsp::JobId> perm,
                                         std::int32_t& depth,
                                         std::span<std::int32_t> fronts,
                                         std::int32_t& lb) {
  FSBB_ASSERT(ticket != kNullTicket && (ticket & kScratchBit) == 0);
  const int n = data_->jobs();
  const int m = data_->machines();
  FSBB_CHECK(perm.size() == static_cast<std::size_t>(n));
  FSBB_CHECK(fronts.size() == static_cast<std::size_t>(m));
  const auto slot = static_cast<std::size_t>(ticket);
  auto src_perm =
      perms_.host_span().subspan(slot * static_cast<std::size_t>(n),
                                 static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    perm[static_cast<std::size_t>(j)] =
        static_cast<fsp::JobId>(src_perm[static_cast<std::size_t>(j)]);
  }
  depth = static_cast<std::int32_t>(depths_.host_span()[slot]);
  auto src_fronts =
      fronts_.host_span().subspan(slot * static_cast<std::size_t>(m),
                                  static_cast<std::size_t>(m));
  std::copy(src_fronts.begin(), src_fronts.end(), fronts.begin());
  lb = lbs_.host_span()[slot];
  release(ticket);
}

std::uint32_t DeviceResidentPool::insert_payload(
    std::span<const fsp::JobId> perm, std::int32_t depth,
    std::span<const std::int32_t> fronts, std::int32_t lb) {
  const int n = data_->jobs();
  const int m = data_->machines();
  FSBB_CHECK(perm.size() == static_cast<std::size_t>(n));
  FSBB_CHECK(fronts.size() == static_cast<std::size_t>(m));
  const std::uint32_t slot = acquire(hungriest_shard());
  if (slot == kNullTicket) return kNullTicket;
  const auto s = static_cast<std::size_t>(slot);
  auto dst_perm = perms_.host_span().subspan(
      s * static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    dst_perm[static_cast<std::size_t>(j)] =
        static_cast<std::uint8_t>(perm[static_cast<std::size_t>(j)]);
  }
  depths_.host_span()[s] = static_cast<std::uint16_t>(depth);
  auto dst_fronts = fronts_.host_span().subspan(
      s * static_cast<std::size_t>(m), static_cast<std::size_t>(m));
  std::copy(fronts.begin(), fronts.end(), dst_fronts.begin());
  lbs_.host_span()[s] = lb;
  return slot;
}

std::uint64_t DeviceResidentPool::live_slots() const {
  std::uint64_t total = 0;
  for (const core::ShardOccupancy& s : shard_stats_) total += s.live;
  return total;
}

std::size_t DeviceResidentPool::free_slots() const {
  return std::accumulate(free_count_.begin(), free_count_.end(),
                         std::size_t{0});
}

core::ResidentPoolStats DeviceResidentPool::stats() const {
  core::ResidentPoolStats s;
  s.capacity = capacity_;
  s.slot_bytes = slot_bytes();
  s.overflow = overflow_children_;
  s.refills = refills_total_;
  s.shards = shard_stats_;
  return s;
}

std::vector<std::uint32_t> DeviceResidentPool::debug_drain_shard(int shard) {
  const auto s = static_cast<std::size_t>(shard);
  const auto stack = free_storage_.host_span().subspan(s * slots_per_shard_,
                                                       free_count_[s]);
  free_count_[s] = 0;
  return {stack.begin(), stack.end()};
}

void DeviceResidentPool::debug_refill_shard(std::vector<std::uint32_t> slots) {
  for (const std::uint32_t slot : slots) push_free(slot);
}

std::span<const std::uint8_t> DeviceResidentPool::debug_perm(
    std::uint32_t slot) const {
  FSBB_CHECK((slot & kScratchBit) == 0);
  return perms_.host_span().subspan(
      static_cast<std::size_t>(slot) * static_cast<std::size_t>(data_->jobs()),
      static_cast<std::size_t>(data_->jobs()));
}

}  // namespace fsbb::gpubb
