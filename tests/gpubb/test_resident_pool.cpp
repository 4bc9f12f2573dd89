// DeviceResidentPool unit suite: geometry, bit-exact bounds from resident
// payloads, deterministic starvation/refill routing, spill/steal
// accounting when a shard fills, graceful overflow when the whole pool is
// full, and free-list round-trips. The shard policy is deterministic, so
// every counter here is asserted exactly.
#include "gpubb/resident_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "fsp/lb1.h"
#include "fsp/taillard.h"
#include "gpubb/placement.h"
#include "gpusim/device_spec.h"

namespace fsbb::gpubb {
namespace {

constexpr std::uint32_t kNull = core::ResidentPool::kNullTicket;

struct Fixture {
  fsp::Instance inst = fsp::make_taillard_instance(10, 4, 99, "rp-10x4");
  fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
  gpusim::SimDevice device{gpusim::DeviceSpec::tesla_c2050()};
  DeviceLbData dev_data{
      device, data,
      make_placement_plan(PlacementPolicy::kAllGlobal, data, device.spec())};

  DeviceResidentPool small_pool(int shards = 4, std::size_t slots = 8) {
    ResidentPoolConfig config;
    config.shards = shards;
    config.slots_per_shard = slots;
    config.block_threads = 8;
    return DeviceResidentPool(device, dev_data, config);
  }

  /// One refill group expanding `parent` (all free jobs).
  core::ResidentGroup group_of(const core::Subproblem& parent,
                               std::vector<fsp::Time>& bounds,
                               std::vector<std::uint32_t>& tickets,
                               std::uint32_t ticket = kNull) {
    const auto r = static_cast<std::size_t>(parent.remaining());
    bounds.assign(r, 0);
    tickets.assign(r, kNull);
    core::ResidentGroup g;
    g.ticket = ticket;
    g.perm = parent.perm;
    g.depth = parent.depth;
    g.bounds = bounds;
    g.child_tickets = tickets;
    return g;
  }

  fsp::Time host_bound(const core::Subproblem& child) {
    return fsp::lb1_from_prefix(inst, data, child.prefix());
  }
};

TEST(ResidentPool, GeometryIsBlockAlignedPerShard) {
  Fixture f;
  DeviceResidentPool pool = f.small_pool();
  EXPECT_EQ(pool.shards(), 4);
  EXPECT_EQ(pool.slots_per_shard(), 8u);
  EXPECT_EQ(pool.capacity(), 32u);
  // perm (10 B) + depth (2 B) + fronts (4 x 4 B) + lb (4 B)
  EXPECT_EQ(pool.slot_bytes(), 10u + 2u + 16u + 4u);

  // Defaults: one shard per simulated SM, whole-block slot counts.
  DeviceResidentPool dflt(f.device, f.dev_data, ResidentPoolConfig{});
  EXPECT_EQ(dflt.shards(), f.device.spec().sm_count);
  EXPECT_EQ(dflt.slots_per_shard() % 256, 0u);
}

TEST(ResidentPool, RefillThenResidentIterationsMatchHostBounds) {
  Fixture f;
  DeviceResidentPool pool = f.small_pool(4, 16);

  // Level 1: the root enters as a refill (no resident payload).
  const core::Subproblem root = core::Subproblem::root(f.inst.jobs());
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  core::ResidentGroup g = f.group_of(root, bounds, tickets);
  ResidentIterationIo io;
  pool.iterate(1000000, {&g, 1}, io);

  EXPECT_EQ(io.children, 10u);
  EXPECT_EQ(io.refills, 1u);
  for (int i = 0; i < root.remaining(); ++i) {
    const core::Subproblem child = root.child(i);
    ASSERT_EQ(bounds[static_cast<std::size_t>(i)], f.host_bound(child)) << i;
    // The device-resident permutation equals the host child permutation.
    const auto ticket = tickets[static_cast<std::size_t>(i)];
    ASSERT_NE(ticket, kNull) << i;
    const auto resident = pool.debug_perm(ticket);
    for (int j = 0; j < f.inst.jobs(); ++j) {
      ASSERT_EQ(static_cast<fsp::JobId>(resident[static_cast<std::size_t>(j)]),
                child.perm[static_cast<std::size_t>(j)])
          << i << "," << j;
    }
  }

  // Level 2: a child expands from its RESIDENT payload (fronts included —
  // the O(m) extension path) and must still match the host exactly.
  const core::Subproblem parent = root.child(3);
  std::vector<fsp::Time> bounds2;
  std::vector<std::uint32_t> tickets2;
  core::ResidentGroup g2 =
      f.group_of(parent, bounds2, tickets2, tickets[3]);
  pool.iterate(1000000, {&g2, 1}, io);
  EXPECT_EQ(io.refills, 0u);
  for (int i = 0; i < parent.remaining(); ++i) {
    ASSERT_EQ(bounds2[static_cast<std::size_t>(i)],
              f.host_bound(parent.child(i)))
        << i;
  }
}

TEST(ResidentPool, FirstRefillFillsOneShardThenSpillsToTheNextSibling) {
  Fixture f;
  DeviceResidentPool pool = f.small_pool(4, 8);

  const core::Subproblem root = core::Subproblem::root(f.inst.jobs());
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  core::ResidentGroup g = f.group_of(root, bounds, tickets);
  ResidentIterationIo io;
  pool.iterate(1000000, {&g, 1}, io);

  // 10 children, 8-slot home shard: 8 land at home (shard 0, the refill
  // target), then the two spills each borrow from the sibling with the
  // most free slots — shard 1 first, then shard 2 (7 < 8 free) — counted
  // as spills at home and steals at the lenders.
  const core::ResidentPoolStats stats = pool.stats();
  EXPECT_EQ(stats.shards[0].allocated, 8u);
  EXPECT_EQ(stats.shards[0].refills, 1u);
  EXPECT_EQ(stats.shards[0].spills, 2u);
  EXPECT_EQ(stats.shards[1].allocated, 1u);
  EXPECT_EQ(stats.shards[1].steals, 1u);
  EXPECT_EQ(stats.shards[2].allocated, 1u);
  EXPECT_EQ(stats.shards[2].steals, 1u);
  EXPECT_EQ(stats.overflow, 0u);
  for (const std::uint32_t t : tickets) EXPECT_NE(t, kNull);
}

TEST(ResidentPool, RefillBatchesLandOnTheStarvedShard) {
  Fixture f;
  DeviceResidentPool pool = f.small_pool(4, 16);

  // Starve shards 0, 1 and 3: drain their free slots so shard 2 is the
  // only one with capacity — the "least occupied" target.
  auto s0 = pool.debug_drain_shard(0);
  auto s1 = pool.debug_drain_shard(1);
  auto s3 = pool.debug_drain_shard(3);

  const core::Subproblem root = core::Subproblem::root(f.inst.jobs());
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  core::ResidentGroup g = f.group_of(root, bounds, tickets);
  ResidentIterationIo io;
  pool.iterate(1000000, {&g, 1}, io);

  const core::ResidentPoolStats stats = pool.stats();
  EXPECT_EQ(stats.shards[2].refills, 1u);
  EXPECT_EQ(stats.shards[2].allocated, 10u);
  EXPECT_EQ(stats.refills, 1u);
  for (const std::uint32_t t : tickets) {
    ASSERT_NE(t, kNull);
    EXPECT_EQ(pool.shard_of(t), 2);
  }

  pool.debug_refill_shard(std::move(s0));
  pool.debug_refill_shard(std::move(s1));
  pool.debug_refill_shard(std::move(s3));
}

TEST(ResidentPool, FullPoolOverflowsGracefullyWithCorrectBounds) {
  Fixture f;
  DeviceResidentPool pool = f.small_pool(2, 8);

  // Drain everything: no shard can host a child.
  auto s0 = pool.debug_drain_shard(0);
  auto s1 = pool.debug_drain_shard(1);

  const core::Subproblem root = core::Subproblem::root(f.inst.jobs());
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  core::ResidentGroup g = f.group_of(root, bounds, tickets);
  ResidentIterationIo io;
  pool.iterate(1000000, {&g, 1}, io);

  // Children were bounded in scratch and returned non-resident; the
  // bounds are still bit-identical to the host.
  EXPECT_EQ(pool.stats().overflow, 10u);
  for (int i = 0; i < root.remaining(); ++i) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)], kNull) << i;
    EXPECT_EQ(bounds[static_cast<std::size_t>(i)],
              f.host_bound(root.child(i)))
        << i;
  }
}

TEST(ResidentPool, ReleaseRoundTripsThroughTheFreeDeques) {
  Fixture f;
  DeviceResidentPool pool = f.small_pool(4, 16);

  const core::Subproblem root = core::Subproblem::root(f.inst.jobs());
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  core::ResidentGroup g = f.group_of(root, bounds, tickets);
  ResidentIterationIo io;
  pool.iterate(1000000, {&g, 1}, io);

  core::ResidentPoolStats stats = pool.stats();
  EXPECT_EQ(stats.live(), 10u);
  for (const std::uint32_t t : tickets) pool.release(t);
  stats = pool.stats();
  EXPECT_EQ(stats.live(), 0u);
  std::uint64_t released = 0;
  for (const auto& s : stats.shards) released += s.released;
  EXPECT_EQ(released, 10u);
  // The freed slots are reusable: the next refill succeeds fully.
  std::vector<fsp::Time> bounds2;
  std::vector<std::uint32_t> tickets2;
  core::ResidentGroup g2 = f.group_of(root, bounds2, tickets2);
  pool.iterate(1000000, {&g2, 1}, io);
  for (const std::uint32_t t : tickets2) EXPECT_NE(t, kNull);
  // The free slots are a stack: the slot released last is the next one
  // acquired, so the refill takes the released slots in reverse.
  EXPECT_EQ(tickets2.front(), tickets.back());
  EXPECT_EQ(tickets2, std::vector<std::uint32_t>(tickets.rbegin(),
                                                 tickets.rend()));
}

TEST(ResidentPool, IterationIoShrinksVersusRepackTraffic) {
  Fixture f;
  DeviceResidentPool pool = f.small_pool(4, 64);

  // A resident parent's expansion ships descriptors + child slots down
  // and bounds up — strictly less than the repack path's per-child
  // (jobs + 2) down / 4 up for the same children.
  const core::Subproblem root = core::Subproblem::root(f.inst.jobs());
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  core::ResidentGroup g = f.group_of(root, bounds, tickets);
  ResidentIterationIo io;
  pool.iterate(1000000, {&g, 1}, io);

  const core::Subproblem parent = root.child(0);
  std::vector<fsp::Time> bounds2;
  std::vector<std::uint32_t> tickets2;
  core::ResidentGroup g2 = f.group_of(parent, bounds2, tickets2, tickets[0]);
  pool.iterate(1000000, {&g2, 1}, io);

  const std::size_t repack_h2d =
      io.children * (static_cast<std::size_t>(f.inst.jobs()) + 2);
  EXPECT_LT(io.h2d_bytes, repack_h2d);
  EXPECT_EQ(io.refills, 0u);
}

}  // namespace
}  // namespace fsbb::gpubb
