// MultiDevicePool unit suite: one-evaluator facade over N simulated
// cards, heterogeneous flat-batch splitting, refill routing to the
// hungriest card, outer-ticket stability across cross-card rebalancing,
// the starved-device recall-and-resplit path under the core::audit
// ticket conservation check (issued + rebalanced == allocated), and a
// one-card pool solving exactly like its bare card.
#include "gpubb/multi_device_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/audit.h"
#include "core/engine.h"
#include "fsp/lb1.h"
#include "fsp/taillard.h"
#include "gpusim/device_spec.h"

namespace fsbb::gpubb {
namespace {

constexpr std::uint32_t kNull = core::ResidentPool::kNullTicket;

struct Fixture {
  fsp::Instance inst = fsp::make_taillard_instance(10, 4, 99, "md-10x4");
  fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);

  MultiDeviceConfig two_cards(std::uint64_t min_gap = 8,
                              std::size_t move_batch = 64) {
    MultiDeviceConfig config;
    config.specs = {gpusim::DeviceSpec::tesla_c2050(),
                    gpusim::DeviceSpec::tesla_c2050()};
    config.policy = PlacementPolicy::kAllGlobal;
    config.block_threads = 8;  // keep the tiny slot geometry un-rounded
    config.pool_config.shards = 2;
    config.pool_config.slots_per_shard = 32;
    config.pool_config.block_threads = 8;
    config.rebalance_min_gap = min_gap;
    config.rebalance_batch = move_batch;
    return config;
  }

  /// A valid parent at `depth`: the identity permutation rotated by `rot`.
  core::Subproblem parent_at(int depth, int rot) {
    core::Subproblem sp = core::Subproblem::root(inst.jobs());
    std::rotate(sp.perm.begin(), sp.perm.begin() + rot, sp.perm.end());
    sp.depth = depth;
    return sp;
  }

  core::ResidentGroup group_of(const core::Subproblem& parent,
                               std::vector<fsp::Time>& bounds,
                               std::vector<std::uint32_t>& tickets) {
    const auto r = static_cast<std::size_t>(parent.remaining());
    bounds.assign(r, 0);
    tickets.assign(r, kNull);
    core::ResidentGroup g;
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

std::uint64_t lane_live(const MultiDevicePool& pool, std::size_t d) {
  return pool.lane(d).resident()->live_slots();
}

TEST(MultiDevicePool, PresentsOneEvaluatorOverTwoCards) {
  Fixture f;
  MultiDevicePool pool(f.inst, f.data, f.two_cards());
  EXPECT_EQ(pool.device_count(), 2u);
  EXPECT_EQ(pool.resident_pool(), &pool);
  EXPECT_EQ(pool.subtree_dfs(), nullptr);  // resident lanes, not dfs
  EXPECT_NE(pool.name().find("x2"), std::string::npos);

  const core::ResidentPoolStats stats = pool.shard_stats();
  EXPECT_EQ(stats.devices, 2u);
  EXPECT_EQ(stats.rebalanced, 0u);
  ASSERT_EQ(stats.shards.size(), 4u);  // 2 shards per card, concatenated
  EXPECT_EQ(stats.shards[0].device, 0u);
  EXPECT_EQ(stats.shards[1].device, 0u);
  EXPECT_EQ(stats.shards[2].device, 1u);
  EXPECT_EQ(stats.shards[3].device, 1u);
  EXPECT_EQ(stats.capacity, 2u * 2u * 32u);
}

TEST(MultiDevicePool, HeterogeneousFlatBatchMatchesHostBounds) {
  Fixture f;
  MultiDeviceConfig config = f.two_cards();
  config.specs = {gpusim::DeviceSpec::tesla_c2050(),
                  gpusim::DeviceSpec::tesla_c1060()};
  MultiDevicePool pool(f.inst, f.data, config);
  EXPECT_NE(pool.device(0).spec().sm_count, pool.device(1).spec().sm_count);

  // A flat batch splits across both cards by modeled throughput; the
  // bounds must be the exact host LB1 values regardless of the split.
  std::vector<core::Subproblem> batch;
  for (int rot = 0; rot < 10; ++rot) {
    core::Subproblem parent = f.parent_at(3, rot);
    batch.push_back(parent.child(0));
    batch.push_back(parent.child(2));
  }
  std::vector<core::Subproblem> expect = batch;
  pool.evaluate(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].lb, f.host_bound(expect[i])) << "node " << i;
  }
  EXPECT_GT(pool.modeled_wall_seconds(), 0.0);
  EXPECT_EQ(pool.combined_gpu_ledger().launches, 2u);
}

TEST(MultiDevicePool, RefillGroupsRouteToTheHungriestCard) {
  Fixture f;
  MultiDevicePool pool(f.inst, f.data, f.two_cards());
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;

  // One refill group per iterate: with equal headroom the first group
  // lands on card 0, and the routing then alternates as each upload
  // shrinks the receiving card's headroom.
  for (int rot = 0; rot < 6; ++rot) {
    core::Subproblem parent = f.parent_at(4, rot);
    std::vector<core::ResidentGroup> groups = {
        f.group_of(parent, bounds, tickets)};
    pool.iterate(1 << 30, groups);
    for (const fsp::Time b : bounds) EXPECT_GT(b, 0);
    for (const std::uint32_t t : tickets) EXPECT_NE(t, kNull);
  }
  EXPECT_EQ(lane_live(pool, 0), lane_live(pool, 1));
  EXPECT_EQ(lane_live(pool, 0) + lane_live(pool, 1), 6u * 6u);
}

TEST(MultiDevicePool, StarvedDeviceRebalanceConservesTickets) {
  const core::audit::ScopedEnable audited;
  Fixture f;
  MultiDevicePool pool(f.inst, f.data, f.two_cards(/*min_gap=*/8));
  core::audit::TicketAudit audit("multi-device-pool");

  // 16 single-group refill iterations; track which card each group's
  // children landed on by watching the per-card live counts move.
  std::vector<std::vector<std::uint32_t>> on_card(2);
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  for (int rot = 0; rot < 16; ++rot) {
    core::Subproblem parent = f.parent_at(4, rot % 10);
    const std::uint64_t live0 = lane_live(pool, 0);
    std::vector<core::ResidentGroup> groups = {
        f.group_of(parent, bounds, tickets)};
    pool.iterate(1 << 30, groups);
    const std::size_t card = lane_live(pool, 0) > live0 ? 0 : 1;
    for (const std::uint32_t t : tickets) {
      ASSERT_NE(t, kNull);
      audit.on_issue(t);
      on_card[card].push_back(t);
    }
  }
  ASSERT_EQ(on_card[0].size(), 48u);
  ASSERT_EQ(on_card[1].size(), 48u);

  // Starve card 1: the search "pruned" its entire resident population.
  for (const std::uint32_t t : on_card[1]) {
    audit.on_release(t);
    pool.release(t);
  }
  EXPECT_EQ(lane_live(pool, 0), 48u);
  EXPECT_EQ(lane_live(pool, 1), 0u);
  EXPECT_EQ(pool.rebalanced(), 0u);

  // The recall-and-resplit moves half the gap to the starved card. The
  // engine-visible (outer) tickets never change, only the payload homes.
  const std::size_t moved = pool.debug_rebalance();
  EXPECT_EQ(moved, 24u);  // min(rebalance_batch, gap / 2)
  EXPECT_EQ(pool.rebalanced(), 24u);
  EXPECT_EQ(lane_live(pool, 0), 24u);
  EXPECT_EQ(lane_live(pool, 1), 24u);

  // Releasing through the stable outer tickets drains both cards.
  for (const std::uint32_t t : on_card[0]) {
    audit.on_release(t);
    pool.release(t);
  }
  EXPECT_EQ(lane_live(pool, 0), 0u);
  EXPECT_EQ(lane_live(pool, 1), 0u);

  // Conservation: every payload slot ever allocated is either a ticket
  // the engine saw or a rebalancer move (issued + rebalanced ==
  // allocated); finish() throws on any imbalance.
  const core::ResidentPoolStats stats = pool.shard_stats();
  EXPECT_EQ(stats.rebalanced, 24u);
  std::uint64_t allocated = 0;
  for (const auto& s : stats.shards) allocated += s.allocated;
  EXPECT_EQ(audit.issued() + stats.rebalanced, allocated);
  EXPECT_NO_THROW(audit.finish(stats));
}

TEST(MultiDevicePool, RebalanceIsIdleWhenBalanced) {
  Fixture f;
  MultiDevicePool pool(f.inst, f.data, f.two_cards());
  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  for (int rot = 0; rot < 4; ++rot) {
    core::Subproblem parent = f.parent_at(4, rot);
    std::vector<core::ResidentGroup> groups = {
        f.group_of(parent, bounds, tickets)};
    pool.iterate(1 << 30, groups);
  }
  EXPECT_EQ(pool.debug_rebalance(), 0u);
  EXPECT_EQ(pool.rebalanced(), 0u);
}

TEST(MultiDevicePool, SingleCardDegeneratesToOneLane) {
  Fixture f;
  MultiDeviceConfig config = f.two_cards();
  config.specs.resize(1);
  MultiDevicePool pool(f.inst, f.data, config);
  EXPECT_EQ(pool.device_count(), 1u);

  std::vector<fsp::Time> bounds;
  std::vector<std::uint32_t> tickets;
  core::Subproblem parent = f.parent_at(4, 1);
  std::vector<core::ResidentGroup> groups = {
      f.group_of(parent, bounds, tickets)};
  pool.iterate(1 << 30, groups);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], f.host_bound(parent.child(static_cast<int>(i))));
    EXPECT_NE(tickets[i], kNull);
  }
  for (const std::uint32_t t : tickets) pool.release(t);
  EXPECT_EQ(pool.debug_rebalance(), 0u);  // nothing to move on one card
}

void expect_same_gpu_ledger(const GpuLedger& a, const GpuLedger& b) {
  EXPECT_EQ(a.transfers.h2d_transfers, b.transfers.h2d_transfers);
  EXPECT_EQ(a.transfers.d2h_transfers, b.transfers.d2h_transfers);
  EXPECT_EQ(a.transfers.h2d_bytes, b.transfers.h2d_bytes);
  EXPECT_EQ(a.transfers.d2h_bytes, b.transfers.d2h_bytes);
  EXPECT_EQ(a.transfers.h2d_seconds, b.transfers.h2d_seconds);
  EXPECT_EQ(a.transfers.d2h_seconds, b.transfers.d2h_seconds);
  EXPECT_EQ(a.kernel_seconds, b.kernel_seconds);
  EXPECT_EQ(a.iteration_seconds, b.iteration_seconds);
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.counters.total_accesses(), b.counters.total_accesses());
  EXPECT_EQ(a.counters.arithmetic_ops, b.counters.arithmetic_ops);
}

void expect_same_shards(const core::ResidentPoolStats& a,
                        const core::ResidentPoolStats& b) {
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.slot_bytes, b.slot_bytes);
  EXPECT_EQ(a.overflow, b.overflow);
  EXPECT_EQ(a.refills, b.refills);
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.rebalanced, b.rebalanced);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].device, b.shards[s].device) << s;
    EXPECT_EQ(a.shards[s].live, b.shards[s].live) << s;
    EXPECT_EQ(a.shards[s].peak_live, b.shards[s].peak_live) << s;
    EXPECT_EQ(a.shards[s].allocated, b.shards[s].allocated) << s;
    EXPECT_EQ(a.shards[s].released, b.shards[s].released) << s;
    EXPECT_EQ(a.shards[s].spills, b.shards[s].spills) << s;
    EXPECT_EQ(a.shards[s].steals, b.shards[s].steals) << s;
    EXPECT_EQ(a.shards[s].refills, b.shards[s].refills) << s;
  }
}

// A one-card pool hands the engine its card on every seam, so a one-card
// solve runs the bare GpuBoundEvaluator: no ticket table, no incumbent
// broadcast to itself, and the same name, counters, ledgers and shards.
TEST(MultiDevicePool, OneCardIsItsCard) {
  // NEH is not optimal here, so every mode searches and improves on it.
  const fsp::Instance inst = fsp::make_taillard_instance(10, 6, 42, "md-10x6");
  const fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
  for (const GpuPoolMode mode :
       {GpuPoolMode::kResident, GpuPoolMode::kRepack, GpuPoolMode::kDfs}) {
    SCOPED_TRACE(to_string(mode));
    MultiDeviceConfig config;
    config.specs = {gpusim::DeviceSpec::tesla_c2050()};
    config.mode = mode;
    MultiDevicePool pool(inst, data, config);
    GpuBoundEvaluator& card = pool.lane_mut(0);
    EXPECT_EQ(pool.resident_pool(), card.resident_pool());
    EXPECT_EQ(pool.subtree_dfs(), card.subtree_dfs());
    EXPECT_EQ(pool.name(), card.name());
    EXPECT_EQ(&pool.ledger(), &card.ledger());

    gpusim::SimDevice device(gpusim::DeviceSpec::tesla_c2050());
    GpuBoundEvaluator bare(device, inst, data, config.policy,
                           /*block_threads=*/0, config.calibration, mode);
    core::EngineOptions options;
    options.strategy = mode == GpuPoolMode::kDfs
                           ? core::SelectionStrategy::kDepthFirst
                           : core::SelectionStrategy::kBestFirst;
    options.batch_size = 64;
    const core::SolveResult got =
        core::BBEngine(inst, data, pool, options).solve();
    const core::SolveResult want =
        core::BBEngine(inst, data, bare, options).solve();

    EXPECT_GT(want.stats.evaluated, 0u);
    EXPECT_GT(want.stats.ub_updates, 0u);
    EXPECT_EQ(pool.name(), bare.name());
    EXPECT_EQ(got.best_makespan, want.best_makespan);
    EXPECT_EQ(got.best_permutation, want.best_permutation);
    EXPECT_EQ(got.stats.branched, want.stats.branched);
    EXPECT_EQ(got.stats.generated, want.stats.generated);
    EXPECT_EQ(got.stats.evaluated, want.stats.evaluated);
    EXPECT_EQ(got.stats.pruned, want.stats.pruned);
    EXPECT_EQ(got.stats.leaves, want.stats.leaves);
    EXPECT_EQ(got.stats.ub_updates, want.stats.ub_updates);
    EXPECT_EQ(got.stats.initial_ub, want.stats.initial_ub);
    EXPECT_EQ(pool.ledger().batches, bare.ledger().batches);
    EXPECT_EQ(pool.ledger().nodes, bare.ledger().nodes);
    expect_same_gpu_ledger(card.gpu_ledger(), bare.gpu_ledger());
    EXPECT_EQ(pool.modeled_wall_seconds(), card.gpu_ledger().modeled_seconds());
    ASSERT_EQ(got.pool.has_value(), want.pool.has_value());
    EXPECT_EQ(got.pool.has_value(), mode == GpuPoolMode::kResident);
    if (got.pool) expect_same_shards(*got.pool, *want.pool);
  }
}

}  // namespace
}  // namespace fsbb::gpubb
