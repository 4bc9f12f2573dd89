#include "gpubb/multi_device_pool.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/timer.h"
#include "core/search_control.h"
#include "core/subproblem.h"

namespace fsbb::gpubb {
namespace {

/// Relative throughput weight of a card, for flat-batch splitting. Bounds
/// are position-independent, so the split only shapes modeled time — a
/// faster card takes a proportionally larger contiguous chunk.
double device_weight(const gpusim::DeviceSpec& spec) {
  return static_cast<double>(spec.total_cores()) * spec.clock_ghz;
}

}  // namespace

MultiDevicePool::MultiDevicePool(const fsp::Instance& inst,
                                 const fsp::LowerBoundData& data,
                                 MultiDeviceConfig config)
    : inst_(&inst), config_(std::move(config)) {
  FSBB_CHECK_MSG(!config_.specs.empty(),
                 "multi-device pool needs at least one device spec");
  if (config_.modes.empty()) {
    config_.modes.assign(config_.specs.size(), config_.mode);
  }
  FSBB_CHECK_MSG(config_.modes.size() == config_.specs.size(),
                 "per-device mode list must match the device list");
  lane_modes_ = config_.modes;
  std::size_t dfs_lanes = 0;
  for (GpuPoolMode m : lane_modes_) {
    FSBB_CHECK_MSG(m != GpuPoolMode::kAuto,
                   "auto pool mode must be resolved per device before the "
                   "pool is constructed");
    if (m == GpuPoolMode::kDfs) ++dfs_lanes;
    if (m == GpuPoolMode::kResident) any_resident_ = true;
  }
  all_dfs_ = dfs_lanes == lane_modes_.size();
  FSBB_CHECK_MSG(dfs_lanes == 0 || all_dfs_,
                 "dfs lanes cannot mix with resident/repack lanes (the "
                 "SubtreeDfs seam is all-or-nothing)");

  devices_.reserve(config_.specs.size());
  lanes_.reserve(config_.specs.size());
  for (std::size_t d = 0; d < config_.specs.size(); ++d) {
    devices_.push_back(std::make_unique<gpusim::SimDevice>(config_.specs[d]));
    lanes_.push_back(std::make_unique<GpuBoundEvaluator>(
        *devices_.back(), inst, data, config_.policy, config_.block_threads,
        config_.calibration, lane_modes_[d], config_.pool_config,
        config_.dfs_config));
  }
  lane_groups_.resize(lanes_.size());
  lane_group_index_.resize(lanes_.size());
  move_perm_.resize(static_cast<std::size_t>(inst.jobs()));
  move_fronts_.resize(static_cast<std::size_t>(inst.machines()));
}

MultiDevicePool::~MultiDevicePool() = default;

GpuBoundEvaluator* MultiDevicePool::solo() const {
  return lanes_.size() == 1 ? lanes_.front().get() : nullptr;
}

core::ResidentPool* MultiDevicePool::resident_pool() {
  if (GpuBoundEvaluator* card = solo()) return card->resident_pool();
  return any_resident_ ? this : nullptr;
}

core::SubtreeDfs* MultiDevicePool::subtree_dfs() {
  if (GpuBoundEvaluator* card = solo()) return card->subtree_dfs();
  return all_dfs_ ? this : nullptr;
}

const core::EvalLedger& MultiDevicePool::ledger() const {
  const GpuBoundEvaluator* card = solo();
  return card != nullptr ? card->ledger() : ledger_;
}

double MultiDevicePool::modeled_wall_seconds() const {
  const GpuBoundEvaluator* card = solo();
  return card != nullptr ? card->gpu_ledger().modeled_seconds()
                         : modeled_wall_seconds_;
}

std::string MultiDevicePool::name() const {
  if (const GpuBoundEvaluator* card = solo()) return card->name();
  std::string modes;
  for (std::size_t d = 0; d < lane_modes_.size(); ++d) {
    if (d > 0) modes += ",";
    modes += to_string(lane_modes_[d]);
  }
  return std::string("gpusim-multi[") + to_string(config_.policy) + "|" +
         modes + "|x" + std::to_string(lanes_.size()) + "]";
}

std::vector<double> MultiDevicePool::lane_seconds() const {
  std::vector<double> s;
  s.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    s.push_back(lane->gpu_ledger().modeled_seconds());
  }
  return s;
}

void MultiDevicePool::advance_wall(const std::vector<double>& before) {
  double advance = 0;
  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    advance = std::max(
        advance, lanes_[d]->gpu_ledger().modeled_seconds() - before[d]);
  }
  modeled_wall_seconds_ += advance;
}

GpuLedger MultiDevicePool::combined_gpu_ledger() const {
  GpuLedger total;
  for (const auto& lane : lanes_) {
    const GpuLedger& l = lane->gpu_ledger();
    total.transfers.h2d_transfers += l.transfers.h2d_transfers;
    total.transfers.d2h_transfers += l.transfers.d2h_transfers;
    total.transfers.h2d_bytes += l.transfers.h2d_bytes;
    total.transfers.d2h_bytes += l.transfers.d2h_bytes;
    total.transfers.h2d_seconds += l.transfers.h2d_seconds;
    total.transfers.d2h_seconds += l.transfers.d2h_seconds;
    total.kernel_seconds += l.kernel_seconds;
    total.iteration_seconds += l.iteration_seconds;
    total.launches += l.launches;
    total.counters += l.counters;
  }
  return total;
}

void MultiDevicePool::broadcast_incumbent(fsp::Time ub) {
  if (broadcast_valid_ && ub >= last_broadcast_) return;
  last_broadcast_ = ub;
  broadcast_valid_ = true;
  // Every card receives the new bound (the monotone broadcast of the
  // multi-GPU paper); the shared control folds it in for co-resident
  // engines — CAS-min, so re-offering our own bound is a no-op.
  for (auto& lane : lanes_) {
    lane->record_pool_transfer(gpusim::TransferDir::kHostToDevice,
                               sizeof(std::int32_t));
  }
  if (config_.control != nullptr) config_.control->offer_incumbent(ub);
}

void MultiDevicePool::evaluate(std::span<core::Subproblem> batch) {
  if (GpuBoundEvaluator* card = solo()) {
    card->evaluate(batch);
    return;
  }
  if (batch.empty()) return;
  const WallTimer timer;
  const std::vector<double> before = lane_seconds();

  double total_weight = 0;
  for (const auto& dev : devices_) total_weight += device_weight(dev->spec());

  // Contiguous throughput-weighted chunks; the last lane takes the slack.
  std::size_t begin = 0;
  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    std::size_t count;
    if (d + 1 == lanes_.size()) {
      count = batch.size() - begin;
    } else {
      count = static_cast<std::size_t>(
          static_cast<double>(batch.size()) *
          device_weight(devices_[d]->spec()) / total_weight);
      count = std::min(count, batch.size() - begin);
    }
    if (count > 0) lanes_[d]->evaluate(batch.subspan(begin, count));
    begin += count;
  }

  advance_wall(before);
  ++ledger_.batches;
  ledger_.nodes += batch.size();
  ledger_.wall_seconds += timer.seconds();
}

std::uint32_t MultiDevicePool::issue(std::uint32_t device,
                                     std::uint32_t inner) {
  std::uint32_t outer;
  if (free_head_ != kNullTicket) {
    outer = free_head_;
    free_head_ = table_[outer].next_free;
  } else {
    outer = static_cast<std::uint32_t>(table_.size());
    table_.emplace_back();
  }
  table_[outer].device = device;
  table_[outer].inner = inner;
  table_[outer].next_free = kNullTicket;
  return outer;
}

void MultiDevicePool::release(std::uint32_t ticket) {
  FSBB_CHECK_MSG(ticket < table_.size() &&
                     table_[ticket].inner != kNullTicket,
                 "multi-device release of an unknown ticket");
  TicketEntry& entry = table_[ticket];
  lanes_[entry.device]->release(entry.inner);
  entry.inner = kNullTicket;
  entry.next_free = free_head_;
  free_head_ = ticket;
}

std::size_t MultiDevicePool::rebalance() {
  // Busiest and hungriest resident lanes by live payload count.
  std::size_t donor = lanes_.size(), recipient = lanes_.size();
  std::uint64_t donor_live = 0;
  std::uint64_t recipient_live = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    const DeviceResidentPool* pool = lanes_[d]->resident();
    if (pool == nullptr) continue;
    const std::uint64_t live = pool->live_slots();
    if (live > donor_live) {
      donor_live = live;
      donor = d;
    }
    if (live < recipient_live) {
      recipient_live = live;
      recipient = d;
    }
  }
  if (donor == lanes_.size() || recipient == lanes_.size() ||
      donor == recipient) {
    return 0;
  }
  if (donor_live < recipient_live + config_.rebalance_min_gap) return 0;

  DeviceResidentPool* from = lanes_[donor]->resident_mut();
  DeviceResidentPool* to = lanes_[recipient]->resident_mut();
  // Close half the gap, capped per scan; move the lowest outer tickets
  // first so the selection is deterministic.
  std::size_t budget = std::min<std::size_t>(
      config_.rebalance_batch,
      static_cast<std::size_t>((donor_live - recipient_live) / 2));
  std::size_t moved = 0;
  for (std::uint32_t outer = 0;
       outer < table_.size() && moved < budget && to->free_slots() > 0;
       ++outer) {
    TicketEntry& entry = table_[outer];
    if (entry.inner == kNullTicket || entry.device != donor) continue;
    std::int32_t depth = 0;
    std::int32_t lb = 0;
    from->extract_payload(entry.inner, move_perm_, depth, move_fronts_, lb);
    lanes_[donor]->record_pool_transfer(gpusim::TransferDir::kDeviceToHost,
                                        from->payload_bytes());
    const std::uint32_t slot =
        to->insert_payload(move_perm_, depth, move_fronts_, lb);
    // free_slots() > 0 was checked above, so the insert cannot fail.
    FSBB_CHECK_MSG(slot != kNullTicket,
                   "rebalance re-upload failed with free slots available");
    lanes_[recipient]->record_pool_transfer(gpusim::TransferDir::kHostToDevice,
                                            to->payload_bytes());
    entry.device = static_cast<std::uint32_t>(recipient);
    entry.inner = slot;
    ++moved;
  }
  rebalanced_ += moved;
  return moved;
}

void MultiDevicePool::iterate(fsp::Time ub,
                              std::span<core::ResidentGroup> groups) {
  FSBB_CHECK_MSG(any_resident_, "iterate() requires a resident lane");
  const WallTimer timer;
  const std::vector<double> before = lane_seconds();
  broadcast_incumbent(ub);
  if (lanes_.size() > 1) rebalance();

  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    lane_groups_[d].clear();
    lane_group_index_[d].clear();
  }

  // Free-slot headroom per lane, for refill routing: refills go to the
  // card with the most room left AFTER the children already routed there
  // this iteration — the cross-card hungriest-shard rule.
  std::vector<std::int64_t> headroom(lanes_.size(), 0);
  std::size_t fallback = 0;  // round-robin over repack lanes if needed
  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    const DeviceResidentPool* pool = lanes_[d]->resident();
    headroom[d] = pool != nullptr
                      ? static_cast<std::int64_t>(pool->free_slots())
                      : std::numeric_limits<std::int64_t>::min();
  }

  for (std::size_t g = 0; g < groups.size(); ++g) {
    core::ResidentGroup& group = groups[g];
    std::size_t d;
    core::ResidentGroup local = group;
    if (group.ticket != kNullTicket) {
      FSBB_CHECK_MSG(group.ticket < table_.size() &&
                         table_[group.ticket].inner != kNullTicket,
                     "multi-device iterate over an unknown parent ticket");
      d = table_[group.ticket].device;
      local.ticket = table_[group.ticket].inner;
    } else {
      // Refill: least-occupied resident card; all-repack pools spread
      // refills round-robin (no residency signal to read).
      d = 0;
      for (std::size_t cand = 1; cand < lanes_.size(); ++cand) {
        if (headroom[cand] > headroom[d]) d = cand;
      }
      if (lanes_[d]->resident() == nullptr) {
        d = fallback++ % lanes_.size();
      }
      headroom[d] -= static_cast<std::int64_t>(group.bounds.size());
    }
    lane_groups_[d].push_back(local);
    lane_group_index_[d].push_back(g);
  }

  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    if (lane_groups_[d].empty()) continue;
    if (lanes_[d]->resident() != nullptr) {
      lanes_[d]->iterate(ub, lane_groups_[d]);
      // The lane wrote INNER child tickets into the engine's spans;
      // rewrite them as stable outer handles.
      for (core::ResidentGroup& local : lane_groups_[d]) {
        for (std::uint32_t& ticket : local.child_tickets) {
          if (ticket != kNullTicket) {
            ticket = issue(static_cast<std::uint32_t>(d), ticket);
          }
        }
      }
    } else {
      // Repack lane: the routed groups go through the sibling seam, whose
      // default bounds them as one flat kernel batch. Bounds are
      // bit-identical to the resident path (tested invariant); the
      // children come back non-resident.
      lanes_[d]->evaluate_siblings(core::sibling_view(lane_groups_[d]));
      for (const core::ResidentGroup& local : lane_groups_[d]) {
        std::fill(local.child_tickets.begin(), local.child_tickets.end(),
                  kNullTicket);
      }
    }
  }

  advance_wall(before);
  std::size_t children = 0;
  for (const core::ResidentGroup& group : groups) children += group.bounds.size();
  ++ledger_.batches;
  ledger_.nodes += children;
  ledger_.wall_seconds += timer.seconds();
}

core::ResidentPoolStats MultiDevicePool::shard_stats() const {
  core::ResidentPoolStats total;
  total.devices = lanes_.size();
  total.rebalanced = rebalanced_;
  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    const DeviceResidentPool* pool = lanes_[d]->resident();
    if (pool == nullptr) continue;
    core::ResidentPoolStats s = pool->stats();
    total.capacity += s.capacity;
    total.slot_bytes = s.slot_bytes;  // same instance => identical layout
    total.overflow += s.overflow;
    total.refills += s.refills;
    for (core::ShardOccupancy& shard : s.shards) {
      shard.device = d;
      total.shards.push_back(shard);
    }
  }
  return total;
}

std::size_t MultiDevicePool::max_roots() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->max_roots();
  return total;
}

std::uint64_t MultiDevicePool::launch_expansions() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->launch_expansions();
  return total;
}

core::DfsLaunchResult MultiDevicePool::run_subtrees(
    fsp::Time ub, std::span<const core::DfsRoot> roots,
    std::uint64_t max_expansions) {
  FSBB_CHECK_MSG(all_dfs_, "run_subtrees() requires every lane in dfs mode");
  const WallTimer timer;
  const std::vector<double> before = lane_seconds();
  broadcast_incumbent(ub);

  // Chain the cards in root order: card k+1 only launches if card k
  // started every root it was handed and expansion quota remains, so the
  // combined launch explores the roots in the exact order one big launch
  // (and so a serial depth-first engine) would. The incumbent found on
  // one card flows into the next card's launch; event counter deltas are
  // offset by the stats of the cards before it, so the engine replays the
  // combined incumbent stream with exact running totals.
  core::DfsLaunchResult total;
  std::size_t begin = 0;
  fsp::Time running_ub = ub;
  std::uint64_t quota = max_expansions;
  for (std::size_t d = 0; d < lanes_.size() && begin < roots.size(); ++d) {
    if (quota == 0) break;
    const std::size_t take =
        std::min(roots.size() - begin, lanes_[d]->max_roots());
    core::DfsLaunchResult part =
        lanes_[d]->run_subtrees(running_ub, roots.subspan(begin, take), quota);
    for (core::DfsIncumbentEvent& event : part.incumbents) {
      event.branched += total.stats.branched;
      event.evaluated += total.stats.evaluated;
      event.pruned += total.stats.pruned;
      running_ub = std::min(running_ub, event.makespan);
      total.incumbents.push_back(std::move(event));
    }
    total.stats.add_counters(part.stats);
    for (core::Subproblem& sp : part.surfaced) {
      total.surfaced.push_back(std::move(sp));
    }
    total.roots_started = begin + part.roots_started;
    quota -= std::min(quota, part.stats.branched);
    if (part.roots_started < take) break;  // quota interrupted this card
    begin += take;
  }

  advance_wall(before);
  ++ledger_.batches;
  ledger_.nodes += total.stats.evaluated;
  ledger_.wall_seconds += timer.seconds();
  return total;
}

}  // namespace fsbb::gpubb
