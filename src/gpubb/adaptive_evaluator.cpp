#include "gpubb/adaptive_evaluator.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/cost_model.h"
#include "gpusim/timing.h"
#include "gpusim/transfer.h"

namespace fsbb::gpubb {
namespace {

// Modeled GPU cost of bounding one node in a pool of `pool` nodes, from
// the static Table I access counts (all priced global — conservative for
// shared placements).
double gpu_seconds_per_node(const gpusim::SimDevice& device,
                            const fsp::LowerBoundData& data,
                            const GpuBoundEvaluator& gpu, std::size_t pool) {
  gpusim::ThreadWork work;
  const auto acc = data.accesses_per_eval(data.jobs());
  work.accesses[static_cast<std::size_t>(gpusim::MemSpace::kGlobal)] =
      static_cast<double>(acc.total());
  work.ops = 2.0 * static_cast<double>(acc.total());

  const auto block = static_cast<std::size_t>(gpu.block_threads());
  const gpusim::GpuCalibration calib = gpusim::GpuCalibration::fermi_defaults();
  const gpusim::TransferModel transfers(device.spec());
  const int grid = static_cast<int>(std::max<std::size_t>(1, pool / block));
  const auto est = gpusim::estimate_kernel_time(
      device.spec(), calib, {grid, static_cast<int>(block)}, gpu.occupancy(),
      work);
  return (est.seconds + calib.iteration_overhead_s(data.jobs()) +
          transfers.seconds(pool * (static_cast<std::size_t>(data.jobs()) + 2)) +
          transfers.seconds(pool * 4)) /
         static_cast<double>(pool);
}

// Break-even batch size: smallest whole-block pool whose modeled GPU cost
// per node undercuts one LB on a CPU core divided by the host thread count
// (the threaded evaluator's ideal throughput). Conservative: it uses the
// root-node work estimate (n remaining), the heaviest case.
std::size_t derive_threshold(const gpusim::SimDevice& device,
                             const fsp::LowerBoundData& data,
                             const GpuBoundEvaluator& gpu,
                             std::size_t cpu_threads) {
  const core::CpuCostModel cpu_model(
      data, core::CpuCostParams::xeon_e5520_reference());
  const double cpu_per_node =
      cpu_model.lb_eval_seconds(data.jobs()) /
      static_cast<double>(std::max<std::size_t>(1, cpu_threads));

  const auto block = static_cast<std::size_t>(gpu.block_threads());
  for (std::size_t pool = block; pool <= (std::size_t{1} << 20); pool *= 2) {
    if (gpu_seconds_per_node(device, data, gpu, pool) < cpu_per_node) {
      return pool;
    }
  }
  return std::size_t{1} << 20;
}

// Host slice of an above-threshold iteration: the modeled CPU and GPU
// node rates in steady state (a deep pool on the device side, every card
// counted) split the children proportionally. Capped at one half — the
// device side is the point of this backend.
double derive_host_share(const gpusim::SimDevice& device,
                         const fsp::LowerBoundData& data,
                         const GpuBoundEvaluator& gpu, std::size_t cpu_threads,
                         std::size_t devices) {
  const core::CpuCostModel cpu_model(
      data, core::CpuCostParams::xeon_e5520_reference());
  const double cpu_rate =
      static_cast<double>(std::max<std::size_t>(1, cpu_threads)) /
      cpu_model.lb_eval_seconds(data.jobs());
  const double gpu_rate =
      static_cast<double>(devices) /
      gpu_seconds_per_node(device, data, gpu, std::size_t{1} << 14);
  return std::min(0.5, cpu_rate / (cpu_rate + gpu_rate));
}

}  // namespace

AdaptiveEvaluator::AdaptiveEvaluator(const fsp::Instance& inst,
                                     const fsp::LowerBoundData& data,
                                     MultiDeviceConfig config,
                                     std::size_t cpu_threads,
                                     std::size_t threshold)
    : cpu_(inst, data, cpu_threads),
      device_(inst, data, std::move(config)),
      threshold_(threshold != 0
                     ? threshold
                     : derive_threshold(device_.device(0), data,
                                        device_.lane(0), cpu_.threads())),
      host_share_(derive_host_share(device_.device(0), data, device_.lane(0),
                                    cpu_.threads(), device_.device_count())) {}

std::string AdaptiveEvaluator::name() const {
  return "adaptive[" + cpu_.name() + "|" + device_.name() + "@" +
         std::to_string(threshold_) + "]";
}

void AdaptiveEvaluator::evaluate(std::span<core::Subproblem> batch) {
  const WallTimer timer;
  if (batch.size() >= threshold_) {
    device_.evaluate(batch);
    ++gpu_batches_;
  } else {
    cpu_.evaluate(batch);
    ++cpu_batches_;
  }
  ++ledger_.batches;
  ledger_.nodes += batch.size();
  ledger_.wall_seconds += timer.seconds();
}

void AdaptiveEvaluator::iterate(fsp::Time ub,
                                std::span<core::ResidentGroup> groups) {
  const WallTimer timer;
  std::size_t children = 0;
  for (const core::ResidentGroup& g : groups) children += g.bounds.size();

  if (children >= threshold_) {
    // Concurrent heterogeneous split: the device takes the leading
    // groups, the host sibling-seam workers a trailing slice of about
    // host_share_ of the children (on group boundaries). Both sides
    // bound disjoint spans of the engine's arena at once; the host-side
    // children simply stay non-resident (tickets already kNullTicket).
    const auto host_target =
        static_cast<std::size_t>(host_share_ * static_cast<double>(children));
    std::size_t split = groups.size();
    std::size_t host_children = 0;
    while (split > 0 &&
           host_children + groups[split - 1].bounds.size() <= host_target) {
      host_children += groups[--split].bounds.size();
    }
    const auto device_part = groups.first(split);
    const std::vector<core::SiblingBatch> host =
        core::sibling_view(groups.subspan(split));

    if (!device_part.empty()) {
      std::thread device_thread(
          [&] { device_.resident_pool()->iterate(ub, device_part); });
      if (!host.empty()) cpu_.evaluate_siblings(host);
      device_thread.join();
      ++gpu_batches_;
      if (!host.empty()) ++cpu_batches_;
    } else {
      cpu_.evaluate_siblings(host);
      ++cpu_batches_;
    }
  } else {
    // Below break-even: bound on host threads through the sibling seam.
    // Children stay non-resident and re-join the device pool as refills
    // if a later iteration pops them.
    cpu_.evaluate_siblings(core::sibling_view(groups));
    ++cpu_batches_;
  }
  ++ledger_.batches;
  ledger_.nodes += children;
  ledger_.wall_seconds += timer.seconds();
}

void AdaptiveEvaluator::release(std::uint32_t ticket) {
  device_.resident_pool()->release(ticket);
}

core::ResidentPoolStats AdaptiveEvaluator::shard_stats() const {
  return device_.shard_stats();
}

}  // namespace fsbb::gpubb
