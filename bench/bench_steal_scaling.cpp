// Shared-pool vs work-stealing multicore scaling — the Fig. 5-style
// companion for the cpu-steal engine.
//
// Both engines explore the same frozen §IV workload on the paper's 20x20
// class under the same node budget, so the wall-clock ratio is a pure
// engine-overhead comparison: the shared pool serializes every pop/push
// through one mutex, the sharded pool only pays for the occasional steal.
//
// Expected shape: near-identical at 1 thread (same bounding kernel), the
// gap widening with the thread count as the single lock saturates —
// work-stealing should win clearly by 8 threads.
//
// The rows price pool locking, not stealing: the frozen pool (1034 nodes
// on ta021) is round-robined across the shards up front, so no worker
// runs dry within the budget and the steal columns read 0/0.
//
//   $ bench_steal_scaling [--jobs N] [--machines M] [--node-budget B]
//                         [--steal-batch K]
#include <iostream>

#include "api/scenario.h"
#include "bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "mtbb/mt_engine.h"
#include "mtbb/steal_engine.h"

int main(int argc, char** argv) {
  using namespace fsbb;

  const auto [args, config] = bench::parse_bench_args(
      argc, argv,
      "usage: bench_steal_scaling [--jobs N] [--machines M] "
      "[--node-budget B] [--steal-batch K]");
  const int jobs = args.has("jobs") ? config.instance.jobs : 20;
  const int machines = args.has("machines") ? config.instance.machines : 20;
  const std::uint64_t budget =
      config.node_budget != 0 ? config.node_budget : 60000;

  // The paper's §IV protocol: freeze one pool, explore it with every
  // competitor. The budget keeps per-cell work identical and bounded.
  const api::Workload workload = api::make_class_workload(jobs, machines);

  std::cout << "work-stealing vs shared-pool multicore B&B\n"
            << workload.inst().name() << " (" << jobs << "x" << machines
            << "), frozen pool of " << workload.frozen.nodes.size()
            << " nodes, budget " << budget << " nodes/run, steal batch "
            << config.steal_batch << "\n\n";

  AsciiTable table("same workload, same node budget — engine overhead only");
  table.set_header({"threads", "shared-pool s", "work-steal s",
                    "steals (ok/try)", "nodes stolen"});

  double shared_base = 0, shared_last = 0;
  double steal_base = 0, steal_last = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    mtbb::MtOptions options;
    options.threads = threads;
    options.node_budget = budget;
    options.steal_batch = config.steal_batch;

    const WallTimer shared_timer;
    const core::SolveResult shared = mtbb::mt_solve_from(
        workload.inst(), workload.lb(), workload.frozen.nodes,
        workload.frozen.incumbent, options);
    const double shared_s = shared_timer.seconds();

    const WallTimer steal_timer;
    const core::SolveResult stolen = mtbb::steal_solve_from(
        workload.inst(), workload.lb(), workload.frozen.nodes,
        workload.frozen.incumbent, options);
    const double steal_s = steal_timer.seconds();

    if (threads == 1) {
      shared_base = shared_s;
      steal_base = steal_s;
    }
    shared_last = shared_s;
    steal_last = steal_s;
    const core::StealStats steals =
        stolen.steal.value_or(core::StealStats{});
    table.add_row({std::to_string(threads), AsciiTable::num(shared_s),
                   AsciiTable::num(steal_s),
                   std::to_string(steals.steal_successes) + "/" +
                       std::to_string(steals.steal_attempts),
                   std::to_string(steals.nodes_stolen)});
  }
  table.render(std::cout);

  std::cout << "\nself-speedup at 8 threads: shared-pool x"
            << AsciiTable::num(shared_base / shared_last) << ", work-steal x"
            << AsciiTable::num(steal_base / steal_last)
            << " (identical lb1 bounding kernel in every cell)\n";
  return 0;
}
