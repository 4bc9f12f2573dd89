// Reproduces paper Table II: parallel efficiency (speedup over one serial
// E5520 core) per (instance, pool size) with ALL six LB structures in GPU
// global memory (L1-preferred split).
//
// Driven entirely through the facade: the device, placement and block size
// come from a SolverConfig (overridable from the command line, e.g.
// `--device c1060` for a what-if run), workloads and scenario pricing come
// from api/scenario.h.
//
// Paper reference values: averages x44.52 (pool 4096) .. x60.64 (262144),
// peak x77.46 on 200x20 at the largest pool; 20x20 peaks early at 8192.
//
//   $ bench_table2_global [--device c2050|c1060] [--placement P]
//                         [--block-threads T]
#include <cstdio>
#include <iostream>

#include "api/scenario.h"
#include "bench_common.h"
#include "common/stats.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace fsbb;

  auto [args, config] = bench::parse_bench_args(
      argc, argv,
      "usage: bench_table2_global [--device c2050|c1060] [--placement P] "
      "[--block-threads T]");
  if (!args.has("placement")) {
    config.placement = gpubb::PlacementPolicy::kAllGlobal;  // Table II setup
  }

  gpusim::SimDevice device(api::device_spec_for(config));
  std::cout << "Table II reproduction — all matrices in global memory\n"
            << "device: " << device.spec().name << "\n\n";

  AsciiTable table(std::string("parallel efficiency vs. pool size (") +
                   gpubb::to_string(config.placement) + " placement)");
  std::vector<std::string> header{"instance"};
  for (const std::size_t pool : bench::kPaperPoolSizes) {
    header.push_back(std::to_string(pool) + " (" +
                     std::to_string(pool / 256) + "x256)");
  }
  table.set_header(std::move(header));

  std::vector<RunningStats> per_pool(std::size(bench::kPaperPoolSizes));
  for (const int jobs : bench::kPaperJobCounts) {
    const api::Workload workload = api::make_class_workload(jobs);
    const gpubb::OffloadScenario scenario =
        api::measure_offload(device, workload, config);

    std::vector<std::string> row{std::to_string(jobs) + "x20"};
    for (std::size_t i = 0; i < std::size(bench::kPaperPoolSizes); ++i) {
      const double s =
          gpubb::model_offload_cycle(scenario, bench::kPaperPoolSizes[i])
              .speedup();
      per_pool[i].add(s);
      row.push_back(AsciiTable::num(s));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg{"average"};
  for (const RunningStats& s : per_pool) avg.push_back(AsciiTable::num(s.mean()));
  table.add_row(std::move(avg));

  table.render(std::cout);
  std::cout << "\npaper (Table II): averages x44.52 -> x60.64, peak x77.46 "
               "(200x20 @ 262144), 20x20 peaks at 8192\n";
  return 0;
}
