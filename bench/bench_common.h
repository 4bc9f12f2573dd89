// Shared scaffolding for the reproduction harnesses.
//
// Every table/figure bench follows the paper's §IV protocol: generate the
// benchmark instance (Taillard class representative), freeze a pool of live
// sub-problems with a serial best-first run, measure the bounding kernel's
// per-thread work on that real pool, then price configurations with the
// calibrated offload model. Absolute speedups are modeled (no C2050 here);
// node counts and kernel work are functionally real.
//
// The heavy lifting lives behind the facade (api/scenario.h); this header
// keeps the paper's sweep constants plus thin aliases so every bench speaks
// the same configuration language as the Solver CLI.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <utility>

#include "api/scenario.h"
#include "gpubb/placement.h"
#include "gpusim/kernel.h"

namespace fsbb::bench {

/// The paper's pool-size sweep: 16x256 .. 1024x256.
inline const std::size_t kPaperPoolSizes[] = {4096,  8192,   16384, 32768,
                                              65536, 131072, 262144};

/// The paper's benchmark classes (n x 20).
inline const int kPaperJobCounts[] = {20, 50, 100, 200};

/// Live-frontier size assumed by the host-side heap model (the frozen list
/// L of the protocol).
inline constexpr std::size_t kFrontierNodes = api::kDefaultFrontierNodes;

/// Nodes frozen per instance; they double as the kernel measurement sample.
inline constexpr std::size_t kFreezeTarget = api::kDefaultFreezeTarget;

/// A bench's command line: the SolverConfig flags and the config they set.
struct BenchArgs {
  CliArgs args;
  api::SolverConfig config;
};

/// Parses a bench's flags. `--help` prints `usage` and exits 0; a bad flag
/// prints its message and exits 1 rather than escaping main.
inline BenchArgs parse_bench_args(int argc, char** argv, const char* usage) {
  try {
    BenchArgs out;
    out.args = CliArgs::parse(argc, argv, api::SolverConfig::cli_flags());
    if (out.args.help()) {
      std::cout << usage << "\n";
      std::exit(0);
    }
    out.config = api::SolverConfig::from_cli(out.args);
    return out;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << usage << "\n";
    std::exit(1);
  }
}

/// One benchmark instance with its frozen workload (facade type).
using InstanceSetup = api::Workload;

/// Builds the class-representative instance and freezes its pool.
inline InstanceSetup make_setup(int jobs, int machines = 20,
                                std::size_t freeze_target = kFreezeTarget) {
  return api::make_class_workload(jobs, machines, freeze_target);
}

/// Measures the offload scenario of one placement on the frozen pool.
inline gpubb::OffloadScenario scenario_for(
    gpusim::SimDevice& device, const InstanceSetup& setup,
    gpubb::PlacementPolicy policy,
    std::size_t frontier_nodes = kFrontierNodes) {
  api::SolverConfig config;
  config.placement = policy;
  return api::measure_offload(device, setup, config, frontier_nodes);
}

}  // namespace fsbb::bench
