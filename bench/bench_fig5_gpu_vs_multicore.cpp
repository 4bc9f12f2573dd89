// Reproduces paper Figure 5: GPU-based B&B vs. the multi-threaded B&B at
// the same theoretical compute budget (~500 double GFLOPS: one C2050 vs
// 7 threads of the i7-970).
//
// Driven through the facade: device and placement come from a SolverConfig
// (the paper's shared-JM+PTM recommendation by default, overridable on the
// command line), workloads and pricing from api/scenario.h.
//
// Paper shape: the GPU wins on every class; its advantage grows with the
// instance size (x6.7 on 20x20 up to x11.5 on 200x20) because bigger
// kernels raise the GPU's useful throughput while the multi-core speedup
// stays flat.
//
//   $ bench_fig5_gpu_vs_multicore [--device c2050|c1060] [--placement P]
//                                 [--block-threads T]
#include <iostream>

#include "api/scenario.h"
#include "bench_common.h"
#include "common/table.h"
#include "mtbb/multicore_model.h"

int main(int argc, char** argv) {
  using namespace fsbb;

  constexpr double kGflopsBudget = 500.0;
  constexpr std::size_t kPool = 262144;

  auto [args, config] = bench::parse_bench_args(
      argc, argv,
      "usage: bench_fig5_gpu_vs_multicore [--device c2050|c1060] "
      "[--placement P] [--block-threads T]");
  if (!args.has("placement")) {
    // Fig. 5 uses the paper's shared-JM+PTM recommendation; on devices
    // without the Fermi shared/L1 split, fall back to the greedy knapsack
    // (which fits whatever shared memory the device has).
    config.placement = config.device == "c2050"
                           ? gpubb::PlacementPolicy::kSharedJmPtm
                           : gpubb::PlacementPolicy::kAuto;
  }

  gpusim::SimDevice device(api::device_spec_for(config));
  const auto params = mtbb::MulticoreModelParams::i7_970_defaults();
  const int threads = mtbb::threads_for_gflops(params, kGflopsBudget);

  std::cout << "Figure 5 reproduction — iso-" << kGflopsBudget
            << "-GFLOPS comparison\n"
            << "GPU: " << device.spec().name << " ("
            << device.spec().peak_gflops_double << " GFLOPS), CPU: " << threads
            << " threads x " << params.gflops_per_thread << " GFLOPS\n\n";

  AsciiTable table("GPU B&B vs multi-threaded B&B, same compute budget");
  table.set_header({"instance", "GPU-based B&B", "multithreaded B&B",
                    "GPU advantage"});

  for (const int jobs : bench::kPaperJobCounts) {
    const api::Workload workload = api::make_class_workload(jobs);
    const auto scenario = api::measure_offload(device, workload, config);
    const double gpu = gpubb::model_offload_cycle(scenario, kPool).speedup();
    const double cpu = mtbb::multicore_speedup(params, threads, jobs);
    table.add_row({std::to_string(jobs) + "x20", AsciiTable::num(gpu),
                   AsciiTable::num(cpu), AsciiTable::num(gpu / cpu) + "x"});
  }
  table.render(std::cout);

  std::cout << "\npaper (Fig. 5): GPU x61.47 vs CPU x9.22 on 20x20 (x6.7); "
               "GPU x100.48 vs CPU x8.76 on 200x20 (x11.5)\n";
  return 0;
}
