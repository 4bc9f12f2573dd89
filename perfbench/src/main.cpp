// fsbb_perfbench — one workload of the repository benchmark.
//
//   fsbb_perfbench --workload prove-m20|prove-m5|frozen-gpu|serve-mix
//                  --seed N --seconds S --trace 0|1
//                  [--serve-bin path/to/fsbb_serve] [--trace-file out.json]
//   fsbb_perfbench --screen JOBS MACHINES FIRST_SEED LAST_SEED MAX_NODES
//
// Prints the inputs and config echoes (so any instance can be re-run by
// hand with fsbb_solve), every metric with its unit, and as its last line
// one JSON object {"correct","attempted","failed","metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. Exits 1
// when any operation failed its correctness check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/json.h"
#include "workloads.h"

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fsbb_perfbench: " << why << "\n"
            << "usage: fsbb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--serve-bin PATH] [--trace-file PATH]\n"
               "       fsbb_perfbench --screen JOBS MACHINES FIRST LAST "
               "MAX_NODES\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--screen") {
        if (i + 5 >= argc) {
          usage("--screen needs JOBS MACHINES FIRST LAST MAX_NODES");
        }
        perfbench::screen(std::stoi(argv[i + 1]), std::stoi(argv[i + 2]),
                          std::stoi(argv[i + 3]), std::stoi(argv[i + 4]),
                          std::stoull(argv[i + 5]));
        return 0;
      } else if (flag == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value());
      } else if (flag == "--trace") {
        options.trace = value() != "0";
      } else if (flag == "--serve-bin") {
        options.serve_binary = value();
      } else if (flag == "--trace-file") {
        options.trace_file = value();
      } else {
        usage("unknown flag " + flag);
      }
    }
    if (!have_workload) usage("--workload is required");
    if (!(options.seconds > 0)) usage("--seconds must be positive");

    const perfbench::Outcome out = perfbench::run_workload(options);

    for (const std::string& line : out.provenance) {
      std::cout << "# " << line << "\n";
    }
    for (const std::string& line : out.failures) {
      std::cerr << "FAILED " << line << "\n";
    }
    fsbb::JsonWriter metrics;
    for (const perfbench::Metric& m : out.metrics) {
      std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
                << "\n";
      fsbb::JsonWriter one;
      one.field("value", number(m.value));
      one.str("unit", m.unit);
      metrics.field(m.name, one.done());
    }
    std::cout << "  fail_frac = "
              << number(out.attempted
                            ? static_cast<double>(out.failed) / out.attempted
                            : 0)
              << " (" << out.failed << " of " << out.attempted
              << " operations)\n";
    fsbb::JsonWriter result;
    result.boolean("correct", out.correct);
    result.integer("attempted", out.attempted);
    result.integer("failed", out.failed);
    result.field("metrics", metrics.done());
    std::cout << result.done() << std::endl;
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fsbb_perfbench: " << e.what() << "\n";
    return 1;
  }
}
