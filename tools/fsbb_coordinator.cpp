// fsbb_coordinator — multi-process sharded solving (src/dist/).
//
// Grows a root frontier, shards it, and drives N `fsbb_serve --worker`
// child processes with incumbent broadcasting, work rebalancing and
// crash recovery from checkpoints (see src/dist/coordinator.h for the
// wiring diagram). All SolverConfig flags apply and describe the solve
// each worker runs; on top:
//
//   --dist-workers N        worker processes (default 3)
//   --frontier-nodes N      root frontier target size (default 64)
//   --slice-nodes N         worker checkpoint granularity (default 2000)
//   --worker-cmd PATH       worker binary (default: fsbb_serve found next
//                           to this binary; --worker is appended)
//   --max-respawns N        worker deaths tolerated (default 3)
//   --kill-worker I         fault injection: SIGKILL worker I after its
//                           checkpoint ack (tests/CI; default off)
//   --kill-after-checkpoints N   ...after N acks (default 1)
//   --json                  one JSON report line instead of text
//   --verbose               coordinator event log on stderr
//   --help                  print the flags and exit
//
// Examples:
//   $ fsbb_coordinator --jobs 12 --machines 6 --dist-workers 3
//   $ fsbb_coordinator --ta 1 --backend cpu-threads --dist-workers 4 --json
//   $ fsbb_coordinator --jobs 12 --machines 6 --kill-worker 1 --verbose
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "api/solver_config.h"
#include "dist/coordinator.h"

namespace {

void print_usage(std::ostream& os) {
  os << "flags: ";
  for (const std::string& f : fsbb::api::SolverConfig::cli_flags()) {
    os << "--" << f << " ";
  }
  os << "--dist-workers --frontier-nodes --slice-nodes --worker-cmd "
        "--max-respawns --kill-worker --kill-after-checkpoints --json "
        "--verbose --help\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsbb;

  api::SolverConfig config;
  dist::CoordinatorOptions options;
  options.workers = 3;
  bool json = false;
  CliArgs args;
  try {
    std::vector<std::string> known = api::SolverConfig::cli_flags();
    known.insert(known.end(),
                 {"dist-workers", "frontier-nodes", "slice-nodes",
                  "worker-cmd", "max-respawns", "kill-worker",
                  "kill-after-checkpoints"});
    args = CliArgs::parse(argc, argv, known, {"json", "verbose"});
    if (args.help()) {
      print_usage(std::cout);
      return 0;
    }
    config = api::SolverConfig::from_cli(args);

    const std::int64_t workers = args.get_int_or("dist-workers", 3);
    if (workers < 1) throw CheckFailure("--dist-workers must be >= 1");
    options.workers = static_cast<std::size_t>(workers);
    options.frontier_nodes =
        static_cast<std::size_t>(args.get_int_or("frontier-nodes", 64));
    options.slice_nodes =
        static_cast<std::uint64_t>(args.get_int_or("slice-nodes", 2000));
    options.max_respawns =
        static_cast<std::size_t>(args.get_int_or("max-respawns", 3));
    options.kill_worker = static_cast<int>(args.get_int_or("kill-worker", -1));
    options.kill_after_checkpoints = static_cast<std::size_t>(
        args.get_int_or("kill-after-checkpoints", 1));
    const std::string worker_cmd = args.get_or("worker-cmd", "");
    if (!worker_cmd.empty()) options.worker_command = {worker_cmd, "--worker"};
    json = args.has("json");
    if (args.has("verbose")) {
      options.on_log = [](const std::string& line) {
        std::cerr << "# " << line << "\n";
      };
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n";
    print_usage(std::cerr);
    return 1;
  }

  try {
    dist::Coordinator coordinator(api::make_one_instance(config.instance),
                                  config, options);
    const api::SolveReport report = coordinator.run();
    if (json) {
      std::cout << report.to_json() << "\n";
    } else {
      std::cout << report;
      const dist::DistSummary& s = coordinator.summary();
      std::cout << "  dist: " << s.shards_completed << "/"
                << s.shards_dispatched << " shards, " << s.broadcasts
                << " incumbent broadcasts, " << s.rebalances
                << " rebalances, " << s.respawns << " respawns\n";
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
