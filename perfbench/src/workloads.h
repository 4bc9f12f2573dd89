// The benchmark workloads and their metrics.
//
// Every workload is a closed loop of jobs from one process (serve-mix: four
// connections, one request in flight on each). A job is one backend
// working on one input through a public entry point: a proof from the
// root (api::Solver::solve), a node-budgeted §IV slice
// (api::Solver::solve_frozen over a pool frozen by the §IV protocol), or a
// served request over `fsbb_serve --listen`. Every workload runs every
// backend, so every end-to-end metric is measured on every workload; what
// differs is the input class and the path, and so which layer the time
// goes to (README.md has the layer map).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;  ///< fsbb_serve, for serve-mix
  std::string trace_file;    ///< traced run: span dump ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> provenance;  ///< instance specs + config echoes
  std::vector<std::string> failures;    ///< one line per failed operation
  /// Traced run only: the traced phase's wall seconds and the self seconds
  /// of every layer its spans cover (the two agree by construction on the
  /// sequential workloads; the fidelity test checks it).
  double traced_wall_s = 0;
  std::map<std::string, double> layer_self_s;
};

/// Runs one workload. Throws on set-up errors (unknown workload, server
/// that does not start); failed operations are counted, not thrown.
Outcome run_workload(const RunOptions& options);

/// The screening behind inputs.cpp: for generator seeds [first, last] of
/// one shape, cpu-serial's evaluated-node count (stopping at max_nodes
/// branched) and, for instances it proves, every backend's fastest proof
/// time over five runs.
void screen(int jobs, int machines, int first, int last,
            std::uint64_t max_nodes);

}  // namespace perfbench
