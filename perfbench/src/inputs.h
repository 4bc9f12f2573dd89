// Seeded inputs of the benchmark workloads.
//
// Every instance comes from the Taillard generator (InstanceSpec{jobs,
// machines, seed}). Proof times of random instances of one shape spread
// over two orders of magnitude, and even instances screened into narrow
// bands differ by 15-20% on some backend, which moved a five-instance
// sample by more than a regression bound between workload seeds. So each
// proof workload proves a fixed, screened set of generator instances (and
// frozen-gpu slices fixed published ones), and the workload seed relabels
// their jobs: every seed gives the program different input matrices of the
// same difficulty. serve-mix, whose jobs are many, draws generator seeds
// from the workload seed directly.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/solver_config.h"
#include "fsp/instance.h"

namespace perfbench {

/// A proof workload's instance set: generator seeds of one shape.
struct ProofSet {
  int jobs = 0;
  int machines = 0;
  std::vector<std::int32_t> seeds;
};

const ProofSet& prove_m20_set();
const ProofSet& prove_m5_set();

/// One proof input: the generator spec, the seeded job relabeling, and the
/// relabeled instance the program receives.
struct ProofInput {
  fsbb::api::InstanceSpec spec;
  std::vector<int> order;
  std::unique_ptr<fsbb::fsp::Instance> instance;
};

/// Deterministic generator for one (workload, seed) pair.
std::mt19937_64 workload_rng(const std::string& workload, std::uint64_t seed);

/// Every instance of the set, each with its jobs relabeled by `rng`.
std::vector<ProofInput> draw_proof_inputs(const ProofSet& set,
                                          std::mt19937_64& rng);

fsbb::fsp::Instance make_instance(const fsbb::api::InstanceSpec& spec);

/// The same instance with its jobs relabeled by a seeded permutation:
/// relabel(inst)[j] = inst[order[j]].
fsbb::fsp::Instance relabel(const fsbb::fsp::Instance& inst,
                            const std::vector<int>& order,
                            const std::string& name);

/// A uniformly random permutation of [0, n).
std::vector<int> random_order(int n, std::mt19937_64& rng);

}  // namespace perfbench
