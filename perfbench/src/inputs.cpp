#include "inputs.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/matrix.h"

namespace perfbench {

using namespace fsbb;

// Chosen with `fsbb_perfbench --screen JOBS MACHINES FIRST LAST MAX_NODES`
// (LB1, best-first, default configs, fastest of five proofs) from the first
// 200 (12x20) and 800 (15x5) generator seeds: five sizes a step apart, each
// an instance whose cpu-serial, cpu-threads, multicore and gpu-sim proof
// times are all typical for its size. cpu-serial proves them in about
// 40-100 ms (12x20, 11k-29k evaluated nodes) and 40-80 ms (15x5, 109k-248k).
const ProofSet& prove_m20_set() {
  static const ProofSet set{12, 20, {40, 12, 142, 57, 31}};
  return set;
}

const ProofSet& prove_m5_set() {
  static const ProofSet set{15, 5, {382, 67, 641, 116, 272}};
  return set;
}

std::mt19937_64 workload_rng(const std::string& workload, std::uint64_t seed) {
  // FNV-1a, so the stream does not depend on the standard library's hash.
  std::uint32_t salt = 2166136261u;
  for (const char ch : workload) {
    salt = (salt ^ static_cast<unsigned char>(ch)) * 16777619u;
  }
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32), salt};
  return std::mt19937_64(seq);
}

std::vector<ProofInput> draw_proof_inputs(const ProofSet& set,
                                          std::mt19937_64& rng) {
  std::vector<ProofInput> inputs;
  for (const std::int32_t seed : set.seeds) {
    ProofInput in;
    in.spec.jobs = set.jobs;
    in.spec.machines = set.machines;
    in.spec.seed = seed;
    in.order = random_order(set.jobs, rng);
    const fsp::Instance base = make_instance(in.spec);
    in.instance = std::make_unique<fsp::Instance>(
        relabel(base, in.order, base.name() + "-relabeled"));
    inputs.push_back(std::move(in));
  }
  return inputs;
}

fsp::Instance make_instance(const api::InstanceSpec& spec) {
  std::vector<fsp::Instance> one = api::make_instances(spec);
  FSBB_CHECK_MSG(one.size() == 1, "instance spec must name one instance");
  return std::move(one.front());
}

fsp::Instance relabel(const fsp::Instance& inst, const std::vector<int>& order,
                      const std::string& name) {
  FSBB_CHECK_MSG(order.size() == static_cast<std::size_t>(inst.jobs()),
                 "relabel order must cover every job");
  Matrix<fsp::Time> pt(inst.jobs(), inst.machines());
  for (int j = 0; j < inst.jobs(); ++j) {
    for (int k = 0; k < inst.machines(); ++k) pt(j, k) = inst.pt(order[j], k);
  }
  return fsp::Instance(name, std::move(pt));
}

std::vector<int> random_order(int n, std::mt19937_64& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

}  // namespace perfbench
