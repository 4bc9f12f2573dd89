// The traced twins are the untraced backends plus timing: same counters,
// makespan and permutation, bit for bit. And the traced run's per-layer
// self times account for its end-to-end time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "api/scenario.h"
#include "api/solver.h"
#include "inputs.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fsbb;

void expect_same(const api::SolveReport& plain, const api::SolveReport& twin) {
  EXPECT_EQ(plain.stats.branched, twin.stats.branched);
  EXPECT_EQ(plain.stats.generated, twin.stats.generated);
  EXPECT_EQ(plain.stats.evaluated, twin.stats.evaluated);
  EXPECT_EQ(plain.stats.pruned, twin.stats.pruned);
  EXPECT_EQ(plain.stats.leaves, twin.stats.leaves);
  EXPECT_EQ(plain.stats.ub_updates, twin.stats.ub_updates);
  EXPECT_EQ(plain.stats.initial_ub, twin.stats.initial_ub);
  EXPECT_EQ(plain.best_makespan, twin.best_makespan);
  EXPECT_EQ(plain.best_permutation, twin.best_permutation);
  EXPECT_EQ(plain.stop_reason, twin.stop_reason);
}

api::SolverConfig config(const std::string& backend, std::uint64_t budget) {
  api::SolverConfig c;
  c.backend = backend;
  c.node_budget = budget;
  return c;
}

class TracedTwins : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { register_traced_twins(); }
};

// One prove-m20 instance, from the root. gpu-sim proves it too, so it runs
// under a node budget here to keep the test short.
TEST_P(TracedTwins, MatchTheUntracedBackendOnAProveM20Instance) {
  const std::string backend = GetParam();
  std::mt19937_64 rng = workload_rng("prove-m20", 1);
  const fsp::Instance inst =
      *draw_proof_inputs(prove_m20_set(), rng).front().instance;
  const std::uint64_t budget = backend == "gpu-sim" ? 1500 : 0;

  const api::SolveReport plain = api::Solver(config(backend, budget)).solve(inst);
  EngineTrace trace;
  set_active_trace(&trace);
  const api::SolveReport twin =
      api::Solver(config(traced_key(backend), budget)).solve(inst);
  set_active_trace(nullptr);

  expect_same(plain, twin);
  EXPECT_GT(trace.engine_s, 0);
  EXPECT_GT(trace.eval.calls + trace.iterate.calls, 0u);
  EXPECT_LE(trace.eval.busy_s + trace.iterate.busy_s, trace.engine_s);
  EXPECT_EQ(trace.gpu.has_value(), backend == "gpu-sim");
}

// One frozen-gpu input: ta021's pool frozen by the §IV protocol, explored
// for a node-budgeted slice.
TEST_P(TracedTwins, MatchTheUntracedBackendOnAFrozenGpuSlice) {
  const std::string backend = GetParam();
  api::InstanceSpec spec;
  spec.ta_id = 21;
  const api::Workload w = api::make_workload(spec, api::kDefaultFreezeTarget);

  const api::SolveReport plain =
      api::Solver(config(backend, 300)).solve_frozen(w.inst(), w.frozen);
  EngineTrace trace;
  set_active_trace(&trace);
  const api::SolveReport twin = api::Solver(config(traced_key(backend), 300))
                                    .solve_frozen(w.inst(), w.frozen);
  set_active_trace(nullptr);

  expect_same(plain, twin);
  EXPECT_GT(trace.engine_s, 0);
  if (backend == "gpu-sim") {
    ASSERT_TRUE(trace.gpu.has_value());
    const GpuRun direct = run_gpu_direct(w.inst(), config(backend, 300), &w.frozen);
    EXPECT_EQ(direct.result.stats.evaluated, twin.stats.evaluated);
    EXPECT_EQ(direct.ledger.modeled_seconds(), trace.gpu->modeled_seconds());
    EXPECT_GT(trace.iterate.calls, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(EngineBackends, TracedTwins,
                         ::testing::Values("cpu-serial", "cpu-threads",
                                           "gpu-sim"));

// Self time is each span minus its children, so over the whole span tree
// the layers add up to the traced phase's wall time.
TEST(TracedRun, LayerSelfTimesSumToTheTracedWallTime) {
  for (const std::string workload : {"prove-m20", "frozen-gpu"}) {
    RunOptions options;
    options.workload = workload;
    options.seed = 3;
    options.seconds = 0.2;  // one round per half
    options.trace = true;
    const Outcome out = run_workload(options);
    ASSERT_TRUE(out.correct) << workload;
    double overhead = 0;
    for (const Metric& m : out.metrics) {
      if (m.name == "trace.overhead_frac") overhead = m.value;
    }
    double sum = 0;
    for (const auto& [layer, seconds] : out.layer_self_s) {
      EXPECT_GE(seconds, -1e-6) << workload << " layer " << layer;
      sum += seconds;
    }
    EXPECT_TRUE(out.layer_self_s.count("api")) << workload;
    EXPECT_TRUE(out.layer_self_s.count("core")) << workload;
    EXPECT_TRUE(out.layer_self_s.count("mtbb")) << workload;
    EXPECT_NEAR(sum, out.traced_wall_s,
                std::max(std::abs(overhead), 0.01) * out.traced_wall_s)
        << workload;
  }
}

}  // namespace
}  // namespace perfbench
