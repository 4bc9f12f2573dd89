#include "gpubb/adaptive_evaluator.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "fsp/brute_force.h"
#include "fsp/taillard.h"

namespace fsbb::gpubb {
namespace {

fsp::Instance random_instance(int jobs, int machines, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Matrix<fsp::Time> pt(static_cast<std::size_t>(jobs),
                       static_cast<std::size_t>(machines));
  for (auto& v : pt.flat()) v = static_cast<fsp::Time>(rng.next_in(1, 50));
  return fsp::Instance("rand", std::move(pt));
}

MultiDeviceConfig one_card(PlacementPolicy policy) {
  MultiDeviceConfig config;
  config.specs = {gpusim::DeviceSpec::tesla_c2050()};
  config.policy = policy;
  return config;
}

std::vector<core::Subproblem> random_batch(const fsp::Instance& inst,
                                           int count, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<core::Subproblem> batch;
  for (int i = 0; i < count; ++i) {
    core::Subproblem sp = core::Subproblem::root(inst.jobs());
    shuffle(sp.perm, rng);
    sp.depth = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(inst.jobs())));
    batch.push_back(std::move(sp));
  }
  return batch;
}

TEST(AdaptiveEvaluator, RoutesByBatchSize) {
  const fsp::Instance inst = fsp::taillard_instance(21);
  const auto data = fsp::LowerBoundData::build(inst);
  AdaptiveEvaluator eval(inst, data, one_card(PlacementPolicy::kSharedJmPtm),
                         /*cpu_threads=*/2, /*threshold=*/64);
  EXPECT_EQ(eval.threshold(), 64u);

  auto small = random_batch(inst, 10, 1);
  eval.evaluate(small);
  EXPECT_EQ(eval.cpu_batches(), 1u);
  EXPECT_EQ(eval.gpu_batches(), 0u);

  auto large = random_batch(inst, 128, 2);
  eval.evaluate(large);
  EXPECT_EQ(eval.cpu_batches(), 1u);
  EXPECT_EQ(eval.gpu_batches(), 1u);
  EXPECT_EQ(eval.ledger().nodes, 138u);
}

TEST(AdaptiveEvaluator, BothPathsProduceIdenticalBounds) {
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  AdaptiveEvaluator eval(inst, data, one_card(PlacementPolicy::kAuto), 2, 64);
  core::SerialCpuEvaluator reference(inst, data);

  auto batch_small = random_batch(inst, 20, 5);   // CPU path
  auto batch_large = random_batch(inst, 200, 6);  // GPU path
  auto ref_small = batch_small;
  auto ref_large = batch_large;
  eval.evaluate(batch_small);
  eval.evaluate(batch_large);
  reference.evaluate(ref_small);
  reference.evaluate(ref_large);
  for (std::size_t i = 0; i < batch_small.size(); ++i) {
    ASSERT_EQ(batch_small[i].lb, ref_small[i].lb);
  }
  for (std::size_t i = 0; i < batch_large.size(); ++i) {
    ASSERT_EQ(batch_large[i].lb, ref_large[i].lb);
  }
}

TEST(AdaptiveEvaluator, DerivedThresholdIsAWholeNumberOfBlocks) {
  const fsp::Instance inst = fsp::taillard_instance(21);
  const auto data = fsp::LowerBoundData::build(inst);
  AdaptiveEvaluator eval(inst, data, one_card(PlacementPolicy::kSharedJmPtm),
                         4);
  EXPECT_GT(eval.threshold(), 0u);
  EXPECT_EQ(eval.threshold() %
                static_cast<std::size_t>(eval.gpu().block_threads()),
            0u);
  // The break-even must be well below the paper's best pool sizes.
  EXPECT_LE(eval.threshold(), 262144u);
}

TEST(AdaptiveEvaluator, EngineSolvesToTheOptimum) {
  const fsp::Instance inst = random_instance(8, 5, 77);
  const auto data = fsp::LowerBoundData::build(inst);
  const auto opt = fsp::brute_force(inst);
  AdaptiveEvaluator eval(inst, data, one_card(PlacementPolicy::kAuto),
                         /*cpu_threads=*/2, /*threshold=*/32);
  core::EngineOptions options;
  options.batch_size = 64;  // above and below threshold across the run
  core::BBEngine engine(inst, data, eval, options);
  const auto result = engine.solve();
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.best_makespan, opt.makespan);
  EXPECT_GT(eval.cpu_batches() + eval.gpu_batches(), 0u);
}

TEST(AdaptiveEvaluator, NameDescribesRoutingSetup) {
  const fsp::Instance inst = fsp::taillard_instance(1);
  const auto data = fsp::LowerBoundData::build(inst);
  AdaptiveEvaluator eval(inst, data, one_card(PlacementPolicy::kAllGlobal), 3,
                         128);
  EXPECT_NE(eval.name().find("adaptive["), std::string::npos);
  EXPECT_NE(eval.name().find("@128"), std::string::npos);
}

}  // namespace
}  // namespace fsbb::gpubb
