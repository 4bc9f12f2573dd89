// The Solver facade: config parsing round-trips, misconfiguration fails
// fast with useful errors, reports are structured (text + JSON), and the
// batch API solves independent instances concurrently with identical
// results to one-at-a-time solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "api/solver.h"
#include "common/json.h"
#include "common/threadpool.h"
#include "fsp/taillard.h"

namespace fsbb::api {
namespace {

fsp::Instance small_instance(std::int32_t seed = 123456789) {
  return fsp::make_taillard_instance(9, 5, seed,
                                     "api-9x5-" + std::to_string(seed));
}

CliArgs parse_tokens(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"solver-test"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data(),
                        SolverConfig::cli_flags());
}

TEST(SolverConfig, DefaultsRoundTripThroughCli) {
  const SolverConfig original;
  const SolverConfig reparsed = SolverConfig::from_cli(
      parse_tokens(original.to_cli()));
  EXPECT_EQ(reparsed, original);
}

TEST(SolverConfig, EveryFieldRoundTripsThroughCli) {
  SolverConfig original;
  original.backend = "gpu-sim";
  original.bound = Bound::kLb2;
  original.strategy = core::SelectionStrategy::kDepthFirst;
  original.batch_size = 512;
  original.threads = 3;
  original.batch_workers = 2;
  original.block_threads = 128;
  original.placement = gpubb::PlacementPolicy::kSharedJm;
  original.device = "c1060";
  original.initial_ub = 4321;
  original.node_budget = 99999;
  original.time_limit_seconds = 1.5;
  original.instance.ta_id = 0;
  original.instance.jobs = 12;
  original.instance.machines = 7;
  original.instance.seed = 424242;
  original.instance.count = 5;

  const SolverConfig reparsed = SolverConfig::from_cli(
      parse_tokens(original.to_cli()));
  EXPECT_EQ(reparsed, original);
}

TEST(SolverConfig, FromCliParsesIndividualFlags) {
  const SolverConfig c = SolverConfig::from_cli(parse_tokens(
      {"--backend", "multicore", "--bound=lb0", "--strategy", "depth-first",
       "--placement", "shared-JM+PTM", "--ub", "777", "--ta", "3"}));
  EXPECT_EQ(c.backend, "multicore");
  EXPECT_EQ(c.bound, Bound::kLb0);
  EXPECT_EQ(c.strategy, core::SelectionStrategy::kDepthFirst);
  EXPECT_EQ(c.placement, gpubb::PlacementPolicy::kSharedJmPtm);
  ASSERT_TRUE(c.initial_ub.has_value());
  EXPECT_EQ(*c.initial_ub, 777);
  EXPECT_EQ(c.instance.ta_id, 3);
}

TEST(SolverConfig, RejectsBadEnumsAndDevices) {
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--bound", "lb9"})),
               CheckFailure);
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--strategy", "random"})),
               CheckFailure);
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--placement", "what"})),
               CheckFailure);
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--device", "h100"})),
               CheckFailure);
}

TEST(SolverConfig, HelpIsNotASolveSetting) {
  // Tools print their usage for --help; a solve request carrying it (a
  // serve "cli" payload) is an error, not a default solve.
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--help"})), CheckFailure);
}

// Every case used to narrow silently: --jobs 4294967302 solved a 6-job
// instance, --seed 99999999999 ran seed 1215752191, --ta -3 fell back to
// the generator, and --ub 4294967296 / -5 answered "optimal" at makespan
// 0 / -5 with an empty schedule.
TEST(SolverConfig, RejectsIntegerFlagsOutsideTheirRange) {
  struct Case {
    std::vector<std::string> tokens;
    std::string message;
  };
  const std::vector<Case> cases = {
      {{"--jobs", "4294967302"}, "--jobs must be in [0, 2147483647]"},
      {{"--machines", "4294967299"}, "--machines must be in [0, 2147483647]"},
      {{"--count", "4294967297"}, "--count must be in [0, 2147483647]"},
      {{"--seed", "99999999999"}, "--seed must be in [0, 2147483647]"},
      {{"--ta", "-3"}, "--ta must be in [0, 2147483647]"},
      {{"--ta", "121"}, "Taillard id must be in [0, 120]"},
      {{"--ub", "4294967296"}, "--ub must be in [0, 2147483647]"},
      {{"--ub", "-5"}, "--ub must be in [0, 2147483647]"},
      {{"--block-threads", "-1"},
       "--block-threads must be in [0, 2147483647]"},
  };
  for (const Case& c : cases) {
    const std::string input = c.tokens[0] + " " + c.tokens[1];
    try {
      SolverConfig::from_cli(parse_tokens(c.tokens));
      ADD_FAILURE() << input << " was accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << input << ": " << e.what();
    }
  }
  // The ends of each range still parse.
  const SolverConfig edge = SolverConfig::from_cli(
      parse_tokens({"--ub", "2147483647", "--seed", "2147483646", "--ta",
                    "120"}));
  ASSERT_TRUE(edge.initial_ub.has_value());
  EXPECT_EQ(*edge.initial_ub, 2147483647);
  EXPECT_EQ(edge.instance.seed, 2147483646);
  EXPECT_EQ(edge.instance.ta_id, 120);
  // validate() holds programmatic configs to the same Taillard range.
  SolverConfig negative_ta;
  negative_ta.instance.ta_id = -1;
  EXPECT_THROW(negative_ta.validate(), CheckFailure);
}

TEST(SolverConfig, CapsThreadsBatchWorkersAndCards) {
  // A remote "cli" payload must not make the host start 100000 threads:
  // each worker thread, service worker and simulated card is capped.
  for (const std::string flag :
       {"--threads", "--batch-workers", "--gpu-devices"}) {
    EXPECT_THROW(SolverConfig::from_cli(parse_tokens({flag, "100000"})),
                 CheckFailure)
        << flag;
    EXPECT_THROW(SolverConfig::from_cli(parse_tokens({flag, "257"})),
                 CheckFailure)
        << flag;
    EXPECT_NO_THROW(SolverConfig::from_cli(parse_tokens({flag, "256"})))
        << flag;
  }
  static_assert(SolverConfig::kMaxWorkers == 256);
}

TEST(SolverConfig, CapsGeneratedInstanceSizes) {
  // The generator allocates the jobs x machines matrix before anything
  // else looks at it: "--jobs 100000 --machines 100000" asked for 40 GB.
  static_assert(SolverConfig::kMaxJobs == 1000);
  static_assert(SolverConfig::kMaxMachines == 100);
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {
          {{"--jobs", "1001"}, "--jobs must be in [1, 1000]"},
          {{"--jobs", "0"}, "--jobs must be in [1, 1000]"},
          {{"--machines", "101"}, "--machines must be in [1, 100]"},
          {{"--jobs", "100000", "--machines", "100000"},
           "--jobs must be in [1, 1000]"},
      };
  for (const auto& [tokens, message] : cases) {
    try {
      SolverConfig::from_cli(parse_tokens(tokens));
      ADD_FAILURE() << tokens[0] << " " << tokens[1] << " was accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  // Taillard's 500x20 and VRF's 800x60 fit; a Taillard id ignores them.
  EXPECT_NO_THROW(
      SolverConfig::from_cli(parse_tokens({"--jobs", "1000", "--machines",
                                           "100"})));
  EXPECT_NO_THROW(
      SolverConfig::from_cli(parse_tokens({"--jobs", "800", "--machines",
                                           "60"})));
  EXPECT_NO_THROW(SolverConfig::from_cli(
      parse_tokens({"--ta", "120", "--jobs", "100000"})));
}

TEST(SolverConfig, OneInstancePerSolveRejectsACountFirst) {
  InstanceSpec spec;
  spec.jobs = 6;
  spec.machines = 3;
  spec.count = 2;
  try {
    make_one_instance(spec);
    ADD_FAILURE() << "--count 2 was accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "one instance per solve (--count 1), got --count 2"),
              std::string::npos)
        << e.what();
  }
  spec.count = 1;
  EXPECT_EQ(make_one_instance(spec).name(), make_instances(spec).front().name());
  // A Taillard id names one instance whatever the count says.
  spec.ta_id = 3;
  spec.count = 2;
  EXPECT_EQ(make_one_instance(spec).name(), "ta003");
}

TEST(SolverConfig, CliPayloadIsAStringOrAnArrayOfTokens) {
  const SolverConfig from_string = SolverConfig::from_cli_payload(
      JsonValue::parse(R"("--jobs 7   --backend cpu-steal")"));
  const SolverConfig from_array = SolverConfig::from_cli_payload(
      JsonValue::parse(R"(["--jobs", "7", "--backend", "cpu-steal"])"));
  EXPECT_EQ(from_string, from_array);
  EXPECT_EQ(from_string.instance.jobs, 7);
  EXPECT_EQ(from_string.backend, "cpu-steal");
  EXPECT_EQ(SolverConfig::from_cli_payload(JsonValue::parse(R"("")")),
            SolverConfig());
  EXPECT_THROW(SolverConfig::from_cli_payload(JsonValue::parse("[7]")),
               CheckFailure);
  EXPECT_THROW(SolverConfig::from_cli_payload(JsonValue::parse("7")),
               CheckFailure);
  EXPECT_THROW(SolverConfig::from_cli_payload(
                   JsonValue::parse(R"("--threads 100000")")),
               CheckFailure);
}

TEST(SolverConfig, MakeInstancesHonorsCountAndSeeds) {
  InstanceSpec spec;
  spec.jobs = 6;
  spec.machines = 3;
  spec.seed = 1000;
  spec.count = 3;
  const std::vector<fsp::Instance> instances = make_instances(spec);
  ASSERT_EQ(instances.size(), 3u);
  for (const fsp::Instance& inst : instances) {
    EXPECT_EQ(inst.jobs(), 6);
    EXPECT_EQ(inst.machines(), 3);
  }
  // Distinct seeds produce distinct processing-time matrices.
  const auto first = instances[0].ptm().flat();
  const auto second = instances[1].ptm().flat();
  EXPECT_FALSE(std::equal(first.begin(), first.end(), second.begin(),
                          second.end()));
  // ta_id takes precedence and yields the published instance.
  spec.ta_id = 1;
  const std::vector<fsp::Instance> ta = make_instances(spec);
  ASSERT_EQ(ta.size(), 1u);
  EXPECT_EQ(ta[0].jobs(), 20);
  EXPECT_EQ(ta[0].machines(), 5);
}

TEST(Solver, UnknownBackendFailsAtConstructionNamingTheRegistry) {
  SolverConfig config;
  config.backend = "quantum";
  try {
    const Solver solver(config);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quantum"), std::string::npos) << what;
    EXPECT_NE(what.find("cpu-serial"), std::string::npos)
        << "error should list registered keys: " << what;
  }
}

TEST(Solver, ReportEchoesConfigAndInstance) {
  SolverConfig config;
  config.backend = "cpu-serial";
  const fsp::Instance inst = small_instance();
  const SolveReport report = Solver(config).solve(inst);

  EXPECT_EQ(report.config, config);
  EXPECT_EQ(report.instance_name, inst.name());
  EXPECT_EQ(report.jobs, 9);
  EXPECT_EQ(report.machines, 5);
  EXPECT_EQ(report.backend, "cpu-serial");
  EXPECT_EQ(report.evaluator, "cpu-serial");
  EXPECT_TRUE(report.proven_optimal);
  EXPECT_EQ(report.best_permutation.size(), 9u);
  EXPECT_GT(report.stats.branched, 0u);
  ASSERT_TRUE(report.eval.has_value());
  // The ledger also counts the root evaluation the engine does not.
  EXPECT_GE(report.eval->nodes, report.stats.evaluated);
  EXPECT_LE(report.eval->nodes, report.stats.evaluated + 1);
}

TEST(Solver, ReportJsonCarriesTheStructuredFields) {
  SolverConfig config;
  config.backend = "gpu-sim";
  const SolveReport report = Solver(config).solve(small_instance());
  const std::string json = report.to_json();

  // Spot-check the deterministic shape (full parsing needs no dependency).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"config\":{\"backend\":\"gpu-sim\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bound\":\"lb1\""), std::string::npos);
  EXPECT_NE(json.find("\"instance\":{\"name\":\"api-9x5-123456789\""),
            std::string::npos);
  EXPECT_NE(json.find("\"best_makespan\":" +
                      std::to_string(report.best_makespan)),
            std::string::npos);
  EXPECT_NE(json.find("\"proven_optimal\":true"), std::string::npos);
  EXPECT_NE(json.find("\"evaluated\":" +
                      std::to_string(report.stats.evaluated)),
            std::string::npos);
  EXPECT_NE(json.find("\"eval\":{\"batches\":"), std::string::npos);
  EXPECT_NE(json.find("\"initial_ub\":null"), std::string::npos);
}

TEST(Solver, MulticoreReportHasNoEvaluatorLedger) {
  SolverConfig config;
  config.backend = "multicore";
  config.threads = 2;
  const SolveReport report = Solver(config).solve(small_instance());
  EXPECT_FALSE(report.eval.has_value());
  EXPECT_NE(report.to_json().find("\"eval\":null"), std::string::npos);
}

TEST(Solver, SolveManyMatchesIndividualSolves) {
  SolverConfig config;
  config.backend = "cpu-serial";
  config.batch_workers = 3;
  const Solver solver(config);

  std::vector<fsp::Instance> instances;
  for (int i = 0; i < 6; ++i) {
    instances.push_back(small_instance(1000 + i));
  }

  const std::vector<SolveReport> batch = solver.solve_many(instances);
  ASSERT_EQ(batch.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const SolveReport one = solver.solve(instances[i]);
    EXPECT_EQ(batch[i].instance_name, instances[i].name());
    EXPECT_EQ(batch[i].best_makespan, one.best_makespan) << i;
    EXPECT_EQ(batch[i].proven_optimal, one.proven_optimal) << i;
    EXPECT_EQ(batch[i].stats.branched, one.stats.branched) << i;
  }
}

TEST(Solver, SolveManyOverExternalSharedPool) {
  SolverConfig config;
  config.backend = "cpu-threads";
  config.threads = 2;
  const Solver solver(config);

  std::vector<fsp::Instance> instances;
  for (int i = 0; i < 4; ++i) instances.push_back(small_instance(2000 + i));

  ThreadPool pool(2);  // shared across the whole batch
  const std::vector<SolveReport> reports = solver.solve_many(instances, pool);
  ASSERT_EQ(reports.size(), 4u);
  for (const SolveReport& r : reports) {
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.backend, "cpu-threads");
  }
  EXPECT_TRUE(solver.solve_many({}).empty());
}

TEST(Solver, HonorsNodeBudgetAcrossBackends) {
  for (const std::string backend : {"cpu-serial", "gpu-sim"}) {
    SolverConfig config;
    config.backend = backend;
    config.node_budget = 5;
    const SolveReport report = Solver(config).solve(small_instance());
    EXPECT_FALSE(report.proven_optimal) << backend;
    EXPECT_LE(report.stats.branched, 6u) << backend;
    EXPECT_EQ(report.stop_reason, core::StopReason::kBudget) << backend;
  }
}

// An instance only the GPU path rejects (it packs processing times as u8):
// with backend gpu-sim, this fails while ordinary Taillard instances
// succeed — a genuinely per-instance failure under one config.
fsp::Instance gpu_poison_instance() {
  Matrix<fsp::Time> pt(4, 3, 10);
  pt(1, 1) = 300;  // > 255: DeviceLbData::build throws
  return fsp::Instance("poison-4x3", std::move(pt));
}

TEST(Solver, SolveManyOutcomesKeepsPerInstanceResultsOnMixedFailure) {
  SolverConfig config;
  config.backend = "gpu-sim";
  config.batch_workers = 2;
  const Solver solver(config);

  std::vector<fsp::Instance> instances;
  instances.push_back(small_instance(3000));
  instances.push_back(gpu_poison_instance());
  instances.push_back(small_instance(3001));

  const std::vector<SolveOutcome> outcomes =
      solver.solve_many_outcomes(instances);
  ASSERT_EQ(outcomes.size(), 3u);
  // Completed work survives the failing sibling, in input order.
  ASSERT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[0].report->proven_optimal);
  EXPECT_EQ(outcomes[0].report->instance_name, instances[0].name());
  ASSERT_FALSE(outcomes[1].ok());
  EXPECT_NE(outcomes[1].error.find("u8"), std::string::npos)
      << outcomes[1].error;
  ASSERT_TRUE(outcomes[2].ok());
  EXPECT_TRUE(outcomes[2].report->proven_optimal);
  EXPECT_EQ(outcomes[2].report->instance_name, instances[2].name());
}

TEST(Solver, SolveManyRethrowsTheFirstErrorOnlyAfterTheBatchDrains) {
  SolverConfig config;
  config.backend = "gpu-sim";
  config.batch_workers = 2;
  const Solver solver(config);

  std::vector<fsp::Instance> instances;
  instances.push_back(gpu_poison_instance());
  instances.push_back(small_instance(3002));

  // The compat shim still throws — with the original exception type — but
  // only once every instance finished.
  EXPECT_THROW(solver.solve_many(instances), CheckFailure);

  // The same batch through the ThreadPool overload behaves identically.
  ThreadPool pool(2);
  EXPECT_THROW(solver.solve_many(instances, pool), CheckFailure);
}

TEST(Solver, DeadlineFlowsThroughTheSynchronousFacade) {
  SolverConfig config;
  config.backend = "cpu-steal";
  config.threads = 2;
  config.deadline_ms = 0;  // expired before the search starts
  const fsp::Instance inst = small_instance();
  const SolveReport report = Solver(config).solve(inst);
  EXPECT_EQ(report.stop_reason, core::StopReason::kDeadline);
  EXPECT_FALSE(report.proven_optimal);
  EXPECT_EQ(report.stats.branched, 0u);
  // JSON and text both surface the stop reason.
  EXPECT_NE(report.to_json().find("\"stop_reason\":\"deadline\""),
            std::string::npos);
  std::ostringstream text;
  text << report;
  EXPECT_NE(text.str().find("stopped: deadline"), std::string::npos);
}

// An --ub below the optimum prunes every node, so the search exhausts
// without a schedule. That proves only that nothing beats the bound; it
// used to be reported as a proven optimum of 5 with an empty schedule.
TEST(Solver, UbThatNothingBeatsIsNotAProvenOptimum) {
  SolverConfig config;
  config.instance.jobs = 6;
  config.instance.machines = 3;
  const fsp::Instance inst = make_one_instance(config.instance);
  const fsp::Time optimum = Solver(config).solve(inst).best_makespan;
  for (const char* backend : {"cpu-serial", "cpu-steal", "gpu-sim"}) {
    SCOPED_TRACE(backend);
    config.backend = backend;
    for (const fsp::Time ub : {fsp::Time{5}, optimum}) {
      config.initial_ub = ub;
      const SolveReport report = Solver(config).solve(inst);
      EXPECT_EQ(report.best_makespan, ub);
      EXPECT_TRUE(report.best_permutation.empty());
      EXPECT_EQ(report.stop_reason, core::StopReason::kOptimal);
      EXPECT_FALSE(report.proven_optimal) << "ub " << ub;
      EXPECT_NE(report.to_json().find("\"proven_optimal\":false"),
                std::string::npos);
    }
    // A bound the search beats still ends in a proof, with its schedule.
    config.initial_ub = optimum + 1;
    const SolveReport beaten = Solver(config).solve(inst);
    EXPECT_EQ(beaten.best_makespan, optimum);
    EXPECT_FALSE(beaten.best_permutation.empty());
    EXPECT_TRUE(beaten.proven_optimal);
  }
}

TEST(SolverConfig, DeadlineAndProgressFlagsRoundTripThroughCli) {
  SolverConfig original;
  original.deadline_ms = 1500;
  original.progress_interval_ms = 50;
  const SolverConfig reparsed =
      SolverConfig::from_cli(parse_tokens(original.to_cli()));
  EXPECT_EQ(reparsed, original);
  ASSERT_TRUE(reparsed.deadline_ms.has_value());
  EXPECT_EQ(*reparsed.deadline_ms, 1500u);

  // Absent flag stays unset; --deadline-ms 0 parses as "already expired".
  EXPECT_FALSE(SolverConfig().deadline_ms.has_value());
  const SolverConfig zero = SolverConfig::from_cli(
      parse_tokens({"--deadline-ms", "0"}));
  ASSERT_TRUE(zero.deadline_ms.has_value());
  EXPECT_EQ(*zero.deadline_ms, 0u);
}

}  // namespace
}  // namespace fsbb::api
