#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/scenario.h"
#include "api/solver.h"
#include "core/protocol.h"
#include "common/check.h"
#include "common/json.h"
#include "fsp/makespan.h"
#include "inputs.h"
#include "serve_client.h"
#include "trace.h"

namespace perfbench {

using namespace fsbb;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// ------------------------------------------------------------ metrics ---

struct MetricDef {
  const char* name;
  const char* unit;
};

// Backends every workload runs, in job order.
const std::vector<std::string>& backends() {
  static const std::vector<std::string> b{"cpu-serial", "cpu-threads",
                                          "multicore", "cpu-steal", "gpu-sim"};
  return b;
}

// Backends whose jobs the direct workloads' end-to-end metrics cover.
// cpu-steal runs in every workload (its answers are checked and its layer
// is traced) but is left out: its depth-first order follows thread timing,
// and its proof times on the prove-m5 inputs spread too widely across
// seeds for a regression bound.
const std::vector<std::string>& end_to_end_backends() {
  static const std::vector<std::string> b{"cpu-serial", "cpu-threads",
                                          "multicore", "gpu-sim"};
  return b;
}

// The end-to-end metrics (untraced run), in output order.
const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs{
      {"setup_s", "s"},
      {"solve_s.cpu-serial", "s"},
      {"solve_s.cpu-threads", "s"},
      {"solve_s.multicore", "s"},
      {"solve_s.gpu-sim", "s"},
      {"modeled_gpu_s", "s-modeled"},
      {"latency_ms.p50", "ms"},
      {"latency_ms.p90", "ms"},
      {"jobs_per_s", "1/s"},
  };
  return defs;
}

// The per-layer metrics (traced run). A layer a workload does not run
// reports 0: nothing was measured there.
const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs{
      {"api.overhead_s", "s"},
      {"core.engine.self_s", "s"},
      {"core.engine.branched", "count"},
      {"core.engine.evaluated", "count"},
      {"core.engine.pruned", "count"},
      {"core.engine.prune_ratio", "ratio"},
      {"core.eval.calls", "count"},
      {"core.eval.busy_s", "s"},
      {"core.eval.ns_per_node", "ns"},
      {"mtbb.search_overhead.multicore", "ratio"},
      {"mtbb.search_overhead.cpu-steal", "ratio"},
      {"mtbb.efficiency.cpu-threads", "ratio"},
      {"mtbb.efficiency.multicore", "ratio"},
      {"mtbb.efficiency.cpu-steal", "ratio"},
      {"mtbb.steal.attempts", "count"},
      {"mtbb.steal.success_rate", "ratio"},
      {"mtbb.steal.nodes_stolen", "count"},
      {"gpubb.iterate.calls", "count"},
      {"gpubb.iterate.host_s", "s"},
      {"gpubb.host_us_per_node", "us"},
      {"gpubb.pool.refills", "count"},
      {"gpubb.pool.overflow", "count"},
      {"gpubb.pool.spills", "count"},
      {"gpubb.pool.peak_live", "count"},
      {"gpusim.kernel_s", "s-modeled"},
      {"gpusim.h2d_s", "s-modeled"},
      {"gpusim.d2h_s", "s-modeled"},
      {"gpusim.overhead_s", "s-modeled"},
      {"gpusim.launches", "count"},
      {"gpusim.h2d_bytes", "bytes"},
      {"gpusim.d2h_bytes", "bytes"},
      {"gpusim.global_accesses", "count"},
      {"gpusim.shared_accesses", "count"},
      {"gpusim.ops", "count"},
      {"gpusim.ops_per_access", "ops/access"},
      {"serve.overhead_ms", "ms"},
      {"serve.cache.exact_hits", "count"},
      {"serve.cache.misses", "count"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.admission.rejects", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

void emit(Outcome& out, const std::vector<MetricDef>& defs,
          const std::map<std::string, double>& values) {
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    out.metrics.push_back(
        Metric{d.name, it == values.end() ? 0.0 : it->second, d.unit});
  }
}

// -------------------------------------------------------- correctness ---

void attempt(Outcome& out, const std::string& failure) {
  ++out.attempted;
  if (failure.empty()) return;
  ++out.failed;
  out.correct = false;
  if (out.failures.size() < 20) out.failures.push_back(failure);
}

/// "" when `perm` is a permutation of the instance's jobs whose makespan is
/// `best`; otherwise what is wrong.
std::string check_schedule(const fsp::Instance& inst,
                           const std::vector<fsp::JobId>& perm,
                           fsp::Time best) {
  std::vector<char> seen(static_cast<std::size_t>(inst.jobs()), 0);
  if (perm.size() != seen.size()) return "schedule is not a permutation";
  for (const fsp::JobId j : perm) {
    if (j < 0 || j >= inst.jobs() || seen[static_cast<std::size_t>(j)]) {
      return "schedule is not a permutation";
    }
    seen[static_cast<std::size_t>(j)] = 1;
  }
  const fsp::Time ms = fsp::makespan(inst, perm);
  if (ms != best) {
    return "schedule makespan " + std::to_string(ms) + " != reported " +
           std::to_string(best);
  }
  return "";
}

api::SolverConfig config_for(const std::string& backend,
                             std::uint64_t node_budget) {
  api::SolverConfig c;
  c.backend = backend;
  c.node_budget = node_budget;
  return c;
}

std::string cli_echo(const api::SolverConfig& c) {
  std::string s;
  for (const std::string& t : c.to_cli()) s += (s.empty() ? "" : " ") + t;
  return s;
}

// ---------------------------------------------------- direct workloads ---

/// One input of a direct workload: a root proof, or a frozen §IV slice.
struct Input {
  api::InstanceSpec spec;
  std::vector<int> order;  // the seeded job relabeling
  std::unique_ptr<fsp::Instance> instance;
  std::optional<core::FrozenPool> frozen;
  std::uint64_t node_budget = 0;  // 0 = prove optimal
};

struct JobRecord {
  std::string backend;
  std::size_t input = 0;
  double seconds = 0;
  bool traced = false;
  EngineTrace trace;
  std::optional<api::SolveReport> report;
};

struct FrozenClass {
  int ta_id;                  // published Taillard instance
  std::uint64_t node_budget;  // branched nodes per slice
};

// The §IV slices: the first published instance of three of the paper's
// classes (ta021 20x20, ta051 50x20, ta081 100x20), jobs relabeled by the
// seed, pools frozen at the protocol's default size, explored for a fixed
// number of branchings. Fresh random instances per seed moved the slices'
// work by 15%.
const std::vector<FrozenClass>& frozen_classes() {
  static const std::vector<FrozenClass> classes{{21, 400}, {51, 120}, {81, 40}};
  return classes;
}

class DirectWorkload {
 public:
  DirectWorkload(const RunOptions& options, Outcome& out)
      : options_(options), out_(out) {}

  /// Generates (and freezes) the inputs and builds one Solver per backend
  /// and budget, then warms every backend up on a short budgeted solve.
  void setup() {
    register_traced_twins();
    inputs_.clear();
    solvers_.clear();
    std::mt19937_64 rng = workload_rng(options_.workload, options_.seed);
    if (options_.workload == "frozen-gpu") {
      for (const FrozenClass& fc : frozen_classes()) {
        Input in;
        in.spec.ta_id = fc.ta_id;
        const fsp::Instance base = make_instance(in.spec);
        in.order = random_order(base.jobs(), rng);
        in.instance = std::make_unique<fsp::Instance>(
            relabel(base, in.order, base.name() + "-relabeled"));
        // api::make_workload freezes generator specs only; a relabeled
        // instance goes through the protocol function it wraps.
        in.frozen = core::freeze_pool(
            *in.instance, fsp::LowerBoundData::build(*in.instance),
            api::kDefaultFreezeTarget);
        in.node_budget = fc.node_budget;
        inputs_.push_back(std::move(in));
      }
    } else {
      const ProofSet& set = options_.workload == "prove-m20" ? prove_m20_set()
                                                             : prove_m5_set();
      for (ProofInput& p : draw_proof_inputs(set, rng)) {
        Input in;
        in.spec = p.spec;
        in.order = std::move(p.order);
        in.instance = std::move(p.instance);
        inputs_.push_back(std::move(in));
      }
    }
    for (const std::string& b : backends()) {
      for (const Input& in : inputs_) {
        for (const std::string& key : {b, traced_key(b)}) {
          if (key.empty()) continue;
          const auto id = std::make_pair(key, in.node_budget);
          if (solvers_.count(id) == 0) {
            solvers_.emplace(id, std::make_unique<api::Solver>(
                                     config_for(key, in.node_budget)));
          }
        }
      }
    }
    // Warm-up: threads, allocator arenas and code paths, before timing.
    for (const std::string& b : backends()) {
      api::Solver warm(config_for(b, 500));
      const Input& in = inputs_.front();
      if (in.frozen) {
        warm.solve_frozen(*in.instance, *in.frozen);
      } else {
        warm.solve(*in.instance);
      }
    }
  }

  void record_provenance() {
    for (const Input& in : inputs_) {
      std::ostringstream os;
      os << "instance " << in.instance->jobs() << "x" << in.instance->machines();
      if (in.spec.ta_id > 0) {
        os << " ta" << in.spec.ta_id;
      } else {
        os << " generator-seed " << in.spec.seed;
      }
      if (in.frozen) {
        os << " frozen " << in.frozen->nodes.size() << " nodes at ub "
           << in.frozen->incumbent << " budget " << in.node_budget;
      }
      os << " jobs relabeled [";
      for (std::size_t j = 0; j < in.order.size(); ++j) {
        os << (j ? "," : "") << in.order[j];
      }
      os << "]";
      out_.provenance.push_back(os.str());
    }
    // The echo names the first input's generator spec: with it, the line is
    // an fsbb_solve command line (before the relabeling, which changes no
    // optimum).
    for (const std::string& b : backends()) {
      api::SolverConfig c = config_for(b, inputs_.front().node_budget);
      c.instance = inputs_.front().spec;
      out_.provenance.push_back("config " + b + ": " + cli_echo(c));
    }
  }

  /// Runs rounds (every backend on every input) until `seconds` passed.
  /// After the first round, a job shorter than kJobTargetSeconds repeats
  /// within each round until it fills about that long, so short jobs get
  /// as many chances at an undisturbed run as long ones.
  void run_rounds(double seconds, bool traced, std::vector<JobRecord>& records,
                  Tracer* tracer, int phase_span) {
    constexpr double kJobTargetSeconds = 0.1;
    std::map<std::pair<std::string, std::size_t>, int> reps;
    const auto t0 = Clock::now();
    for (bool first_round = true; first_round || since(t0) < seconds;
         first_round = false) {
      for (const std::string& b : backends()) {
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
          const auto [it, first] = reps.emplace(std::make_pair(b, i), 1);
          for (int k = 0; k < it->second; ++k) {
            records.push_back(run_job(b, i, traced, tracer, phase_span));
          }
          if (first) {
            it->second = std::clamp(
                static_cast<int>(kJobTargetSeconds / records.back().seconds),
                1, 20);
          }
        }
      }
    }
  }

  /// Modeled GPU seconds per gpu-sim job, from benchmark-built evaluators
  /// (deterministic, so once per input).
  double modeled_gpu_seconds() {
    double total = 0;
    for (const Input& in : inputs_) {
      const GpuRun run = run_gpu_direct(
          *in.instance, config_for("gpu-sim", in.node_budget),
          in.frozen ? &*in.frozen : nullptr);
      total += run.ledger.modeled_seconds();
    }
    return total / static_cast<double>(inputs_.size());
  }

 private:
  JobRecord run_job(const std::string& backend, std::size_t input, bool traced,
                    Tracer* tracer, int phase_span) {
    const Input& in = inputs_[input];
    JobRecord rec;
    rec.backend = backend;
    rec.input = input;
    const std::string twin = traced ? traced_key(backend) : "";
    rec.traced = !twin.empty();
    const api::Solver& solver =
        *solvers_.at({rec.traced ? twin : backend, in.node_budget});
    if (rec.traced) set_active_trace(&rec.trace);
    const double start = tracer ? tracer->now() : 0;
    const auto t0 = Clock::now();
    std::string failure;
    try {
      rec.report = in.frozen ? solver.solve_frozen(*in.instance, *in.frozen)
                             : solver.solve(*in.instance);
    } catch (const std::exception& e) {
      failure = backend + ": " + e.what();
    }
    rec.seconds = since(t0);
    set_active_trace(nullptr);
    if (tracer) add_spans(*tracer, phase_span, rec, start, start + rec.seconds);
    if (failure.empty()) failure = check(rec);
    attempt(out_, failure.empty() ? "" : in.instance->name() + " " + failure);
    return rec;
  }

  // Job span (api), engine span (core or mtbb) and the aggregated
  // evaluator time (fsp bound kernels, or gpubb host simulation).
  void add_spans(Tracer& tracer, int phase_span, const JobRecord& rec,
                 double start, double end) {
    const std::uint64_t request = ++requests_;
    const int job = tracer.add("api.solve", start, end, phase_span, request);
    if (!rec.report) return;
    if (!rec.traced) {
      const double engine = rec.report->stats.wall_seconds;
      tracer.add("mtbb.engine", end - engine, end, job, request);
      return;
    }
    const double engine = rec.trace.engine_s;
    const int core = tracer.add("core.engine", end - engine, end, job, request);
    const double busy = rec.trace.eval.busy_s + rec.trace.iterate.busy_s;
    tracer.add(rec.backend == "gpu-sim" ? "gpubb.bound" : "fsp.bound",
               end - busy, end, core, request);
  }

  std::string check(const JobRecord& rec) {
    const Input& in = inputs_[rec.input];
    const api::SolveReport& r = *rec.report;
    const std::string who = rec.backend + (rec.traced ? " (traced)" : "");
    if (!in.frozen) {
      if (r.stop_reason != core::StopReason::kOptimal || !r.proven_optimal) {
        return who + ": stopped " + core::to_string(r.stop_reason);
      }
      if (const std::string bad = check_schedule(*in.instance, r.best_permutation,
                                                 r.best_makespan);
          !bad.empty()) {
        return who + ": " + bad;
      }
      auto [it, first] = optimum_.emplace(rec.input, r.best_makespan);
      if (!first && it->second != r.best_makespan) {
        return who + ": optimum " + std::to_string(r.best_makespan) +
               " != " + std::to_string(it->second);
      }
      return "";
    }
    // Frozen slice: a budgeted exploration of the same frozen list.
    if (r.stop_reason != core::StopReason::kOptimal &&
        r.stop_reason != core::StopReason::kBudget) {
      return who + ": stopped " + core::to_string(r.stop_reason);
    }
    if (r.best_makespan > in.frozen->incumbent) {
      return who + ": best above the frozen incumbent";
    }
    if (r.best_permutation.empty()) {
      if (r.best_makespan != in.frozen->incumbent) {
        return who + ": improved the incumbent without a schedule";
      }
    } else if (const std::string bad = check_schedule(
                   *in.instance, r.best_permutation, r.best_makespan);
               !bad.empty()) {
      return who + ": " + bad;
    }
    // cpu-serial, cpu-threads and gpu-sim are deterministic at their batch
    // size: same best as cpu-serial, same counters on every repeat.
    if (rec.backend == "multicore" || rec.backend == "cpu-steal") return "";
    auto [best, first_best] = optimum_.emplace(rec.input, r.best_makespan);
    if (!first_best && best->second != r.best_makespan) {
      return who + ": slice best " + std::to_string(r.best_makespan) +
             " != cpu-serial's " + std::to_string(best->second);
    }
    const std::array<std::uint64_t, 3> counts{
        r.stats.branched, r.stats.evaluated, r.stats.pruned};
    auto [seen, first_counts] =
        counters_.emplace(std::make_pair(rec.backend, rec.input), counts);
    if (!first_counts && seen->second != counts) {
      return who + ": slice counters differ from its first run";
    }
    return "";
  }

  const RunOptions& options_;
  Outcome& out_;
  std::vector<Input> inputs_;
  std::map<std::pair<std::string, std::uint64_t>, std::unique_ptr<api::Solver>>
      solvers_;
  std::map<std::size_t, fsp::Time> optimum_;
  std::map<std::pair<std::string, std::size_t>, std::array<std::uint64_t, 3>>
      counters_;
  std::uint64_t requests_ = 0;
};

// Every (backend, input) job repeats once per round, on identical inputs.
// Its time is its fastest repetition: the one least disturbed by other
// processes on the host, which on a shared machine move single rounds by
// far more than any change worth detecting.
std::map<std::pair<std::string, std::size_t>, double> fastest_jobs(
    const std::vector<JobRecord>& records) {
  std::map<std::pair<std::string, std::size_t>, double> fastest;
  for (const JobRecord& r : records) {
    if (std::find(end_to_end_backends().begin(), end_to_end_backends().end(),
                  r.backend) == end_to_end_backends().end()) {
      continue;
    }
    const auto [it, first] = fastest.emplace(
        std::make_pair(r.backend, r.input), r.seconds);
    if (!first) it->second = std::min(it->second, r.seconds);
  }
  return fastest;
}

double fastest_total(const std::vector<JobRecord>& records) {
  double total = 0;
  for (const auto& [job, seconds] : fastest_jobs(records)) total += seconds;
  return total;
}

std::map<std::string, double> end_to_end_direct(
    const std::vector<JobRecord>& records) {
  const auto fastest = fastest_jobs(records);
  std::map<std::string, double> m;
  std::map<std::string, std::vector<double>> by_backend;
  std::vector<double> latency_ms;
  double total = 0;
  for (const auto& [job, seconds] : fastest) {
    by_backend[job.first].push_back(seconds);
    latency_ms.push_back(seconds * 1e3);
    total += seconds;
  }
  for (const std::string& b : end_to_end_backends()) {
    const std::vector<double>& v = by_backend[b];
    double sum = 0;
    for (const double x : v) sum += x;
    m["solve_s." + b] = sum / static_cast<double>(v.size());
  }
  m["latency_ms.p50"] = quantile(latency_ms, 0.5);
  m["latency_ms.p90"] = quantile(latency_ms, 0.9);
  m["jobs_per_s"] = ratio(static_cast<double>(fastest.size()), total);
  return m;
}

std::map<std::string, double> per_layer_direct(
    const std::vector<JobRecord>& records) {
  std::map<std::string, double> m;
  std::map<std::string, double> evaluated, wall;
  double api_over = 0, core_self = 0, branched = 0, eval_nodes = 0,
         pruned = 0, generated = 0;
  std::size_t jobs = 0, engine_jobs = 0, cpu_jobs = 0, gpu_jobs = 0,
              steal_jobs = 0;
  CallAgg cpu_eval, gpu_eval, gpu_iter;
  core::StealStats steal;
  double refills = 0, overflow = 0, spills = 0, peak = 0;
  gpubb::GpuLedger gpu;
  for (const JobRecord& r : records) {
    if (!r.report) continue;
    const core::EngineStats& s = r.report->stats;
    ++jobs;
    evaluated[r.backend] += static_cast<double>(s.evaluated);
    wall[r.backend] += s.wall_seconds;
    if (!r.traced) {
      api_over += r.seconds - s.wall_seconds;
      if (r.report->steal) {
        ++steal_jobs;
        steal.steal_attempts += r.report->steal->steal_attempts;
        steal.steal_successes += r.report->steal->steal_successes;
        steal.nodes_stolen += r.report->steal->nodes_stolen;
      }
      continue;
    }
    ++engine_jobs;
    api_over += r.seconds - r.trace.engine_s;
    core_self +=
        r.trace.engine_s - r.trace.eval.busy_s - r.trace.iterate.busy_s;
    branched += static_cast<double>(s.branched);
    eval_nodes += static_cast<double>(s.evaluated);
    pruned += static_cast<double>(s.pruned);
    generated += static_cast<double>(s.generated);
    if (r.backend == "gpu-sim") {
      ++gpu_jobs;
      gpu_eval += r.trace.eval;
      gpu_iter += r.trace.iterate;
      if (r.report->pool) {
        const core::ResidentPoolStats& p = *r.report->pool;
        refills += static_cast<double>(p.refills);
        overflow += static_cast<double>(p.overflow);
        for (const core::ShardOccupancy& sh : p.shards) {
          spills += static_cast<double>(sh.spills);
        }
        peak += static_cast<double>(p.peak_live());
      }
      if (r.trace.gpu) {
        const gpubb::GpuLedger& g = *r.trace.gpu;
        gpu.kernel_seconds += g.kernel_seconds;
        gpu.iteration_seconds += g.iteration_seconds;
        gpu.launches += g.launches;
        gpu.transfers.h2d_seconds += g.transfers.h2d_seconds;
        gpu.transfers.d2h_seconds += g.transfers.d2h_seconds;
        gpu.transfers.h2d_bytes += g.transfers.h2d_bytes;
        gpu.transfers.d2h_bytes += g.transfers.d2h_bytes;
        gpu.counters.arithmetic_ops += g.counters.arithmetic_ops;
        for (std::size_t k = 0; k < g.counters.space.size(); ++k) {
          gpu.counters.space[k] += g.counters.space[k];
        }
      }
    } else {
      ++cpu_jobs;
      cpu_eval += r.trace.eval;
    }
  }
  const auto per = [](double total, std::size_t n) {
    return n ? total / static_cast<double>(n) : 0.0;
  };
  m["api.overhead_s"] = per(api_over, jobs);
  m["core.engine.self_s"] = per(core_self, engine_jobs);
  m["core.engine.branched"] = per(branched, engine_jobs);
  m["core.engine.evaluated"] = per(eval_nodes, engine_jobs);
  m["core.engine.pruned"] = per(pruned, engine_jobs);
  m["core.engine.prune_ratio"] = ratio(pruned, generated);
  m["core.eval.calls"] = per(static_cast<double>(cpu_eval.calls), cpu_jobs);
  m["core.eval.busy_s"] = per(cpu_eval.busy_s, cpu_jobs);
  m["core.eval.ns_per_node"] =
      ratio(cpu_eval.busy_s * 1e9, static_cast<double>(cpu_eval.nodes));

  const double serial_rate =
      ratio(evaluated["cpu-serial"], wall["cpu-serial"]);
  for (const char* b : {"multicore", "cpu-steal"}) {
    m[std::string("mtbb.search_overhead.") + b] =
        ratio(evaluated[b], evaluated["cpu-serial"]);
  }
  for (const char* b : {"cpu-threads", "multicore", "cpu-steal"}) {
    m[std::string("mtbb.efficiency.") + b] =
        ratio(ratio(evaluated[b], wall[b]), 4 * serial_rate);
  }
  m["mtbb.steal.attempts"] =
      per(static_cast<double>(steal.steal_attempts), steal_jobs);
  m["mtbb.steal.success_rate"] = steal.success_rate();
  m["mtbb.steal.nodes_stolen"] =
      per(static_cast<double>(steal.nodes_stolen), steal_jobs);

  m["gpubb.iterate.calls"] = per(static_cast<double>(gpu_iter.calls), gpu_jobs);
  m["gpubb.iterate.host_s"] = per(gpu_iter.busy_s, gpu_jobs);
  m["gpubb.host_us_per_node"] =
      ratio((gpu_eval.busy_s + gpu_iter.busy_s) * 1e6,
            static_cast<double>(gpu_eval.nodes + gpu_iter.nodes));
  m["gpubb.pool.refills"] = per(refills, gpu_jobs);
  m["gpubb.pool.overflow"] = per(overflow, gpu_jobs);
  m["gpubb.pool.spills"] = per(spills, gpu_jobs);
  m["gpubb.pool.peak_live"] = per(peak, gpu_jobs);

  const auto& global = gpu.counters.of(gpusim::MemSpace::kGlobal);
  const auto& shared = gpu.counters.of(gpusim::MemSpace::kShared);
  m["gpusim.kernel_s"] = per(gpu.kernel_seconds, gpu_jobs);
  m["gpusim.h2d_s"] = per(gpu.transfers.h2d_seconds, gpu_jobs);
  m["gpusim.d2h_s"] = per(gpu.transfers.d2h_seconds, gpu_jobs);
  m["gpusim.overhead_s"] = per(gpu.iteration_seconds, gpu_jobs);
  m["gpusim.launches"] = per(static_cast<double>(gpu.launches), gpu_jobs);
  m["gpusim.h2d_bytes"] =
      per(static_cast<double>(gpu.transfers.h2d_bytes), gpu_jobs);
  m["gpusim.d2h_bytes"] =
      per(static_cast<double>(gpu.transfers.d2h_bytes), gpu_jobs);
  m["gpusim.global_accesses"] = per(static_cast<double>(global.total()), gpu_jobs);
  m["gpusim.shared_accesses"] = per(static_cast<double>(shared.total()), gpu_jobs);
  m["gpusim.ops"] = per(static_cast<double>(gpu.counters.arithmetic_ops), gpu_jobs);
  m["gpusim.ops_per_access"] =
      ratio(static_cast<double>(gpu.counters.arithmetic_ops),
            static_cast<double>(gpu.counters.total_accesses()));
  return m;
}

void write_trace(const RunOptions& options, const Tracer& tracer) {
  if (options.trace_file.empty()) return;
  std::ofstream f(options.trace_file);
  f << tracer.to_json() << "\n";
}

Outcome run_direct(const RunOptions& options) {
  Outcome out;
  DirectWorkload w(options, out);
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    w.setup();
    setups.push_back(since(t0));
  }
  w.record_provenance();

  std::map<std::string, double> values;
  if (!options.trace) {
    std::vector<JobRecord> records;
    w.run_rounds(options.seconds, false, records, nullptr, -1);
    values = end_to_end_direct(records);
    values["setup_s"] = median(setups);
    values["modeled_gpu_s"] = w.modeled_gpu_seconds();
    emit(out, end_to_end_defs(), values);
    return out;
  }

  // Traced run: an untraced half, then a traced half of the same rounds.
  std::vector<JobRecord> plain, traced;
  w.run_rounds(options.seconds / 2, false, plain, nullptr, -1);
  Tracer tracer;
  const double start = tracer.now();
  const int phase = tracer.add("bench.phase", start, start, -1, 0);
  w.run_rounds(options.seconds / 2, true, traced, &tracer, phase);
  tracer.close(phase, tracer.now());
  out.traced_wall_s = tracer.spans()[phase].end_s - start;
  out.layer_self_s = tracer.self_seconds_by_layer();
  values = per_layer_direct(traced);
  values["trace.overhead_frac"] =
      ratio(fastest_total(traced), fastest_total(plain)) - 1;
  write_trace(options, tracer);
  emit(out, per_layer_defs(), values);
  return out;
}

// ----------------------------------------------------------- serve-mix ---

// Fresh requests are small seeded solves; about this share of the submits
// repeats one of the connection's earlier instances with its jobs
// relabeled, which the canonical-form cache answers without a search.
constexpr int kServeJobs = 9;
constexpr int kServeMachines = 12;
constexpr double kRepeatShare = 0.45;
constexpr int kConnections = 4;
// Fresh instances per connection priced for modeled_gpu_s (tree sizes of
// random 9x12 instances vary with a coefficient of variation near 1, so
// the mean needs hundreds). A connection sends about ten fresh requests a
// second, so a 20 s run passes this count and the priced set depends on
// the seed only.
constexpr std::size_t kPricedPerConnection = 100;
// Multi-threaded backends get 2 threads: 2 workers x 2 = nproc (4).
const char* const kServeThreads = "2";

struct Served {
  bool fresh = true;
  std::size_t fresh_index = 0;  // the connection's n-th fresh request
  std::string backend;  // requested backend (fresh requests)
  double latency_s = 0;
  double engine_s = 0;
  std::shared_ptr<const fsp::Instance> instance;  // fresh only
  fsp::Time makespan = 0;
  bool ok = false;
};

std::string submit_line(const std::string& id, const std::string& cli,
                        const fsp::Instance& inst, const char* cache) {
  std::string ptm = "[";
  for (int j = 0; j < inst.jobs(); ++j) {
    ptm += j ? ",[" : "[";
    for (int k = 0; k < inst.machines(); ++k) {
      if (k) ptm += ',';
      ptm += std::to_string(inst.pt(j, k));
    }
    ptm += "]";
  }
  ptm += "]";
  JsonWriter instance;
  instance.str("name", inst.name());
  instance.field("ptm", ptm);
  JsonWriter o;
  o.str("op", "submit");
  o.str("id", id);
  o.str("cli", cli);
  o.str("cache", cache);
  o.field("instance", instance.done());
  return o.done();
}

/// Sends one request and waits for its terminal event.
JsonValue request(LineClient& client, const std::string& id,
                  const std::string& line) {
  client.send(line);
  while (true) {
    JsonValue event = JsonValue::parse(client.read_line());
    const std::string kind = event.string_or("event", "");
    if ((kind == "result" || kind == "rejected") &&
        event.string_or("id", "") == id) {
      return event;
    }
    if (kind == "error") {
      throw std::runtime_error("server error: " + event.string_or("error", ""));
    }
  }
}

JsonValue server_metrics(int port) {
  LineClient client(port);
  client.send("{\"op\":\"metrics\"}");
  while (true) {
    JsonValue event = JsonValue::parse(client.read_line());
    if (event.string_or("event", "") == "metrics") {
      return *event.find("data");
    }
  }
}

struct CacheCounts {
  double exact_hits = 0, misses = 0, rejects = 0;
};

CacheCounts cache_counts(const JsonValue& data) {
  CacheCounts c;
  const JsonValue& cache = *data.find("cache");
  c.exact_hits = cache.find("exact_hits")->as_number();
  c.misses = cache.find("misses")->as_number();
  for (const auto& [reason, count] :
       data.find("admission")->find("rejected")->as_object()) {
    c.rejects += count.as_number();
  }
  return c;
}

class ServeMix {
 public:
  ServeMix(const RunOptions& options, Outcome& out)
      : options_(options), out_(out) {}

  /// Starts the server and sends one warm-up request through it.
  void setup() {
    server_.reset();
    server_ = std::make_unique<ServerProcess>(
        options_.serve_binary,
        std::vector<std::string>{"--listen", "0", "--workers", "2",
                                 "--quiet-progress"});
    LineClient client(server_->port());
    api::InstanceSpec spec;
    spec.jobs = kServeJobs;
    spec.machines = kServeMachines;
    const fsp::Instance inst = make_instance(spec);
    const JsonValue result = request(
        client, "warmup",
        submit_line("warmup", "--backend cpu-serial", inst, "bypass"));
    FSBB_CHECK_MSG(result.string_or("event", "") == "result",
                   "warm-up request was not answered");
  }

  int port() const { return server_->port(); }

  /// Starts a load phase: `tracing` records a span per request, and each
  /// phase draws its own fresh instances.
  void begin_phase(bool tracing) {
    tracing_ = tracing;
    ++phases_started_;
  }

  /// Closed loop on every connection for `seconds`; returns the records
  /// and the measured wall seconds.
  std::vector<Served> load(double seconds, int phase, double& wall_s) {
    std::vector<std::vector<Served>> per_client(kConnections);
    std::vector<std::string> errors(kConnections);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          client_loop(c, phase, t0, seconds, per_client[c]);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    wall_s = since(t0);
    std::vector<Served> all;
    for (int c = 0; c < kConnections; ++c) {
      if (!errors[c].empty()) attempt(out_, "connection " + std::to_string(c) +
                                                ": " + errors[c]);
      all.insert(all.end(), per_client[c].begin(), per_client[c].end());
    }
    return all;
  }

  /// The correctness reference: a direct in-process cpu-serial proof of
  /// every fresh instance, which every served answer must equal. Returns
  /// the modeled GPU seconds per instance over each connection's first
  /// kPricedPerConnection fresh instances (a set fixed by the seed), priced
  /// as gpu-sim solves on benchmark-built evaluators.
  double verify(const std::vector<Served>& served) {
    std::vector<fsp::Instance> instances;
    std::vector<const Served*> fresh;
    for (const Served& s : served) {
      if (s.fresh && s.ok) {
        instances.push_back(*s.instance);
        fresh.push_back(&s);
      }
    }
    api::SolverConfig config = config_for("cpu-serial", 0);
    config.batch_workers = 4;
    const api::Solver solver(config);
    const std::vector<api::SolveOutcome> outcomes =
        solver.solve_many_outcomes(instances);
    double modeled = 0;
    std::size_t priced = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Served& s = *fresh[i];
      std::string failure;
      if (!outcomes[i].ok()) {
        failure = "reference solve failed: " + outcomes[i].error;
      } else if (outcomes[i].report->best_makespan != s.makespan) {
        failure = s.backend + " served " + std::to_string(s.makespan) +
                  ", direct cpu-serial proves " +
                  std::to_string(outcomes[i].report->best_makespan);
      }
      if (s.fresh_index < kPricedPerConnection) {
        modeled += run_gpu_direct(instances[i], config_for("gpu-sim", 0),
                                  nullptr)
                       .ledger.modeled_seconds();
        ++priced;
      }
      if (!failure.empty()) attempt(out_, s.instance->name() + " " + failure);
    }
    return priced ? modeled / static_cast<double>(priced) : 0;
  }

  void shutdown() { server_.reset(); }

  Tracer& tracer() { return tracer_; }

 private:
  void client_loop(int c, int phase, Clock::time_point t0, double seconds,
                   std::vector<Served>& out) {
    LineClient client(server_->port());
    std::mt19937_64 rng =
        workload_rng("serve-mix/" + std::to_string(c) + "/" +
                         std::to_string(phases_started_),
                     options_.seed);
    std::uniform_int_distribution<std::int32_t> seed_dist(1, 1 << 30);
    std::bernoulli_distribution repeat(kRepeatShare);
    std::vector<const Served*> done;  // this connection's fresh answers
    std::deque<Served> fresh_store;
    std::size_t fresh_count = 0;
    for (std::uint64_t k = 0; since(t0) < seconds; ++k) {
      const std::string id = "c" + std::to_string(c) + "-" + std::to_string(k);
      Served rec;
      std::shared_ptr<const fsp::Instance> inst;
      const Served* original = nullptr;
      std::string cli;
      if (!done.empty() && repeat(rng)) {
        rec.fresh = false;
        original = done[std::uniform_int_distribution<std::size_t>(
            0, done.size() - 1)(rng)];
        inst = std::make_shared<fsp::Instance>(relabel(
            *original->instance,
            random_order(original->instance->jobs(), rng), id));
        cli = "--backend cpu-serial";
      } else {
        api::InstanceSpec spec;
        spec.jobs = kServeJobs;
        spec.machines = kServeMachines;
        spec.seed = seed_dist(rng);
        inst = std::make_shared<fsp::Instance>(make_instance(spec));
        rec.fresh_index = fresh_count++;
        rec.backend = backends()[(rec.fresh_index + c) % backends().size()];
        cli = "--backend " + rec.backend + " --threads " + kServeThreads;
      }
      const double start = tracing_ ? tracer_.now() : 0;
      const auto r0 = Clock::now();
      std::string failure;
      JsonValue event;
      try {
        event = request(client, id, submit_line(id, cli, *inst, "use"));
      } catch (const std::exception& e) {
        failure = e.what();
      }
      rec.latency_s = since(r0);
      if (failure.empty()) failure = check(event, *inst, original, rec);
      if (tracing_) {
        const std::lock_guard<std::mutex> lock(trace_mu_);
        const double end = start + rec.latency_s;
        const int span = tracer_.add("serve.request", start, end, phase,
                                     static_cast<std::uint64_t>(c) << 32 | k);
        if (rec.engine_s > 0) {
          tracer_.add("core.engine", end - rec.engine_s, end, span,
                      static_cast<std::uint64_t>(c) << 32 | k);
        }
      }
      {
        const std::lock_guard<std::mutex> lock(out_mu_);
        attempt(out_, failure.empty() ? "" : inst->name() + " " + failure);
      }
      if (rec.fresh && rec.ok) {
        rec.instance = inst;
        fresh_store.push_back(rec);
        done.push_back(&fresh_store.back());
      }
      out.push_back(rec);
    }
  }

  // Fills rec.ok/makespan/engine_s; returns "" or what is wrong.
  static std::string check(const JsonValue& event, const fsp::Instance& inst,
                           const Served* original, Served& rec) {
    if (event.string_or("event", "") != "result") {
      return "rejected: " + event.string_or("error", "");
    }
    if (!event.find("ok")->as_bool()) {
      return "failed: " + event.string_or("error", "");
    }
    const JsonValue& report = *event.find("report");
    const JsonValue& result = *report.find("result");
    if (result.string_or("stop_reason", "") != "optimal") {
      return "stopped " + result.string_or("stop_reason", "");
    }
    rec.makespan = static_cast<fsp::Time>(result.find("best_makespan")->as_int());
    rec.engine_s = report.find("stats")->find("wall_seconds")->as_number();
    std::vector<fsp::JobId> perm;
    for (const JsonValue& j : result.find("best_permutation")->as_array()) {
      perm.push_back(static_cast<fsp::JobId>(j.as_int()));
    }
    if (std::string bad = check_schedule(inst, perm, rec.makespan);
        !bad.empty()) {
      return bad;
    }
    if (original != nullptr && rec.makespan != original->makespan) {
      return "relabeled repeat answered " + std::to_string(rec.makespan) +
             ", original proved " + std::to_string(original->makespan);
    }
    rec.ok = true;
    return "";
  }

  const RunOptions& options_;
  Outcome& out_;
  std::unique_ptr<ServerProcess> server_;
  std::mutex out_mu_;
  std::mutex trace_mu_;
  Tracer tracer_;
  bool tracing_ = false;
  int phases_started_ = 0;
};

std::map<std::string, double> end_to_end_serve(const std::vector<Served>& all,
                                               double wall_s) {
  std::map<std::string, double> m;
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> by_backend;
  for (const Served& s : all) {
    latency_ms.push_back(s.latency_s * 1e3);
    if (s.fresh) by_backend[s.backend].push_back(s.latency_s);
  }
  for (const std::string& b : end_to_end_backends()) {
    const std::vector<double>& v = by_backend[b];
    double sum = 0;
    for (const double x : v) sum += x;
    m["solve_s." + b] = v.empty() ? 0 : sum / static_cast<double>(v.size());
  }
  m["latency_ms.p50"] = quantile(latency_ms, 0.5);
  m["latency_ms.p90"] = quantile(latency_ms, 0.9);
  m["jobs_per_s"] = ratio(static_cast<double>(all.size()), wall_s);
  return m;
}

Outcome run_serve(const RunOptions& options) {
  FSBB_CHECK_MSG(!options.serve_binary.empty(),
                 "serve-mix needs --serve-bin (the fsbb_serve binary)");
  Outcome out;
  ServeMix mix(options, out);
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    mix.setup();
    setups.push_back(since(t0));
  }
  out.provenance.push_back(
      "instances " + std::to_string(kServeJobs) + "x" +
      std::to_string(kServeMachines) +
      " (Taillard generator, seeded per connection); server: fsbb_serve "
      "--listen 0 --workers 2 --quiet-progress; " +
      std::to_string(kConnections) + " connections, closed loop");
  for (const std::string& b : backends()) {
    api::SolverConfig c = config_for(b, 0);
    c.threads = 2;
    out.provenance.push_back("config " + b + ": " + cli_echo(c));
  }

  std::map<std::string, double> values;
  if (!options.trace) {
    double wall = 0;
    mix.begin_phase(false);
    const std::vector<Served> served = mix.load(options.seconds, -1, wall);
    values = end_to_end_serve(served, wall);
    values["setup_s"] = median(setups);
    values["modeled_gpu_s"] = mix.verify(served);
    mix.shutdown();
    emit(out, end_to_end_defs(), values);
    return out;
  }

  double plain_wall = 0, traced_wall = 0;
  mix.begin_phase(false);
  const std::vector<Served> plain = mix.load(options.seconds / 2, -1, plain_wall);
  const CacheCounts before = cache_counts(server_metrics(mix.port()));
  Tracer& tracer = mix.tracer();
  const double start = tracer.now();
  const int phase = tracer.add("bench.phase", start, start, -1, 0);
  mix.begin_phase(true);
  const std::vector<Served> traced = mix.load(options.seconds / 2, phase,
                                              traced_wall);
  tracer.close(phase, tracer.now());
  const CacheCounts after = cache_counts(server_metrics(mix.port()));
  out.traced_wall_s = traced_wall;
  out.layer_self_s = tracer.self_seconds_by_layer();

  double serve_over = 0;
  for (const Served& s : traced) serve_over += s.latency_s - s.engine_s;
  values["serve.overhead_ms"] =
      traced.empty() ? 0 : serve_over * 1e3 / static_cast<double>(traced.size());
  values["serve.cache.exact_hits"] = after.exact_hits - before.exact_hits;
  values["serve.cache.misses"] = after.misses - before.misses;
  values["serve.cache.hit_ratio"] =
      ratio(values["serve.cache.exact_hits"],
            values["serve.cache.exact_hits"] + values["serve.cache.misses"]);
  values["serve.admission.rejects"] = after.rejects - before.rejects;
  values["trace.overhead_frac"] =
      ratio(static_cast<double>(plain.size()) / plain_wall,
            static_cast<double>(traced.size()) / traced_wall) - 1;

  // api layer: direct in-process solves of a sample of the fresh instances
  // (client-observed time minus the report's engine time).
  const api::Solver solver(config_for("cpu-serial", 0));
  double api_over = 0;
  std::size_t n = 0;
  for (const Served& s : traced) {
    if (!s.fresh || !s.ok || n == 32) continue;
    const auto t0 = Clock::now();
    const api::SolveReport r = solver.solve(*s.instance);
    api_over += since(t0) - r.stats.wall_seconds;
    ++n;
  }
  values["api.overhead_s"] = n ? api_over / static_cast<double>(n) : 0;
  mix.verify(plain);
  mix.verify(traced);
  mix.shutdown();
  write_trace(options, tracer);
  emit(out, per_layer_defs(), values);
  return out;
}

}  // namespace

Outcome run_workload(const RunOptions& options) {
  if (options.workload == "serve-mix") return run_serve(options);
  FSBB_CHECK_MSG(options.workload == "prove-m20" ||
                     options.workload == "prove-m5" ||
                     options.workload == "frozen-gpu",
                 "unknown workload '" + options.workload + "'");
  return run_direct(options);
}

void screen(int jobs, int machines, int first, int last,
            std::uint64_t max_nodes) {
  std::map<std::string, std::unique_ptr<api::Solver>> solvers;
  for (const std::string& b : backends()) {
    solvers.emplace(b, std::make_unique<api::Solver>(config_for(b, 0)));
  }
  const api::Solver probe(config_for("cpu-serial", max_nodes));
  for (int seed = first; seed <= last; ++seed) {
    api::InstanceSpec spec;
    spec.jobs = jobs;
    spec.machines = machines;
    spec.seed = seed;
    const fsp::Instance inst = make_instance(spec);
    const api::SolveReport r = probe.solve(inst);
    std::cout << jobs << "x" << machines << " seed " << seed << " evaluated "
              << r.stats.evaluated << " "
              << core::to_string(r.stop_reason);
    if (r.stop_reason == core::StopReason::kOptimal) {
      // Fastest of five proofs per backend (the benchmark's own statistic):
      // the second screening criterion.
      for (const std::string& b : backends()) {
        double fastest = 0;
        for (int k = 0; k < 5; ++k) {
          const auto t0 = Clock::now();
          solvers.at(b)->solve(inst);
          fastest = k == 0 ? since(t0) : std::min(fastest, since(t0));
        }
        std::cout << " " << b << " " << fastest;
      }
    }
    std::cout << std::endl;
  }
}

}  // namespace perfbench
