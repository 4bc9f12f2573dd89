#include "core/evaluator.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "fsp/makespan.h"

namespace fsbb::core {

void BoundEvaluator::evaluate_siblings(std::span<const SiblingBatch> groups) {
  // Fallback for evaluators unaware of sibling structure (callback bounds,
  // the repack GPU path): materialize every child exactly as
  // Subproblem::child() would (prefix ++ free jobs, one swap) and bound
  // the whole call as one flat batch.
  std::size_t count = 0;
  for (const SiblingBatch& g : groups) {
    FSBB_CHECK(g.bounds.size() == g.next_jobs.size());
    count += g.next_jobs.size();
  }
  std::vector<JobId> parent_perm;
  std::vector<Subproblem> children;
  children.reserve(count);
  for (const SiblingBatch& g : groups) {
    // prefix ++ free jobs IS the parent's full permutation (see the
    // SiblingBatch contract), so child i follows the shared branch rule.
    parent_perm.assign(g.parent_prefix.begin(), g.parent_prefix.end());
    parent_perm.insert(parent_perm.end(), g.next_jobs.begin(),
                       g.next_jobs.end());
    const auto depth = static_cast<std::int32_t>(g.parent_prefix.size());
    for (std::size_t i = 0; i < g.next_jobs.size(); ++i) {
      Subproblem child;
      child.perm.resize(parent_perm.size());
      write_child_perm(parent_perm, static_cast<std::size_t>(depth), i,
                       child.perm);
      child.depth = depth + 1;
      children.push_back(std::move(child));
    }
  }
  evaluate(children);
  std::size_t next = 0;
  for (const SiblingBatch& g : groups) {
    for (Time& bound : g.bounds) bound = children[next++].lb;
  }
}

std::vector<SiblingBatch> sibling_view(std::span<const ResidentGroup> groups) {
  std::vector<SiblingBatch> view;
  view.reserve(groups.size());
  for (const ResidentGroup& g : groups) {
    const auto depth = static_cast<std::size_t>(g.depth);
    view.push_back(
        SiblingBatch{g.perm.first(depth), g.perm.subspan(depth), g.bounds});
  }
  return view;
}

SerialCpuEvaluator::SerialCpuEvaluator(const fsp::Instance& inst,
                                       const fsp::LowerBoundData& data)
    : inst_(&inst), data_(&data), scratch_(inst.jobs(), inst.machines()),
      context_(inst, data) {}

SerialCpuEvaluator::SerialCpuEvaluator(const fsp::Instance& inst,
                                       const fsp::LowerBoundData& data,
                                       fsp::Lb2Data lb2)
    : SerialCpuEvaluator(inst, data) {
  lb2_.emplace(std::move(lb2));
  lb2_scratch_.emplace(inst.jobs(), inst.machines());
  lb2_context_.emplace(inst, data, *lb2_);
}

void SerialCpuEvaluator::evaluate(std::span<Subproblem> batch) {
  const WallTimer timer;
  for (Subproblem& sp : batch) {
    sp.lb = lb2_ ? fsp::lb2_from_prefix(*inst_, *data_, *lb2_, sp.prefix(),
                                        *lb2_scratch_)
                 : fsp::lb1_from_prefix(*inst_, *data_, sp.prefix(), scratch_);
  }
  ++ledger_.batches;
  ledger_.nodes += batch.size();
  ledger_.wall_seconds += timer.seconds();
}

void SerialCpuEvaluator::evaluate_siblings(
    std::span<const SiblingBatch> groups) {
  const WallTimer timer;
  std::size_t nodes = 0;
  auto bound_groups = [&](auto& ctx) {
    for (const SiblingBatch& g : groups) {
      FSBB_CHECK(g.bounds.size() == g.next_jobs.size());
      ctx.set_parent(g.parent_prefix);
      for (std::size_t i = 0; i < g.next_jobs.size(); ++i) {
        g.bounds[i] = ctx.bound_child(g.next_jobs[i]);
      }
      nodes += g.next_jobs.size();
    }
  };
  if (lb2_context_) {
    bound_groups(*lb2_context_);
  } else {
    bound_groups(context_);
  }
  ++ledger_.batches;
  ledger_.nodes += nodes;
  ledger_.wall_seconds += timer.seconds();
}

ThreadedCpuEvaluator::ThreadedCpuEvaluator(const fsp::Instance& inst,
                                           const fsp::LowerBoundData& data,
                                           std::size_t threads)
    : inst_(&inst), data_(&data), pool_(threads) {
  // Per-worker scratch/context, built once: evaluate() used to reallocate
  // these vectors on every batch, which showed up in the bounding profile.
  scratch_.reserve(pool_.thread_count() + 1);
  contexts_.reserve(pool_.thread_count() + 1);
  for (std::size_t i = 0; i <= pool_.thread_count(); ++i) {
    scratch_.emplace_back(inst.jobs(), inst.machines());
    contexts_.emplace_back(inst, data);
  }
}

ThreadedCpuEvaluator::ThreadedCpuEvaluator(const fsp::Instance& inst,
                                           const fsp::LowerBoundData& data,
                                           fsp::Lb2Data lb2,
                                           std::size_t threads)
    : inst_(&inst), data_(&data), pool_(threads) {
  lb2_.emplace(std::move(lb2));
  lb2_scratch_.reserve(pool_.thread_count() + 1);
  lb2_contexts_.reserve(pool_.thread_count() + 1);
  for (std::size_t i = 0; i <= pool_.thread_count(); ++i) {
    lb2_scratch_.emplace_back(inst.jobs(), inst.machines());
    lb2_contexts_.emplace_back(inst, data, *lb2_);
  }
}

std::string ThreadedCpuEvaluator::name() const {
  // Deliberately excludes the thread count: bounds are bit-identical for
  // any pool size, and reports/golden tests must not vary by machine.
  // threads() still exposes the actual pool size.
  return lb2_ ? "lb2-threads" : "cpu-threads";
}

void ThreadedCpuEvaluator::evaluate(std::span<Subproblem> batch) {
  const WallTimer timer;
  pool_.parallel_for(
      0, batch.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        for (std::size_t i = lo; i < hi; ++i) {
          batch[i].lb =
              lb2_ ? fsp::lb2_from_prefix(*inst_, *data_, *lb2_,
                                          batch[i].prefix(),
                                          lb2_scratch_[worker])
                   : fsp::lb1_from_prefix(*inst_, *data_, batch[i].prefix(),
                                          scratch_[worker]);
        }
      });
  ++ledger_.batches;
  ledger_.nodes += batch.size();
  ledger_.wall_seconds += timer.seconds();
}

void ThreadedCpuEvaluator::evaluate_siblings(
    std::span<const SiblingBatch> groups) {
  const WallTimer timer;
  std::size_t nodes = 0;
  for (const SiblingBatch& g : groups) {
    FSBB_CHECK(g.bounds.size() == g.next_jobs.size());
    nodes += g.next_jobs.size();
  }
  auto bound_group = [](auto& ctx, const SiblingBatch& g) {
    ctx.set_parent(g.parent_prefix);
    for (std::size_t i = 0; i < g.next_jobs.size(); ++i) {
      g.bounds[i] = ctx.bound_child(g.next_jobs[i]);
    }
  };
  pool_.parallel_for(
      0, groups.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        for (std::size_t gi = lo; gi < hi; ++gi) {
          if (lb2_) {
            bound_group(lb2_contexts_[worker], groups[gi]);
          } else {
            bound_group(contexts_[worker], groups[gi]);
          }
        }
      },
      // One chunk per group: chunks are claimed dynamically, so uneven
      // group sizes still balance across the pool.
      groups.size());
  ++ledger_.batches;
  ledger_.nodes += nodes;
  ledger_.wall_seconds += timer.seconds();
}

}  // namespace fsbb::core
