#include "mtbb/solve_scaffold.h"

#include "core/branch_expand.h"

namespace fsbb::mtbb::detail {
namespace {

std::unique_ptr<fsp::Lb2Data> lb2_tables(const fsp::Instance& inst,
                                         const MtOptions& options) {
  if (options.bound != MtBound::kLb2) return nullptr;
  return std::make_unique<fsp::Lb2Data>(fsp::Lb2Data::build(inst));
}

}  // namespace

SolveStart root_start(const fsp::Instance& inst,
                      const fsp::LowerBoundData& data,
                      const MtOptions& options) {
  SolveStart start;
  start.lb2 = lb2_tables(inst, options);
  core::SeedIncumbent seed = core::seed_incumbent(inst, options.initial_ub);
  start.ub = seed.ub;
  start.seed_perm = std::move(seed.perm);
  core::Subproblem root = core::Subproblem::root(inst.jobs());
  root.lb = start.lb2 ? fsp::lb2_from_prefix(inst, data, *start.lb2,
                                             root.prefix())
                      : fsp::lb1_from_prefix(inst, data, root.prefix());
  start.initial.push_back(std::move(root));
  return start;
}

SolveStart frozen_start(const fsp::Instance& inst, const MtOptions& options,
                        std::vector<core::Subproblem> initial, fsp::Time ub) {
  SolveStart start;
  start.lb2 = lb2_tables(inst, options);
  start.initial = std::move(initial);
  start.ub = ub;
  return start;
}

SolveAudit::SolveAudit(const char* engine, core::NodeArena& arena) {
  if (!core::audit::enabled()) return;
  arena_audit_ = std::make_unique<core::audit::ArenaAudit>(engine);
  incumbent_ = std::make_unique<core::audit::IncumbentAudit>(engine);
  arena.set_audit(arena_audit_.get());
}

}  // namespace fsbb::mtbb::detail
