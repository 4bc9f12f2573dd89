// The expansion step every engine shares.
//
// Each engine writes its own select/insert loop, but these rules must come
// out the same in all of them:
//
//   * seed_incumbent: a root solve starts from NEH's schedule, or from
//     the caller's initial_ub (with no schedule) when one is given;
//   * adopt_initial: a solve explores already-bounded initial nodes; the
//     ones at or above the incumbent are pruned before they are pooled;
//   * expand_leaf: a node with one free job has a single child, which is
//     complete and equals the parent's permutation (the free job is
//     already in place). Its makespan is exact, so it is generated and
//     counted as a leaf, never bounded;
//   * expand_node: the mtbb engines' fused branch + bound of one popped
//     node. It binds the incremental bound context to the parent once,
//     then bounds every child with an O(m) front extension and a
//     remaining-jobs-only sweep: the same sibling-batch discipline
//     BBEngine gets through BoundEvaluator::evaluate_siblings, and
//     bit-identical to the per-child prefix replay. Children are written
//     straight into the shared NodeArena; survivors travel as 12-byte
//     NodeRef handles.
//
// One definition here keeps the engines bit-identical per node — the
// cross-engine agreement the differential-fuzz suite checks depends on it.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/node_arena.h"
#include "core/steal_stats.h"
#include "core/subproblem.h"
#include "fsp/instance.h"
#include "fsp/makespan.h"
#include "fsp/neh.h"

namespace fsbb::core {

/// The starting incumbent of a root solve.
struct SeedIncumbent {
  Time ub = 0;
  std::vector<JobId> perm;  ///< NEH's schedule; empty for a given initial_ub
};

inline SeedIncumbent seed_incumbent(const fsp::Instance& inst,
                                    const std::optional<Time>& initial_ub) {
  if (initial_ub.has_value()) return SeedIncumbent{*initial_ub, {}};
  fsp::NehResult neh = fsp::neh(inst);
  return SeedIncumbent{neh.makespan, std::move(neh.permutation)};
}

/// Copies the initial nodes below `ub` into `arena` on `lane`, in order;
/// the others count in `pruned`. Throws on a node that was never bounded.
inline std::vector<NodeRef> adopt_initial(
    NodeArena& arena, std::size_t lane, const std::vector<Subproblem>& initial,
    Time ub, std::uint64_t& pruned) {
  std::vector<NodeRef> live;
  live.reserve(initial.size());
  for (const Subproblem& sp : initial) {
    FSBB_CHECK_MSG(sp.lb != Subproblem::kUnevaluated,
                   "a solve requires bounded initial nodes");
    if (sp.lb < ub) {
      live.push_back(NodeRef{sp.lb, sp.depth, arena.adopt(sp, lane)});
    } else {
      ++pruned;
    }
  }
  return live;
}

/// The r == 1 leaf rule: counts the single complete child of the node
/// whose full permutation is `perm` (generated + leaf) and returns its
/// exact makespan.
inline Time expand_leaf(const fsp::Instance& inst, std::span<const JobId> perm,
                        EngineStats& stats) {
  ++stats.generated;
  ++stats.leaves;
  return fsp::makespan(inst, perm);
}

/// Best complete schedule seen while expanding one node.
struct BestLeaf {
  Time makespan = std::numeric_limits<Time>::max();
  std::vector<JobId> perm;
};

/// Branches the node behind `node.slot`, bounds every incomplete child
/// with the bound context (fsp::Lb1BoundContext or fsp::Lb2BoundContext —
/// any type with set_parent/bound_child), appends the children below
/// `ub_snapshot` to `survivors` (cleared first) and accumulates the
/// generated/evaluated/pruned/leaves counters into `stats`. Children are
/// allocated on `lane`; the caller still owns (and must release) the
/// parent slot. Returns the best complete child, if any.
template <typename BoundContext>
inline BestLeaf expand_node(const fsp::Instance& inst, NodeArena& arena,
                            std::size_t lane, const NodeRef& node,
                            Time ub_snapshot, BoundContext& ctx,
                            EngineStats& stats,
                            std::vector<NodeRef>& survivors) {
  survivors.clear();
  BestLeaf best;
  const auto perm = arena.perm(node.slot);
  const auto d = static_cast<std::size_t>(node.depth);
  const int r = inst.jobs() - node.depth;
  if (r == 1) {
    best.makespan = expand_leaf(inst, perm, stats);
    best.perm.assign(perm.begin(), perm.end());
    return best;
  }
  ctx.set_parent(perm.first(d));
  for (int i = 0; i < r; ++i) {
    ++stats.generated;
    const JobId job = perm[d + static_cast<std::size_t>(i)];
    const Time lb = ctx.bound_child(job);
    ++stats.evaluated;
    if (lb < ub_snapshot) {
      const NodeArena::Handle c = arena.allocate(lane);
      write_child_perm(perm, d, static_cast<std::size_t>(i), arena.perm(c));
      survivors.push_back(NodeRef{lb, node.depth + 1, c});
    } else {
      ++stats.pruned;
    }
  }
  return best;
}

}  // namespace fsbb::core
