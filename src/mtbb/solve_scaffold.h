// The set-up and tear-down the two parallel engines share.
//
// mt_engine (one locked best-first pool) and steal_engine (sharded deques,
// lock-free incumbent) keep their own pools, locks, stop latches and
// incumbent synchronization. What surrounds them is the same in both and
// lives here: the solve's starting point (incumbent, initial nodes, LB2
// tables built once per solve), starting the worker gang with per-worker
// bound contexts, and the auditors with their end-of-solve drain check.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "core/audit.h"
#include "core/node_arena.h"
#include "core/subproblem.h"
#include "fsp/instance.h"
#include "fsp/lb1.h"
#include "fsp/lb2.h"
#include "fsp/lb_data.h"
#include "mtbb/mt_engine.h"

namespace fsbb::mtbb::detail {

/// Where one parallel solve starts.
struct SolveStart {
  /// LB2 tables (kLb2 only), shared read-only by every worker.
  std::unique_ptr<fsp::Lb2Data> lb2;
  std::vector<core::Subproblem> initial;  ///< bounded nodes to explore
  fsp::Time ub = 0;                       ///< starting incumbent
  std::vector<fsp::JobId> seed_perm;      ///< its schedule, when known
};

/// A root solve: the NEH incumbent (or options.initial_ub) and the root
/// node, bounded with the bound the workers compute for its descendants.
SolveStart root_start(const fsp::Instance& inst,
                      const fsp::LowerBoundData& data,
                      const MtOptions& options);

/// A frozen-pool solve (the §IV protocol) from already-bounded nodes.
SolveStart frozen_start(const fsp::Instance& inst, const MtOptions& options,
                        std::vector<core::Subproblem> initial, fsp::Time ub);

/// Runs `threads` workers to completion. Worker i calls body(i, ctx) with
/// its own bound context, built on its thread: LB2 when `lb2` is non-null,
/// else LB1.
template <typename Body>
void run_gang(const fsp::Instance& inst, const fsp::LowerBoundData& data,
              const fsp::Lb2Data* lb2, std::size_t threads, Body body) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&inst, &data, lb2, &body, i] {
      if (lb2 != nullptr) {
        body(i, fsp::Lb2BoundContext(inst, data, *lb2));
      } else {
        body(i, fsp::Lb1BoundContext(inst, data));
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// The arena and incumbent auditors of one solve (core/audit.h), engaged
/// only when auditing is enabled at construction.
class SolveAudit {
 public:
  /// Attaches the arena auditor to `arena`; `engine` labels diagnostics.
  SolveAudit(const char* engine, core::NodeArena& arena);

  /// The acceptance-order auditor, or null when auditing is off.
  core::audit::IncumbentAudit* incumbent() const { return incumbent_.get(); }

  /// End-of-solve drain check, after the gang joined. An early stop
  /// leaves unexplored nodes pooled: `drain()` returns them and they are
  /// released on `lane`, so the check tells "still pooled" from
  /// "leaked". Does nothing (and never calls `drain`) when auditing is off.
  template <typename DrainFn>
  void check_drained(core::NodeArena& arena, std::size_t lane,
                     DrainFn drain) const {
    if (arena_audit_ == nullptr) return;
    for (const core::NodeRef& ref : drain()) arena.release(ref.slot, lane);
    arena_audit_->check_drained();
  }

 private:
  std::unique_ptr<core::audit::ArenaAudit> arena_audit_;
  std::unique_ptr<core::audit::IncumbentAudit> incumbent_;
};

}  // namespace fsbb::mtbb::detail
