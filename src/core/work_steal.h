// Sharded work-stealing pools — the scalable alternative to the single
// mutex-guarded Pool of the §V multicore baseline.
//
// Each worker owns one deque-backed local pool: it pushes and pops at the
// back (LIFO — dive toward leaves, hot caches), while thieves steal from
// the front (FIFO — the oldest nodes sit closest to the root and carry the
// biggest subtrees, so one steal moves a large chunk of work). This is the
// per-worker-pool design Gmys (2020) and Chakroun & Melab (2012) show is
// what lets exact flow-shop B&B scale past the shared-pool ceiling.
//
// The deque is generic over its node type; the steal engine instantiates
// it over 12-byte NodeRef handles. Each shard sits behind its own mutex:
// a critical section is a few-word move (handle entries) and a proof
// steals rarely (tens of successful steals, moving ~1% of its branched
// nodes), so the owner's lock is almost never contended and a lock-free
// (Chase–Lev) deque measured no faster.
//
// drain() is deterministic given the deque contents (shard 0..W-1, each
// front to back), so the frozen-pool protocol keeps working on top.
#pragma once

#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "core/node_arena.h"
#include "core/subproblem.h"

namespace fsbb::core {

/// One worker's local pool. Owner operations (push/pop) hit the back;
/// steals take the oldest nodes from the front. All operations are
/// thread-safe; the owner's lock is uncontended unless a thief is present.
template <typename Node>
class WorkStealingDequeT {
 public:
  /// Owner: push a node on the back (LIFO hot end).
  void push(Node&& sp) {
    const LockGuard lock(mu_);
    items_.push_back(std::move(sp));
  }

  /// Owner: pop the most recently pushed node; nullopt when empty.
  std::optional<Node> pop() {
    const LockGuard lock(mu_);
    if (items_.empty()) return std::nullopt;
    Node n = std::move(items_.back());
    items_.pop_back();
    return n;
  }

  /// Thief: move up to `max_nodes` of the *oldest* nodes into `out`.
  /// Returns how many were taken (0 when the deque is empty).
  std::size_t steal(std::vector<Node>& out, std::size_t max_nodes) {
    const LockGuard lock(mu_);
    std::size_t taken = 0;
    while (taken < max_nodes && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    return taken;
  }

  std::size_t size() const {
    const LockGuard lock(mu_);
    return items_.size();
  }
  bool empty() const { return size() == 0; }

  /// Removes every node front-to-back (deterministic given the contents).
  std::vector<Node> drain() {
    const LockGuard lock(mu_);
    std::vector<Node> out(std::make_move_iterator(items_.begin()),
                          std::make_move_iterator(items_.end()));
    items_.clear();
    return out;
  }

 private:
  mutable Mutex mu_;
  std::deque<Node> items_ FSBB_GUARDED_BY(mu_);
};

/// A fixed set of per-worker deques plus the cross-shard operations the
/// steal engine and the frozen-pool protocol need. Shard addresses are
/// stable for the pool's lifetime.
template <typename Node>
class ShardedPoolT {
 public:
  using Deque = WorkStealingDequeT<Node>;

  explicit ShardedPoolT(std::size_t shards) {
    FSBB_CHECK_MSG(shards >= 1, "sharded pool needs at least one shard");
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Deque>());
    }
  }

  std::size_t shards() const { return shards_.size(); }
  Deque& shard(std::size_t i) { return *shards_[i]; }
  const Deque& shard(std::size_t i) const { return *shards_[i]; }

  /// Round-robin an initial node list across the shards (node i goes to
  /// shard i % W) so every worker starts with a slice of the frozen pool.
  void distribute(std::vector<Node> nodes) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      shards_[i % shards_.size()]->push(std::move(nodes[i]));
    }
  }

  std::size_t size() const {  ///< sum over shards (racy under concurrency)
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->size();
    return total;
  }
  bool empty() const { return size() == 0; }

  /// Drains shard 0..W-1, each front-to-back — deterministic given the
  /// per-shard contents, like Pool::drain().
  std::vector<Node> drain() {
    std::vector<Node> out;
    for (const auto& shard : shards_) {
      std::vector<Node> part = shard->drain();
      for (Node& sp : part) out.push_back(std::move(sp));
    }
    return out;
  }

 private:
  std::vector<std::unique_ptr<Deque>> shards_;
};

/// Value-typed instantiations: the protocol/test-facing form.
using WorkStealingDeque = WorkStealingDequeT<Subproblem>;
using ShardedPool = ShardedPoolT<Subproblem>;

}  // namespace fsbb::core
