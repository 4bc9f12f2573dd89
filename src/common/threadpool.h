// Fixed-size worker pool with a blocking parallel_for.
//
// Used by (a) the threaded CPU bound evaluator and (b) the gpusim kernel
// runtime, which fans simulated thread blocks out over host threads. The
// pool is deliberately simple: tasks are indexed chunks of a range, results
// are written to caller-owned slots, so no queue allocation per item.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace fsbb {

/// Long-lived thread pool. parallel_for blocks until the whole range is done.
/// Exceptions thrown by the body are captured and rethrown on the caller.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Runs body(begin..end) split into `chunks` contiguous sub-ranges
  /// (default: one per worker). body receives (chunk_begin, chunk_end,
  /// worker_index); worker_index ranges over [0, thread_count()] — the value
  /// thread_count() identifies the calling thread, which participates.
  /// Blocks until every chunk finished.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& body,
                    std::size_t chunks = 0);

 private:
  struct Batch;
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_work_;
  CondVar cv_done_;
  std::shared_ptr<Batch> current_ FSBB_GUARDED_BY(mu_);
  std::uint64_t generation_ FSBB_GUARDED_BY(mu_) = 0;  // batches posted
  bool stop_ FSBB_GUARDED_BY(mu_) = false;
};

}  // namespace fsbb
