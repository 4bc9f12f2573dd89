#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/check.h"

namespace fsbb {

struct ThreadPool::Batch {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk_size = 1;
  std::size_t n_chunks = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
      nullptr;
  Mutex error_mu;
  std::exception_ptr error FSBB_GUARDED_BY(error_mu);  // first error wins

  // Coordinating-thread read after every chunk finished (the acq_rel on
  // done_chunks orders the error write before the finished() observation).
  std::exception_ptr take_error() {
    const LockGuard lock(error_mu);
    return error;
  }

  // Claims and runs one chunk; returns false when none remain.
  bool run_one(std::size_t worker_index) {
    const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= n_chunks) return false;
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    try {
      (*body)(lo, hi, worker_index);
    } catch (...) {
      const LockGuard lock(error_mu);
      if (!error) error = std::current_exception();
    }
    done_chunks.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }

  bool finished() const {
    return done_chunks.load(std::memory_order_acquire) == n_chunks;
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t joined = 0;  // generation of the last batch this worker saw
  for (;;) {
    // Workers hold a shared_ptr copy so the batch outlives any straggler
    // even after the caller has returned from parallel_for.
    std::shared_ptr<Batch> batch;
    {
      // Sleep until a batch newer than the last one is posted: a worker
      // that finds no chunk left must not spin on the lock while the
      // chunks others hold finish, or it takes their core.
      UniqueLock lock(mu_);
      while (!stop_ && generation_ == joined) cv_work_.wait(lock);
      if (stop_) return;
      joined = generation_;
      batch = current_;
    }
    if (!batch) continue;
    while (batch->run_one(worker_index)) {
    }
    if (batch->finished()) {
      {
        const LockGuard lock(mu_);
        if (current_ == batch) current_ = nullptr;
      }
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    std::size_t chunks) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (chunks == 0) chunks = workers_.size();
  chunks = std::clamp<std::size_t>(chunks, 1, n);

  auto batch = std::make_shared<Batch>();
  batch->begin = begin;
  batch->end = end;
  batch->n_chunks = chunks;
  batch->chunk_size = (n + chunks - 1) / chunks;
  // Recompute so the final chunk is never empty.
  batch->n_chunks = (n + batch->chunk_size - 1) / batch->chunk_size;
  batch->body = &body;

  {
    const LockGuard lock(mu_);
    FSBB_CHECK_MSG(current_ == nullptr,
                   "nested / concurrent parallel_for is not supported");
    current_ = batch;
    ++generation_;
  }
  cv_work_.notify_all();

  // The caller participates (worker_index == thread_count()), so progress is
  // guaranteed even before any worker wakes.
  while (batch->run_one(workers_.size())) {
  }

  {
    UniqueLock lock(mu_);
    while (!batch->finished()) cv_done_.wait(lock);
    if (current_ == batch) current_ = nullptr;
  }
  if (std::exception_ptr err = batch->take_error()) std::rethrow_exception(err);
}

}  // namespace fsbb
