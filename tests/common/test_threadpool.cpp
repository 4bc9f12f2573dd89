#include "common/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.h"

namespace fsbb {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        hits[i].fetch_add(1);
                      }
                    });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, WorkerIndicesStayInBounds) {
  ThreadPool pool(3);
  std::atomic<bool> bad{false};
  pool.parallel_for(0, 500,
                    [&](std::size_t, std::size_t, std::size_t worker) {
                      if (worker > pool.thread_count()) bad = true;
                    },
                    /*chunks=*/64);
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool;
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<long long>> partial(pool.thread_count() + 1);
  pool.parallel_for(1, kN + 1,
                    [&](std::size_t lo, std::size_t hi, std::size_t worker) {
                      long long s = 0;
                      for (std::size_t i = lo; i < hi; ++i) {
                        s += static_cast<long long>(i);
                      }
                      partial[worker] += s;
                    });
  long long total = 0;
  for (const auto& p : partial) total += p.load();
  EXPECT_EQ(total, static_cast<long long>(kN) * (kN + 1) / 2);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t lo, std::size_t, std::size_t) {
                          if (lo == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 10, [](std::size_t, std::size_t, std::size_t) {
      throw std::runtime_error("first");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t lo, std::size_t hi, std::size_t) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 64, [&](std::size_t lo, std::size_t hi, std::size_t) {
    count += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ManySequentialBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 97, [&](std::size_t lo, std::size_t hi, std::size_t) {
      count += static_cast<int>(hi - lo);
    });
    ASSERT_EQ(count.load(), 97);
  }
}

TEST(ThreadPool, ChunkParameterRespected) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 100,
                    [&](std::size_t, std::size_t, std::size_t) { ++calls; },
                    /*chunks=*/10);
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, IdleWorkersSleepWhileAChunkRuns) {
  // One chunk blocks for 100 ms; whoever holds the other has nothing left
  // to do and must sleep, not spin on the pool's lock, until it finishes.
  ThreadPool pool(3);
  const std::clock_t cpu_before = std::clock();
  pool.parallel_for(0, 2,
                    [](std::size_t lo, std::size_t, std::size_t) {
                      if (lo == 0) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(100));
                      }
                    },
                    /*chunks=*/2);
  const double cpu_ms = 1e3 * static_cast<double>(std::clock() - cpu_before) /
                        CLOCKS_PER_SEC;
  EXPECT_LT(cpu_ms, 50.0);
}

}  // namespace
}  // namespace fsbb
