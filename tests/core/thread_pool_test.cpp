#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace bftsim {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool{4};
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkersIsTreatedAsOne) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsTheQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    // No wait_idle: the destructor must finish the queued work before
    // joining (join semantics).
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool{2};
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForPreservesResultOrdering) {
  // Each task writes to its own slot; the output must be in index order
  // regardless of which worker ran which task.
  ThreadPool pool{4};
  std::vector<std::size_t> out(100, 0);
  parallel_for(pool, out.size(), [&out](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelForZeroCountIsANoop) {
  ThreadPool pool{2};
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  ThreadPool pool{4};
  EXPECT_THROW(
      parallel_for(pool, 16,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("task 7 failed");
                   }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRethrowsTheLowestIndexError) {
  // Deterministic choice among concurrent failures: index order, not
  // completion order.
  ThreadPool pool{4};
  try {
    parallel_for(pool, 16, [](std::size_t i) {
      if (i % 5 == 3) throw std::runtime_error("idx=" + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "idx=3");
  }
}

TEST(ThreadPoolTest, ParallelForFinishesRemainingTasksAfterAFailure) {
  ThreadPool pool{4};
  std::atomic<int> completed{0};
  try {
    parallel_for(pool, 32, [&completed](std::size_t i) {
      if (i == 0) throw std::runtime_error("early failure");
      completed.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
    // parallel_for only returns (and rethrows) once every task ran.
    EXPECT_EQ(completed.load(), 31);
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossParallelForCalls) {
  ThreadPool pool{3};
  std::vector<int> a(10, 0), b(10, 0);
  parallel_for(pool, a.size(), [&a](std::size_t i) { a[i] = 1; });
  parallel_for(pool, b.size(), [&b](std::size_t i) { b[i] = 2; });
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0), 10);
  EXPECT_EQ(std::accumulate(b.begin(), b.end(), 0), 20);
}

TEST(ThreadPoolTest, SubmittedTaskExceptionIsRethrownAtWaitIdle) {
  // A throwing task must not terminate the worker (or the process); the
  // exception surfaces at the aggregation point instead.
  ThreadPool pool{2};
  pool.submit([] { throw std::runtime_error("task blew up"); });
  try {
    pool.wait_idle();
    FAIL() << "expected wait_idle to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task blew up");
  }
}

TEST(ThreadPoolTest, PoolSurvivesAThrowingTask) {
  ThreadPool pool{2};
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);

  // The worker that ran the throwing task is still alive and the error
  // state was cleared: later batches run and wait cleanly.
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, OnlyFirstTaskErrorIsKept) {
  ThreadPool pool{1};  // single worker: deterministic execution order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected wait_idle to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  pool.wait_idle();  // error consumed; pool is idle and clean
}

TEST(ThreadPoolTest, DestructorSwallowsPendingTaskError) {
  // A stored error with no wait_idle call must not escape the destructor.
  ThreadPool pool{2};
  pool.submit([] { throw std::runtime_error("never observed"); });
}

TEST(ThreadPoolTest, SubmitBatchRunsEveryTask) {
  ThreadPool pool{4};
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.submit_batch(std::move(batch));
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, SubmitBatchEmptyIsANoop) {
  ThreadPool pool{2};
  pool.submit_batch({});
  pool.wait_idle();
}

TEST(ThreadPoolTest, SubmitBatchInterleavesWithSubmit) {
  // Barrier-cadenced batches (the windowed engine's usage) reuse the same
  // queue as single submissions; every task from both paths must run.
  ThreadPool pool{3};
  std::atomic<int> counter{0};
  for (int round = 0; round < 50; ++round) {
    std::vector<std::function<void()>> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.submit_batch(std::move(batch));
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, SubmitBatchExceptionSurfacesAtWaitIdle) {
  ThreadPool pool{2};
  std::vector<std::function<void()>> batch;
  batch.push_back([] { throw std::runtime_error("batch boom"); });
  pool.submit_batch(std::move(batch));
  try {
    pool.wait_idle();
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "batch boom");
  }
}

TEST(ThreadPoolTest, DefaultWorkersHonorsEnvOverride) {
  ASSERT_EQ(setenv("BFTSIM_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::default_workers(), 3u);
  ASSERT_EQ(unsetenv("BFTSIM_JOBS"), 0);
  EXPECT_GE(ThreadPool::default_workers(), 1u);
}

}  // namespace
}  // namespace bftsim
