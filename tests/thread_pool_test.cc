// Tests of the flood::ThreadPool subsystem: submission, execution on
// worker threads, and destruction draining. The per-shard carve that
// Database's batch executor submits is covered by database_test and
// database_async_test.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace flood {
namespace {

TEST(ThreadPoolTest, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1u);
  ThreadPool pool(0);  // 0 = default concurrency.
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultConcurrency());
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool drains the queue, so every task ran.
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, TasksActuallyRunOnWorkerThreads) {
  std::atomic<bool> ran_elsewhere{false};
  const std::thread::id caller = std::this_thread::get_id();
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&ran_elsewhere, caller] {
        if (std::this_thread::get_id() != caller) ran_elsewhere = true;
      });
    }
  }
  EXPECT_TRUE(ran_elsewhere.load());
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    // One worker + slow tasks guarantees a deep queue at destruction time.
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++counter;
      });
    }
  }  // ~ThreadPool joins only after the queue is empty.
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace flood
