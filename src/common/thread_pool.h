#ifndef FLOOD_COMMON_THREAD_POOL_H_
#define FLOOD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace flood {

/// Fixed-size FIFO thread pool: `num_threads` workers pop from one shared
/// queue (no work stealing — queries are coarse enough that a single queue
/// never bottlenecks). Submission is thread-safe from any thread; the
/// destructor drains the queue (every task submitted before ~ThreadPool
/// runs to completion) and joins the workers.
///
/// Tasks must not block on other pool tasks' completion: with a fixed
/// worker count and no stealing, a task that waits for a queued task can
/// deadlock the pool. Database's batch executor submits only independent
/// per-shard tasks, and the last one to finish completes the batch, so
/// this never arises on the query path.
class ThreadPool {
 public:
  /// `num_threads == 0` uses DefaultConcurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// std::thread::hardware_concurrency(), or 1 when the runtime can't tell.
  static size_t DefaultConcurrency();

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` to run on some worker thread. Must not be called
  /// concurrently with the destructor.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace flood

#endif  // FLOOD_COMMON_THREAD_POOL_H_
