#include "common/thread_pool.h"

#include "common/macros.h"

namespace flood {

size_t ThreadPool::DefaultConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultConcurrency();
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  FLOOD_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    FLOOD_CHECK(!stopping_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain before exiting so destruction never drops queued work.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace flood
