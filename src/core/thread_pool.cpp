#include "core/thread_pool.hpp"

#include <cstdlib>
#include <exception>
#include <utility>

namespace bftsim {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  stop_flag_.store(true, std::memory_order_release);
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  ready_.fetch_add(1, std::memory_order_release);
  work_cv_.notify_one();
}

void ThreadPool::submit_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::function<void()>& task : tasks) {
      queue_.push_back(std::move(task));
    }
  }
  ready_.fetch_add(tasks.size(), std::memory_order_release);
  work_cv_.notify_all();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    // Spin-then-park: watch the lock-free mirrors briefly before taking the
    // mutex, so a barrier-cadenced producer (the windowed engine) re-wakes
    // workers without a futex round trip per window.
    for (int spin = 0; spin < kSpinIters; ++spin) {
      if (ready_.load(std::memory_order_acquire) > 0 ||
          stop_flag_.load(std::memory_order_acquire)) {
        break;
      }
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ready_.fetch_sub(1, std::memory_order_relaxed);
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error != nullptr && first_error_ == nullptr) {
        first_error_ = std::move(error);
      }
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

std::size_t ThreadPool::default_workers() {
  if (const char* env = std::getenv("BFTSIM_JOBS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return static_cast<std::size_t>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  struct Shared {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;
    std::vector<std::exception_ptr> errors;
  } shared;
  shared.errors.resize(count);

  std::vector<std::function<void()>> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back([&shared, &fn, i, count] {
      try {
        fn(i);
      } catch (...) {
        shared.errors[i] = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(shared.mutex);
      if (++shared.done == count) shared.done_cv.notify_all();
    });
  }
  pool.submit_batch(std::move(batch));

  std::unique_lock<std::mutex> lock(shared.mutex);
  shared.done_cv.wait(lock, [&shared, count] { return shared.done == count; });
  lock.unlock();

  for (std::exception_ptr& error : shared.errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace bftsim
