// Fixed-size worker pool for fanning independent simulation runs across
// cores. Deliberately minimal — one shared FIFO task queue, no work
// stealing, no futures: the experiment runner derives all seeds up front,
// so tasks are uniform and a single queue keeps execution order (and thus
// aggregation order) easy to reason about. Destruction drains the queue
// and joins every worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace bftsim {

/// A fixed set of worker threads consuming one FIFO queue of tasks.
class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is treated as 1).
  explicit ThreadPool(std::size_t workers);

  /// Drains the remaining queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker. An exception escaping
  /// the task is captured (it never terminates the worker or the process)
  /// and rethrown from the next wait_idle() call; parallel_for() offers
  /// deterministic per-index propagation for batch work.
  void submit(std::function<void()> task);

  /// Enqueues every task in `tasks` under ONE queue lock and one
  /// notify_all. The windowed-parallel engine submits a lane batch at
  /// every window barrier; per-task submit() would take the lock (and wake
  /// the workers) once per lane per window.
  void submit_batch(std::vector<std::function<void()>> tasks);

  /// Blocks until every task submitted so far has finished (the queue is
  /// empty and no worker is mid-task). If any task threw since the last
  /// call, rethrows the first captured exception; later ones are dropped.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Worker count to use when the caller does not specify one: the
  /// BFTSIM_JOBS environment variable if set to a positive integer, else
  /// std::thread::hardware_concurrency() (at least 1).
  [[nodiscard]] static std::size_t default_workers();

 private:
  void worker_loop();

  /// Bounded spin iterations an idle worker burns watching ready_ before
  /// parking on the condition variable. Windowed-parallel barriers resubmit
  /// work within microseconds; a short spin turns the park/unpark round
  /// trip (two syscalls per lane per window) into a pair of atomic loads.
  /// Small enough that a genuinely idle pool parks almost immediately.
  static constexpr int kSpinIters = 4096;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< signals workers: task or shutdown
  std::condition_variable idle_cv_;  ///< signals wait_idle(): drained
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;  ///< tasks popped but not yet finished
  bool stopping_ = false;
  /// Lock-free mirrors of queue_.size() / stopping_ for the spin phase.
  std::atomic<std::size_t> ready_{0};
  std::atomic<bool> stop_flag_{false};
  std::exception_ptr first_error_;  ///< first escaped task exception
};

/// Runs `fn(i)` for every i in [0, count) on `pool` and blocks until all
/// calls return. Exceptions are caught per index; after completion the one
/// with the lowest index is rethrown on the calling thread (so failures
/// are deterministic regardless of scheduling).
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// The outcome of one fan_out() index: its value, or the error it threw.
template <typename T>
struct Slot {
  std::optional<T> value;  ///< empty when the call threw
  std::string error;       ///< the exception's message when it threw
};

/// Calls `fn(i)` for every i in [0, count) on `pool` and returns one slot
/// per index, in index order. An exception is caught inside its slot, so
/// one throwing call never aborts the batch; folding the slots in index
/// order makes whatever the caller derives from them independent of the
/// job count and of scheduling. The guarded sweep, the fuzz campaign and
/// the adversary search's candidate batches fan out through it.
template <typename Fn>
[[nodiscard]] auto fan_out(ThreadPool& pool, std::size_t count, const Fn& fn) {
  using T = std::invoke_result_t<const Fn&, std::size_t>;
  std::vector<Slot<T>> slots(count);
  parallel_for(pool, count, [&slots, &fn](std::size_t i) {
    try {
      slots[i].value.emplace(fn(i));
    } catch (const std::exception& e) {
      slots[i].error = e.what();
    } catch (...) {
      slots[i].error = "unknown exception";
    }
  });
  return slots;
}

}  // namespace bftsim
