// The per-index fan-out the fuzzer and the adversary search share: a fuzz
// campaign's scenario runs and an adversary search's candidate batches.
//
// Every index gets its own slot, and an exception is caught inside its
// slot, so one throwing run never aborts the batch. Slots come back in
// index order; folding them in that order makes whatever the caller
// derives from them independent of the job count and of scheduling.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/thread_pool.hpp"

namespace bftsim::explore {

/// The outcome of one index: its value, or the error it threw.
template <typename T>
struct Slot {
  std::optional<T> value;  ///< empty when the call threw
  std::string error;       ///< the exception's message when it threw
};

/// Calls `fn(i)` for every i in [0, count) on `pool` and returns the slots
/// in index order.
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

}  // namespace bftsim::explore
