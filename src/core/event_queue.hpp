// The simulator's event queue: a 4-ary min-heap ordered by
// (timestamp, insertion sequence number), with lazy deletion of cancelled
// timers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dary_heap.hpp"
#include "core/event.hpp"

namespace bftsim {

/// Priority queue of simulation events, deterministic under ties.
///
/// Timer cancellation is lazy: a cancelled timer's fire event stays in the
/// heap (removing it eagerly would be O(n)) and its id is tombstoned while
/// the event is queued; popping it retires the tombstone and leaves a mark
/// the dispatcher consumes. So at every instant
/// size() == queued deliveries + pending_timer_count() + tombstone_count(),
/// including between a pop and its dispatch. The queue tracks
/// which timer ids are actually pending, so cancelling a timer that already
/// fired — or was never scheduled — leaves no tombstone behind; both counts
/// stay bounded by the number of in-flight timers no matter how long the
/// run churns (see Context::cancel_timer).
///
/// Timer state lives in a flat byte array indexed by TimerId. Each lane of
/// the controller assigns its timer ids sequentially from 1, so the array
/// stays dense, grows with timers set (not with events scheduled), and
/// every state transition is one cache line touch instead of a hash-set
/// operation on the pop hot path.
class EventQueue {
 public:
  /// Schedules `body` at absolute time `at`; returns the assigned sequence
  /// number (unique per queue, usable as a stable event identity).
  template <typename Body>
  std::uint64_t push(Time at, Body&& body) {
    const std::uint64_t seq = next_seq_++;
    push_keyed(at, seq, std::forward<Body>(body));
    return seq;
  }

  /// Schedules `body` at `at` under a caller-chosen ordering key instead of
  /// the insertion sequence (the lane engine's per-origin keys). Keys must
  /// be unique among queued events for the pop order to be a function of
  /// the keys alone.
  template <typename Body>
  void push_keyed(Time at, std::uint64_t key, Body&& body) {
    if constexpr (std::is_same_v<std::decay_t<Body>, TimerFire>) {
      mark_pending(body.timer);
    }
    heap_.emplace(Event{at, key, std::forward<Body>(body)});
  }

  /// True when no events remain.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const { return heap_.top().at; }

  /// Removes and returns the earliest pending event by move (the event
  /// body embeds a shared payload pointer; copying the top would churn its
  /// refcount twice per pop). Precondition: !empty().
  [[nodiscard]] Event pop() {
    Event ev = heap_.pop();
    if (const auto* fire = std::get_if<TimerFire>(&ev.body)) {
      if (fire->timer < timer_state_.size()) {
        std::uint8_t& state = timer_state_[fire->timer];
        if (state == kPending) {
          state = kIdle;
          --pending_timers_;
        } else if (state == kCancelled) {
          state = kPoppedCancelled;
          --tombstones_;
        }
      }
    }
    return ev;
  }

  /// Marks a pending timer as cancelled (lazy deletion: its fire event
  /// stays queued until it pops). Returns false — and records nothing —
  /// when `id` is not pending (already fired, already cancelled, or never
  /// scheduled), which is what keeps the tombstone count bounded.
  bool cancel_timer(TimerId id) {
    if (id >= timer_state_.size() || timer_state_[id] != kPending) return false;
    timer_state_[id] = kCancelled;
    --pending_timers_;
    ++tombstones_;
    return true;
  }

  /// True (consuming the mark) when popped timer `id` was cancelled. The
  /// dispatcher calls this for every popped TimerFire; a hit means the
  /// firing must be dropped.
  [[nodiscard]] bool consume_cancellation(TimerId id) {
    if (id >= timer_state_.size() || timer_state_[id] != kPoppedCancelled) {
      return false;
    }
    timer_state_[id] = kIdle;
    return true;
  }

  /// Sizes the heap's backing vector (and the timer bookkeeping) for a run
  /// expected to hold up to `expected_events` events in flight.
  void reserve(std::size_t expected_events) {
    heap_.reserve(expected_events);
    timer_state_.reserve(expected_events / 4);
  }

  /// Total number of events ever scheduled with push() (keyed pushes draw
  /// no sequence number).
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return next_seq_; }

  /// Number of timers currently scheduled and not cancelled (test hook).
  [[nodiscard]] std::size_t pending_timer_count() const noexcept {
    return pending_timers_;
  }

  /// Number of cancelled fire events still queued.
  [[nodiscard]] std::size_t tombstone_count() const noexcept {
    return tombstones_;
  }

 private:
  enum : std::uint8_t {
    kIdle = 0,
    kPending = 1,
    kCancelled = 2,         ///< fire event queued, tombstoned
    kPoppedCancelled = 3,   ///< fire event popped, awaiting consume_cancellation
  };

  void mark_pending(TimerId id) {
    if (id >= timer_state_.size()) {
      // Ids arrive in near-sequential order; geometric growth keeps the
      // amortized cost of the one-byte-per-timer ledger negligible.
      std::size_t grown = timer_state_.empty() ? 64 : timer_state_.size() * 2;
      if (grown < id + 1) grown = id + 1;
      timer_state_.resize(grown, kIdle);
    }
    if (timer_state_[id] != kPending) {
      if (timer_state_[id] == kCancelled) --tombstones_;
      timer_state_[id] = kPending;
      ++pending_timers_;
    }
  }

  /// (at, seq) order as one 128-bit key (`at` sign-flipped so signed
  /// times order as unsigned). DaryHeap compares keys held in registers
  /// when sifting down, which keeps the min-of-children selection free of
  /// data-dependent branches.
  struct Earlier {
    __extension__ typedef unsigned __int128 Key;
    [[nodiscard]] static Key key(const Event& e) noexcept {
      constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
      return Key{static_cast<std::uint64_t>(e.at) ^ kSign} << 64 | e.seq;
    }
    [[nodiscard]] bool operator()(const Event& a, const Event& b) const noexcept {
      return key(a) < key(b);
    }
  };

  DaryHeap<Event, 4, Earlier> heap_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::uint8_t> timer_state_;  ///< indexed by TimerId
  std::size_t pending_timers_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace bftsim
