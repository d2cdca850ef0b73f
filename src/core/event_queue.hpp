// The simulator's event queue: a 4-ary min-heap ordered by
// (timestamp, insertion sequence number) whose entries are merge cursors
// over sorted delivery runs, with lazy deletion of cancelled timers.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/dary_heap.hpp"
#include "core/event.hpp"

namespace bftsim {

/// One delivery of a run: its time, its key's offset from the run's base
/// key, and its destination. The run's entries share one envelope handle.
struct RunEntry {
  Time at = 0;
  std::uint32_t offset = 0;
  NodeId dst = kNoNode;
};

/// Priority queue of simulation events, deterministic under ties.
///
/// Runs. A broadcast's fast-path copies share one envelope, and their keys
/// are consecutive (a dropped copy only skips a number). The sender
/// appends them to a Run (append()), sorts it by (at, key) when the
/// fan-out ends (sort()) and queues it (adopt()): one heap entry, a cursor
/// keyed by the run's head. pop() takes the head and advances the cursor
/// in place (DaryHeap::replace_top). The heap thus holds one entry per
/// broadcast in flight instead of one per copy, while the pop order stays
/// exactly the (at, key) order of every queued copy: a merge of sorted runs
/// by unique keys is the sorted order. A single push() (a unicast, a
/// self-delivery, a corrupted or attacker-path copy) is a run of one; it
/// needs no run storage, because its envelope and destination fit in the
/// heap entry's handle. Run storage is a slab of slots that keep their
/// entry blocks' capacity when recycled, so a warm queue allocates nothing
/// per broadcast.
///
/// Heap entries are 24 bytes: (at, key, handle), where the handle names a
/// run slot, a timer slot or a run of one. A timer's owner, node and tag
/// sit in its recycled timer slot rather than in the TimerId-indexed state
/// below, because callers may queue the same id more than once.
///
/// Timer cancellation is lazy: a cancelled timer's fire event stays in the
/// heap (removing it eagerly would be O(n)) and its id is tombstoned while
/// the event is queued; popping it retires the tombstone and leaves a mark
/// the dispatcher consumes. size() counts every queued copy, so at every
/// instant size() == queued deliveries + pending_timer_count() +
/// tombstone_count(), including between a pop and its dispatch. The queue
/// tracks which timer ids are actually pending, so cancelling a timer that
/// already fired — or was never scheduled — leaves no tombstone behind;
/// both counts stay bounded by the number of in-flight timers no matter
/// how long the run churns (see Context::cancel_timer).
///
/// Timer state lives in a flat byte array indexed by TimerId. Each lane of
/// the controller assigns its timer ids sequentially from 1, so the array
/// stays dense, grows with timers set (not with events scheduled), and
/// every state transition is one cache line touch instead of a hash-set
/// operation on the pop hot path.
class EventQueue {
 public:
  /// A heap entry: the (at, key) of a copy and the handle it pops through.
  struct Entry {
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint64_t handle = 0;
  };

  /// A run of deliveries sharing one envelope: its entries, sorted by (at,
  /// offset) once queued, the head's index and the key of offset 0. The
  /// sender builds it with append(), sorts it with sort() and queues it
  /// with adopt(); the lane engine sorts a run bound for another lane on
  /// the sending lane and queues it at the barrier.
  struct Run {
    std::vector<RunEntry> entries;
    std::uint64_t base = 0;
    std::uint32_t env = 0;
    std::uint32_t pos = 0;
  };

  /// Schedules `body` (a MessageDelivery, a TimerFire or an Event body) at
  /// absolute time `at`; returns the assigned sequence number (unique per
  /// queue, usable as a stable event identity).
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
    using B = std::decay_t<Body>;
    if constexpr (std::is_same_v<B, MessageDelivery>) {
      heap_.push(Entry{at, key, single(body.env, body.dst)});
    } else if constexpr (std::is_same_v<B, TimerFire>) {
      mark_pending(body.timer);
      std::uint32_t slot;
      if (free_timers_.empty()) {
        slot = static_cast<std::uint32_t>(timers_.size());
        timers_.push_back(body);
      } else {
        slot = free_timers_.back();
        free_timers_.pop_back();
        timers_[slot] = body;
      }
      heap_.push(Entry{at, key, kTimer | slot});
    } else {
      std::visit([&](const auto& b) { push_keyed(at, key, b); }, body);
      return;
    }
    ++size_;
  }

  /// Draws the next insertion sequence number, as push() does: the key a
  /// copy appended to a run takes on the serial engine.
  std::uint64_t draw_seq() noexcept { return next_seq_++; }

  /// Appends a delivery of envelope `env` under `key` to `run`. Every
  /// entry of one run shares the envelope, under keys ascending within 32
  /// bits of the first: one broadcast's copies (a dropped or corrupted
  /// copy only skips a key).
  static void append(Run& run, Time at, std::uint64_t key, std::uint32_t env,
                     NodeId dst) {
    if (run.entries.empty()) {
      run.env = env;
      run.base = key;
    }
    assert(run.env == env && key >= run.base && key - run.base <= kMaxOffset);
    run.entries.push_back(
        RunEntry{at, static_cast<std::uint32_t>(key - run.base), dst});
  }

  /// Sorts an appended run by (at, key). Uses this queue's sort buffers, so
  /// only the queue's owner calls it.
  void sort(Run& run) { sort_run(run.entries); }

  /// Queues a sorted run behind one heap entry (a run of one as a plain
  /// delivery). `run` is left empty, holding a drained block of this
  /// queue's for reuse, so blocks keep their capacity as they pass between
  /// queues.
  void adopt(Run& run) {
    if (run.entries.empty()) return;
    if (run.entries.size() == 1) {
      const RunEntry& e = run.entries.front();
      heap_.push(Entry{e.at, run.base + e.offset, single(run.env, e.dst)});
      ++size_;
      run.entries.clear();
      return;
    }
    const std::uint32_t slot = take_slot();
    Run& queued = runs_[slot];
    queued.entries.swap(run.entries);
    queued.base = run.base;
    queued.env = run.env;
    size_ += queued.entries.size();
    const RunEntry& head = queued.entries.front();
    heap_.push(Entry{head.at, queued.base + head.offset, slot});
  }

  /// True when no events remain.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Number of pending events: every queued copy of every run counts.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const { return heap_.top().at; }

  /// Removes and returns the earliest pending event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    const Entry top = heap_.top();
    --size_;
    if ((top.handle & kSingle) != 0) {
      (void)heap_.pop();
      const auto env = static_cast<std::uint32_t>(top.handle >> 32) & kEnvMax;
      return Event{top.at, top.seq,
                   MessageDelivery{env, static_cast<NodeId>(top.handle)}};
    }
    if ((top.handle & kTimer) != 0) {
      (void)heap_.pop();
      const auto slot = static_cast<std::uint32_t>(top.handle);
      const TimerFire fire = timers_[slot];
      free_timers_.push_back(slot);
      retire(fire.timer);
      return Event{top.at, top.seq, fire};
    }
    const auto slot = static_cast<std::uint32_t>(top.handle);
    Run& run = runs_[slot];
    Event ev{top.at, top.seq,
             MessageDelivery{run.env, run.entries[run.pos].dst}};
    if (++run.pos < run.entries.size()) {
      const RunEntry& next = run.entries[run.pos];
      heap_.replace_top(Entry{next.at, run.base + next.offset, top.handle});
    } else {
      (void)heap_.pop();
      release_run(slot);
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

  /// Sizes the heap for up to `expected_entries` runs and timers in flight
  /// (a broadcast in flight is one entry however many copies it has).
  void reserve(std::size_t expected_entries) {
    heap_.reserve(expected_entries);
    timer_state_.reserve(expected_entries);
  }

  /// Total number of sequence numbers ever drawn by push() and draw_seq()
  /// (keyed pushes draw none).
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return next_seq_; }

  /// Number of timers currently scheduled and not cancelled (test hook).
  [[nodiscard]] std::size_t pending_timer_count() const noexcept {
    return pending_timers_;
  }

  /// Number of cancelled fire events still queued.
  [[nodiscard]] std::size_t tombstone_count() const noexcept {
    return tombstones_;
  }

  /// Number of run slots ever created (test hook): the most runs queued at
  /// once, since drained slots are reused.
  [[nodiscard]] std::size_t run_slots() const noexcept { return runs_.size(); }

 private:
  enum : std::uint8_t {
    kIdle = 0,
    kPending = 1,
    kCancelled = 2,         ///< fire event queued, tombstoned
    kPoppedCancelled = 3,   ///< fire event popped, awaiting consume_cancellation
  };

  // Handle layout. A run of one sets kSingle and packs its envelope handle
  // (31 bits: lane ids stay below EngineConfig::kMaxIntraJobs = 128) above
  // its destination; otherwise kTimer tells a timer slot from a run slot.
  static constexpr std::uint64_t kSingle = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kTimer = std::uint64_t{1} << 62;
  static constexpr std::uint32_t kEnvMax = 0x7fffffffu;
  static constexpr std::uint64_t kMaxOffset = 0xffffffffu;
  /// Runs from this length on are radix-sorted (see sort_run): below it
  /// the comparison sort is cheaper per entry.
  static constexpr std::size_t kRadixFrom = 64;
  static constexpr unsigned kRadixBits = 11;

  [[nodiscard]] static std::uint64_t single(std::uint32_t env, NodeId dst) {
    assert(env <= kEnvMax);
    return kSingle | std::uint64_t{env} << 32 | dst;
  }

  /// Sorts a run's entries, pushed in ascending offset order, by (at,
  /// offset). Short runs take a comparison sort. Longer ones take a stable
  /// LSD radix sort on `at` relative to the run's earliest time, which
  /// keeps equal times in offset order: it costs a few passes over the
  /// entries where a comparison sort's mispredicted branches cost several
  /// times more per entry at broadcast sizes (n in the hundreds and up).
  void sort_run(std::vector<RunEntry>& entries) {
    const std::size_t k = entries.size();
    if (k < kRadixFrom) {
      std::sort(entries.begin(), entries.end(),
                [](const RunEntry& a, const RunEntry& b) {
                  return a.at != b.at ? a.at < b.at : a.offset < b.offset;
                });
      return;
    }
    const auto [lo_it, hi_it] = std::minmax_element(
        entries.begin(), entries.end(),
        [](const RunEntry& a, const RunEntry& b) { return a.at < b.at; });
    // Time relative to the earliest, in unsigned arithmetic (a signed
    // difference could overflow for extreme times).
    const auto lo = static_cast<std::uint64_t>(lo_it->at);
    const auto rel = [lo](Time at) {
      return static_cast<std::uint64_t>(at) - lo;
    };
    const std::uint64_t range = rel(hi_it->at);
    if (range == 0) return;  // one instant: already in offset order
    // Digits of at most kRadixBits bits, as few passes as the range needs.
    const unsigned bits = 64 - static_cast<unsigned>(__builtin_clzll(range));
    const unsigned passes = (bits + kRadixBits - 1) / kRadixBits;
    const unsigned width = (bits + passes - 1) / passes;
    const std::size_t buckets = std::size_t{1} << width;
    const std::uint64_t mask = buckets - 1;
    radix_counts_.assign(buckets * passes, 0);
    for (const RunEntry& e : entries) {
      for (unsigned d = 0; d < passes; ++d) {
        ++radix_counts_[d * buckets + ((rel(e.at) >> (d * width)) & mask)];
      }
    }
    radix_spare_.resize(k);
    RunEntry* src = entries.data();
    RunEntry* dst = radix_spare_.data();
    for (unsigned d = 0; d < passes; ++d) {
      std::uint32_t* start = radix_counts_.data() + d * buckets;
      std::uint32_t sum = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        const std::uint32_t count = start[b];
        start[b] = sum;
        sum += count;
      }
      for (std::size_t i = 0; i < k; ++i) {
        dst[start[(rel(src[i].at) >> (d * width)) & mask]++] = src[i];
      }
      std::swap(src, dst);
    }
    if (src != entries.data()) entries.swap(radix_spare_);
  }

  /// A free run slot (a drained one when there is one).
  std::uint32_t take_slot() {
    if (free_runs_.empty()) {
      runs_.emplace_back();
      return static_cast<std::uint32_t>(runs_.size() - 1);
    }
    const std::uint32_t slot = free_runs_.back();
    free_runs_.pop_back();
    return slot;
  }

  /// Returns a drained run's slot to the free list; its entry block keeps
  /// its capacity for the next run that takes the slot.
  void release_run(std::uint32_t slot) {
    Run& run = runs_[slot];
    run.entries.clear();
    run.pos = 0;
    free_runs_.push_back(slot);
  }

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

  /// Ledger transition of a popped timer: pending -> idle, or cancelled ->
  /// popped-cancelled (awaiting consume_cancellation).
  void retire(TimerId id) {
    if (id >= timer_state_.size()) return;
    std::uint8_t& state = timer_state_[id];
    if (state == kPending) {
      state = kIdle;
      --pending_timers_;
    } else if (state == kCancelled) {
      state = kPoppedCancelled;
      --tombstones_;
    }
  }

  /// (at, seq) order as one 128-bit key (`at` sign-flipped so signed
  /// times order as unsigned). DaryHeap compares keys held in registers
  /// when sifting down, which keeps the min-of-children selection free of
  /// data-dependent branches.
  struct Earlier {
    __extension__ typedef unsigned __int128 Key;
    [[nodiscard]] static Key key(const Entry& e) noexcept {
      constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
      return Key{static_cast<std::uint64_t>(e.at) ^ kSign} << 64 | e.seq;
    }
    [[nodiscard]] bool operator()(const Entry& a,
                                  const Entry& b) const noexcept {
      return key(a) < key(b);
    }
  };

  DaryHeap<Entry, 4, Earlier> heap_;
  std::size_t size_ = 0;  ///< queued copies and timers
  std::uint64_t next_seq_ = 0;
  std::vector<Run> runs_;                  ///< run slots, recycled
  std::vector<std::uint32_t> free_runs_;
  std::vector<std::uint32_t> radix_counts_;  ///< sort_run's buffers, reused
  std::vector<RunEntry> radix_spare_;
  std::vector<TimerFire> timers_;          ///< timer slots, recycled
  std::vector<std::uint32_t> free_timers_;
  std::vector<std::uint8_t> timer_state_;  ///< indexed by TimerId
  std::size_t pending_timers_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace bftsim
