// The simulator's event queue: two 4-ary min-heaps ordered by
// (timestamp, insertion sequence number), one whose entries are merge
// cursors over sorted delivery runs and one of timer fires with lazy
// deletion of cancelled timers; a pop takes the earlier of the two tops.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/dary_heap.hpp"
#include "core/event.hpp"

namespace bftsim {

/// One copy of a broadcast run: its delay from the run's send time and its
/// position in the fan-out. Its key is the run's base key plus the
/// position; its destination is the position, skipping the sender.
struct RunEntry {
  std::uint32_t delay = 0;
  std::uint32_t pos = 0;
};

/// Priority queue of simulation events, deterministic under ties.
///
/// Two heaps. Deliveries queue in the message heap and timer fires in the
/// timer heap; pop() takes whichever top is earlier by (at, key). Keys are
/// unique within a queue, so the merged order is exactly the (at, key)
/// order of one heap holding both. Timers are a large share of what is
/// queued (a pacemaker re-arms one per node per round, and cancelled ones
/// stay queued until their fire time), so splitting them off keeps the
/// message heap small enough to stay in cache, and a delivery's sift never
/// walks past timer entries.
///
/// Runs. A broadcast's fast-path copies share one envelope and take one key
/// per fan-out position, reserved up front as one block (the sender's
/// counter on the lane engine, draw_seqs() on the serial engine): a
/// dropped copy leaves its key unused, a corrupted one is pushed alone
/// under its position's key. So a copy is 8 bytes, its delay and position
/// (RunEntry); the run records the envelope, base key, send time and
/// sender once (RunHead). A copy whose delay does not fit 32 bits (over 71
/// minutes of µs) is pushed alone instead. The lane that delivers the
/// copies appends them in position order to a build buffer and queues them
/// as one run (push_run()); the queue sorts it by (at, key) and copies it
/// into chunks of 64 entries from its free list, behind one message-heap
/// entry, a cursor keyed by the run's head. pop() takes the head and
/// advances the cursor in place (DaryHeap::replace_top). The message heap
/// thus holds one entry per broadcast in flight instead of one per copy,
/// while the pop order stays exactly the (at, key) order of every queued
/// copy: a merge of sorted runs by unique keys is the sorted order.
/// A run's first chunk is filled at its end and pop() frees each chunk as
/// its last entry pops, so a run holds ceil(queued copies / 64) chunks: run
/// memory follows the copies still in flight, not the broadcasts' sizes.
/// Chunks are cut from slabs of 64 to 4096 chunks (take_chunk()), not
/// allocated one by one. A single push() (a unicast, a self-delivery, a
/// corrupted or attacker-path copy) and a run of one that push_run() queues
/// need no chunk, because the envelope and destination fit in the heap
/// entry's handle.
///
/// Lanes. On the lane engine a broadcast is one run per destination lane,
/// which that lane draws and queues itself (sim/lane.hpp): runs and chunks
/// never leave the queue that made them.
///
/// Heap entries are 24 bytes: (at, key, handle). A message-heap handle
/// names a run slot or a run of one; a timer-heap handle is a timer slot. A
/// timer's owner, node and tag sit in its recycled timer slot rather than
/// in the TimerId-indexed state below, because callers may queue the same
/// id more than once.
///
/// Timer cancellation is lazy: a cancelled timer's fire event stays in the
/// timer heap (removing it eagerly would be O(n)) and its id is tombstoned
/// while the event is queued; popping it retires the tombstone and leaves a
/// mark the dispatcher consumes. size() counts every queued copy, so at
/// every instant size() == queued deliveries + pending_timer_count() +
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

  /// What a run's copies share: the time their delays count from, the key
  /// of position 0, the envelope and the sender.
  struct RunHead {
    Time sent = 0;
    std::uint64_t base = 0;
    std::uint32_t env = 0;
    NodeId sender = kNoNode;
  };

  static constexpr std::size_t kChunkEntries = 64;

  /// Fixed run storage, recycled through a queue's free list.
  struct Chunk {
    RunEntry entries[kChunkEntries];
  };

  /// Run storage at the moment queued runs held the most chunks: those
  /// chunks' bytes, and the copies (of runs, singles and timers) and runs
  /// queued then.
  struct RunMemory {
    std::size_t bytes = 0;
    std::size_t copies = 0;
    std::size_t runs = 0;
  };

  /// Longest delay a run entry holds.
  static constexpr std::uint64_t kMaxDelay = 0xffffffffu;

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
      messages_.push(Entry{at, key, single(body.env, body.dst)});
    } else if constexpr (std::is_same_v<B, TimerFire>) {
      mark_pending(body.timer);
      std::uint32_t slot;
      if (free_timers_.empty()) {
        slot = static_cast<std::uint32_t>(timer_slots_.size());
        timer_slots_.push_back(body);
      } else {
        slot = free_timers_.back();
        free_timers_.pop_back();
        timer_slots_[slot] = body;
      }
      timers_.push(Entry{at, key, slot});
    } else {
      std::visit([&](const auto& b) { push_keyed(at, key, b); }, body);
      return;
    }
    ++size_;
  }

  /// Draws the next insertion sequence number, as push() does.
  std::uint64_t draw_seq() noexcept { return next_seq_++; }

  /// Draws `count` consecutive sequence numbers and returns the first: the
  /// serial engine's keys for a fan-out's positions.
  std::uint64_t draw_seqs(std::uint64_t count) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  /// True when a copy sent at `sent` for delivery at `at` fits a run entry.
  [[nodiscard]] static bool fits_run(Time sent, Time at) noexcept {
    return at >= sent && static_cast<std::uint64_t>(at) -
                                 static_cast<std::uint64_t>(sent) <=
                             kMaxDelay;
  }

  /// Queues the copies in `build` (appended in position order, each one
  /// fits_run()) behind one heap entry, a run of one as a plain delivery.
  /// Leaves `build` empty.
  void push_run(const RunHead& head, std::vector<RunEntry>& build) {
    if (build.size() <= 1) {
      if (!build.empty()) push_single(head, build.front());
      build.clear();
      return;
    }
    sort_run(build);
    const std::uint32_t slot = take_slot();
    QueuedRun& queued = runs_[slot];
    queued.head = head;
    queued.size = static_cast<std::uint32_t>(build.size());
    // The first chunk is filled at its end: a run with `left` copies still
    // queued then holds ceil(left / 64) chunks.
    const std::size_t skip =
        (kChunkEntries - queued.size % kChunkEntries) % kChunkEntries;
    const RunEntry* const end = build.data() + queued.size;
    for (const RunEntry* from = build.data(); from != end;) {
      const std::size_t at = queued.chunks.empty() ? skip : 0;
      queued.chunks.push_back(take_chunk());
      std::copy_n(from, kChunkEntries - at, queued.chunks.back()->entries + at);
      from += kChunkEntries - at;
    }
    build.clear();
    queued.cur = queued.chunks.front()->entries;
    queued.next = static_cast<std::uint32_t>(skip);
    queued.chunk = 0;
    size_ += queued.size;
    held_chunks_ += queued.chunks.size();
    if (held_chunks_ * sizeof(Chunk) > peak_.bytes) {
      peak_ = RunMemory{held_chunks_ * sizeof(Chunk), size_,
                        runs_.size() - free_runs_.size()};
    }
    const RunEntry& e = queued.cur[queued.next];
    messages_.push(Entry{head.sent + e.delay, head.base + e.pos, slot});
  }

  /// True when no events remain.
  [[nodiscard]] bool empty() const noexcept {
    return messages_.empty() && timers_.empty();
  }

  /// Number of pending events: every queued copy of every run counts.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const {
    return timer_first() ? timers_.top().at : messages_.top().at;
  }

  /// Removes and returns the earliest pending event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    --size_;
    if (timer_first()) {
      const Entry top = timers_.pop();
      const auto slot = static_cast<std::uint32_t>(top.handle);
      const TimerFire fire = timer_slots_[slot];
      free_timers_.push_back(slot);
      retire(fire.timer);
      return Event{top.at, top.seq, fire};
    }
    const Entry top = messages_.top();
    if ((top.handle & kSingle) != 0) {
      (void)messages_.pop();
      const auto env = static_cast<std::uint32_t>(top.handle >> 32) & kEnvMax;
      return Event{top.at, top.seq,
                   MessageDelivery{env, static_cast<NodeId>(top.handle)}};
    }
    const auto slot = static_cast<std::uint32_t>(top.handle);
    QueuedRun& queued = runs_[slot];
    const RunHead& head = queued.head;
    Event ev{top.at, top.seq,
             MessageDelivery{head.env,
                             dst_of(head.sender, queued.cur[queued.next].pos)}};
    if (--queued.size == 0) {
      (void)messages_.pop();
      release_run(slot);
      return ev;
    }
    if (++queued.next == kChunkEntries) {
      free_chunk(queued.chunks[queued.chunk]);
      queued.cur = queued.chunks[++queued.chunk]->entries;
      queued.next = 0;
    }
    const RunEntry& next = queued.cur[queued.next];
    messages_.replace_top(
        Entry{head.sent + next.delay, head.base + next.pos, top.handle});
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

  /// Sizes the message heap for up to `messages` runs in flight (a
  /// broadcast in flight is one entry however many copies it has) and the
  /// timer heap for up to `timers` queued fires.
  void reserve(std::size_t messages, std::size_t timers = 0) {
    messages_.reserve(messages);
    timers_.reserve(timers);
    timer_state_.reserve(timers);
  }

  /// Total number of sequence numbers ever drawn by push(), draw_seq() and
  /// draw_seqs() (keyed pushes draw none).
  [[nodiscard]] std::uint64_t total_scheduled() const noexcept { return next_seq_; }

  /// Number of timers currently scheduled and not cancelled (test hook).
  [[nodiscard]] std::size_t pending_timer_count() const noexcept {
    return pending_timers_;
  }

  /// Number of cancelled fire events still queued.
  [[nodiscard]] std::size_t tombstone_count() const noexcept {
    return tombstones_;
  }

  /// Number of message-heap entries (test hook): queued runs and runs of
  /// one, each one entry however many copies it holds.
  [[nodiscard]] std::size_t message_heap_size() const noexcept {
    return messages_.size();
  }

  /// Number of run slots ever created (test hook): the most runs queued at
  /// once, since drained slots are reused.
  [[nodiscard]] std::size_t run_slots() const noexcept { return runs_.size(); }

  /// Number of chunks on this queue's free list (test hook).
  [[nodiscard]] std::size_t free_chunks() const noexcept {
    return free_chunks_.size();
  }

  /// Number of chunks this queue allocated (test hook).
  [[nodiscard]] std::size_t pool_chunks() const noexcept {
    return pool_chunks_;
  }

  /// Run storage when queued runs held the most chunks (test hook).
  [[nodiscard]] RunMemory run_memory_peak() const noexcept { return peak_; }

 private:
  enum : std::uint8_t {
    kIdle = 0,  ///< must stay 0: mark_pending grows the ledger zero-filled
    kPending = 1,
    kCancelled = 2,         ///< fire event queued, tombstoned
    kPoppedCancelled = 3,   ///< fire event popped, awaiting consume_cancellation
  };

  // Message-heap handle layout. A run of one sets kSingle and packs its
  // envelope handle (a store index, below 1 << 24) above its destination;
  // otherwise the handle is a run slot.
  static constexpr std::uint64_t kSingle = std::uint64_t{1} << 63;
  static constexpr std::uint32_t kEnvMax = 0x7fffffffu;
  /// Runs from this length on are radix-sorted (see sort_run): below it
  /// the comparison sort is cheaper per entry.
  static constexpr std::size_t kRadixFrom = 40;
  static constexpr unsigned kRadixBits = 11;
  /// Chunks per slab, the first and the largest (2 MiB).
  static constexpr std::size_t kMinSlab = 64;
  static constexpr std::size_t kMaxSlab = 4096;

  /// A queued run of two or more copies, sorted, in chunks whose first is
  /// filled at its end, and its cursor: `cur` is chunks[chunk]'s entries
  /// and `next` the head copy's index there; the chunks before `chunk` are
  /// already freed.
  struct QueuedRun {
    RunHead head;
    std::uint32_t size = 0;  ///< copies still queued
    std::vector<Chunk*> chunks;
    const RunEntry* cur = nullptr;
    std::uint32_t next = 0;
    std::uint32_t chunk = 0;
  };

  [[nodiscard]] static std::uint64_t single(std::uint32_t env, NodeId dst) {
    assert(env <= kEnvMax);
    return kSingle | std::uint64_t{env} << 32 | dst;
  }

  /// The destination at fan-out position `pos`: positions skip the sender.
  [[nodiscard]] static NodeId dst_of(NodeId sender, std::uint32_t pos) {
    return pos + (pos >= sender ? 1 : 0);
  }

  void push_single(const RunHead& head, const RunEntry& e) {
    messages_.push(Entry{head.sent + e.delay, head.base + e.pos,
                         single(head.env, dst_of(head.sender, e.pos))});
    ++size_;
  }

  /// A free chunk. An empty free list takes a new slab as large as the
  /// pool so far (64 to 4096 chunks): chunks never come from the general
  /// heap one by one, where they would land between, and spread out, the
  /// per-node state that protocols allocate as a run goes on. A slab is
  /// raw storage (push_run() writes every entry it reads), so its pages are
  /// touched only as its chunks are first used.
  Chunk* take_chunk() {
    if (free_chunks_.empty()) {
      const std::size_t count =
          std::clamp<std::size_t>(pool_chunks_, kMinSlab, kMaxSlab);
      slabs_.push_back(
          std::make_unique_for_overwrite<std::byte[]>(count * sizeof(Chunk)));
      auto* const first = reinterpret_cast<Chunk*>(slabs_.back().get());
      pool_chunks_ += count;
      // Lowest address on top, so a slab fills from its start.
      for (std::size_t i = count; i-- > 0;) free_chunks_.push_back(first + i);
    }
    Chunk* const chunk = free_chunks_.back();
    free_chunks_.pop_back();
    return chunk;
  }

  void free_chunk(Chunk* chunk) {
    free_chunks_.push_back(chunk);
    --held_chunks_;
  }

  /// Sorts a run's entries, appended in ascending position order, by
  /// (delay, position). Short runs take a comparison sort. Longer ones take
  /// a stable LSD radix sort on the delay relative to the run's shortest,
  /// which keeps equal delays in position order: it costs a few passes over
  /// the entries where a comparison sort's mispredicted branches cost
  /// several times more per entry at broadcast sizes.
  void sort_run(std::vector<RunEntry>& entries) {
    const std::size_t k = entries.size();
    if (k < kRadixFrom) {
      std::sort(entries.begin(), entries.end(),
                [](const RunEntry& a, const RunEntry& b) {
                  return (std::uint64_t{a.delay} << 32 | a.pos) <
                         (std::uint64_t{b.delay} << 32 | b.pos);
                });
      return;
    }
    const auto [lo_it, hi_it] = std::minmax_element(
        entries.begin(), entries.end(),
        [](const RunEntry& a, const RunEntry& b) { return a.delay < b.delay; });
    const std::uint32_t lo = lo_it->delay;
    const std::uint32_t range = hi_it->delay - lo;
    if (range == 0) return;  // one instant: already in position order
    // Digits of at most kRadixBits bits, as few passes as the range needs.
    const unsigned bits = 32 - static_cast<unsigned>(__builtin_clz(range));
    const unsigned passes = (bits + kRadixBits - 1) / kRadixBits;
    const unsigned width = (bits + passes - 1) / passes;
    const std::size_t buckets = std::size_t{1} << width;
    const std::uint32_t mask = static_cast<std::uint32_t>(buckets - 1);
    radix_counts_.assign(buckets * passes, 0);
    for (const RunEntry& e : entries) {
      for (unsigned d = 0; d < passes; ++d) {
        ++radix_counts_[d * buckets + (((e.delay - lo) >> (d * width)) & mask)];
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
        dst[start[((src[i].delay - lo) >> (d * width)) & mask]++] = src[i];
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

  /// Frees a drained run's last chunk and returns its slot to the free
  /// list; the slot's chunk list keeps its capacity for the next run.
  void release_run(std::uint32_t slot) {
    QueuedRun& queued = runs_[slot];
    free_chunk(queued.chunks[queued.chunk]);
    queued.chunks.clear();
    free_runs_.push_back(slot);
  }

  void mark_pending(TimerId id) {
    if (id >= timer_state_.size()) {
      // Ids arrive in near-sequential order; geometric growth keeps the
      // amortized cost of the one-byte-per-timer ledger negligible.
      std::size_t grown = timer_state_.empty() ? 64 : timer_state_.size() * 2;
      if (grown < id + 1) grown = id + 1;
      timer_state_.resize(grown);  // value-initialised, i.e. kIdle
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

  /// True when the timer heap's top pops before the message heap's.
  /// Precondition: !empty().
  [[nodiscard]] bool timer_first() const noexcept {
    return !timers_.empty() &&
           (messages_.empty() || Earlier{}(timers_.top(), messages_.top()));
  }

  DaryHeap<Entry, 4, Earlier> messages_;  ///< runs and runs of one
  DaryHeap<Entry, 4, Earlier> timers_;    ///< timer fires, by timer slot
  std::size_t size_ = 0;  ///< queued copies and timers
  std::uint64_t next_seq_ = 0;
  std::vector<QueuedRun> runs_;            ///< run slots, recycled
  std::vector<std::uint32_t> free_runs_;
  /// Chunk memory this queue allocated; only its own runs use it.
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<Chunk*> free_chunks_;
  std::size_t pool_chunks_ = 0;  ///< chunks in slabs_
  std::size_t held_chunks_ = 0;  ///< chunks of queued runs
  RunMemory peak_;
  std::vector<std::uint32_t> radix_counts_;  ///< sort_run's buffers, reused
  std::vector<RunEntry> radix_spare_;
  std::vector<TimerFire> timer_slots_;     ///< recycled
  std::vector<std::uint32_t> free_timers_;
  std::vector<std::uint8_t> timer_state_;  ///< indexed by TimerId
  std::size_t pending_timers_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace bftsim
