#include "core/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace bftsim {
namespace {

TimerFire timer(NodeId node, std::uint64_t tag = 0) {
  return TimerFire{TimerOwner::kNode, node, 0, tag};
}

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.total_scheduled(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  queue.push(30, timer(3));
  queue.push(10, timer(1));
  queue.push(20, timer(2));
  EXPECT_EQ(queue.pop().at, 10);
  EXPECT_EQ(queue.pop().at, 20);
  EXPECT_EQ(queue.pop().at, 30);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  for (NodeId i = 0; i < 10; ++i) queue.push(5, timer(i));
  for (NodeId i = 0; i < 10; ++i) {
    const Event ev = queue.pop();
    EXPECT_EQ(std::get<TimerFire>(ev.body).node, i);
  }
}

TEST(EventQueueTest, SignedTimesAndKeyedPushesKeepTimeThenKeyOrder) {
  EventQueue queue;
  queue.push_keyed(5, 1, timer(0));
  queue.push_keyed(-3, 9, timer(1));
  queue.push_keyed(0, 2, timer(2));
  queue.push_keyed(-3, 4, timer(3));
  queue.push_keyed(-4, 7, timer(4));
  for (const NodeId expected : {4u, 3u, 1u, 2u, 0u}) {
    EXPECT_EQ(std::get<TimerFire>(queue.pop().body).node, expected);
  }
  EXPECT_EQ(queue.total_scheduled(), 0u);
}

TEST(EventQueueTest, NextTimeMatchesTopElement) {
  EventQueue queue;
  queue.push(100, timer(0));
  queue.push(50, timer(1));
  EXPECT_EQ(queue.next_time(), 50);
  (void)queue.pop();
  EXPECT_EQ(queue.next_time(), 100);
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue queue;
  queue.push(10, timer(0));
  queue.push(30, timer(1));
  EXPECT_EQ(queue.pop().at, 10);
  queue.push(20, timer(2));
  EXPECT_EQ(queue.pop().at, 20);
  EXPECT_EQ(queue.pop().at, 30);
}

TEST(EventQueueTest, TotalScheduledCountsEverything) {
  EventQueue queue;
  for (int i = 0; i < 7; ++i) queue.push(i, timer(0));
  while (!queue.empty()) (void)queue.pop();
  EXPECT_EQ(queue.total_scheduled(), 7u);
}

TEST(EventQueueTest, CarriesMessageEvents) {
  EventQueue queue;
  queue.push(42, MessageDelivery{/*env=*/7, /*dst=*/2});
  const Event ev = queue.pop();
  const auto& delivery = std::get<MessageDelivery>(ev.body);
  EXPECT_EQ(delivery.env, 7u);
  EXPECT_EQ(delivery.dst, 2u);
}

TEST(EventQueueTest, CancelTombstonesOnlyPendingTimers) {
  EventQueue queue;
  queue.push(10, TimerFire{TimerOwner::kNode, 0, /*timer=*/5, 0});
  EXPECT_EQ(queue.pending_timer_count(), 1u);

  // Never-scheduled id: rejected, no tombstone.
  EXPECT_FALSE(queue.cancel_timer(99));
  EXPECT_EQ(queue.tombstone_count(), 0u);

  // Pending id: tombstoned exactly once.
  EXPECT_TRUE(queue.cancel_timer(5));
  EXPECT_FALSE(queue.cancel_timer(5));  // double-cancel is a no-op
  EXPECT_EQ(queue.tombstone_count(), 1u);
  EXPECT_EQ(queue.pending_timer_count(), 0u);

  // The fire event still pops (lazy deletion). Once popped it no longer
  // counts as queued, and the dispatcher's consume call reports the cancel.
  const Event ev = queue.pop();
  EXPECT_EQ(queue.tombstone_count(), 0u);
  EXPECT_TRUE(queue.consume_cancellation(std::get<TimerFire>(ev.body).timer));
  EXPECT_FALSE(queue.consume_cancellation(5));
  EXPECT_EQ(queue.tombstone_count(), 0u);
}

TEST(EventQueueTest, CancelAfterFireLeavesNoTombstone) {
  EventQueue queue;
  queue.push(10, TimerFire{TimerOwner::kNode, 0, /*timer=*/7, 0});
  const Event ev = queue.pop();
  EXPECT_FALSE(queue.consume_cancellation(std::get<TimerFire>(ev.body).timer));
  // The timer already fired; a late cancel must not leak a tombstone that
  // no future pop would ever consume.
  EXPECT_FALSE(queue.cancel_timer(7));
  EXPECT_EQ(queue.tombstone_count(), 0u);
  EXPECT_EQ(queue.pending_timer_count(), 0u);
}

TEST(EventQueueTest, TimerChurnKeepsBookkeepingBounded) {
  // The pacemaker pattern: a steady pool of armed timeouts where rounds
  // keep cancelling some and re-arming others. Pre-overhaul, every
  // cancellation left a controller-side tombstone that nothing retired,
  // so a long-churning run accumulated them without bound. Now both sets
  // must stay bounded by the number of timers actually in the queue.
  EventQueue queue;
  Rng rng{2024};
  TimerId next_id = 1;
  Time clock = 0;
  constexpr std::size_t kDepth = 8;
  std::vector<TimerId> live;  // armed and not cancelled, per the test
  for (std::size_t i = 0; i < kDepth; ++i) {
    const TimerId id = next_id++;
    queue.push(clock + 1 + static_cast<Time>(i),
               TimerFire{TimerOwner::kNode, 0, id, 0});
    live.push_back(id);
  }
  for (int round = 0; round < 5'000; ++round) {
    if (round % 3 == 0 && !live.empty()) {
      EXPECT_TRUE(queue.cancel_timer(live.front()));
      live.erase(live.begin());
    }
    const Event ev = queue.pop();
    clock = ev.at;
    const TimerId fired = std::get<TimerFire>(ev.body).timer;
    const bool was_cancelled = queue.consume_cancellation(fired);
    const auto it = std::find(live.begin(), live.end(), fired);
    EXPECT_EQ(was_cancelled, it == live.end());
    if (it != live.end()) live.erase(it);
    const TimerId id = next_id++;
    queue.push(clock + 1 + static_cast<Time>(rng.next_below(16)),
               TimerFire{TimerOwner::kNode, 0, id, 0});
    live.push_back(id);
    ASSERT_EQ(queue.size(), kDepth) << "round " << round;
    ASSERT_LE(queue.tombstone_count(), kDepth) << "round " << round;
    ASSERT_EQ(queue.pending_timer_count() + queue.tombstone_count(),
              queue.size())
        << "round " << round;
  }
  // Draining the queue retires every remaining tombstone.
  while (!queue.empty()) {
    const Event ev = queue.pop();
    (void)queue.consume_cancellation(std::get<TimerFire>(ev.body).timer);
  }
  EXPECT_EQ(queue.tombstone_count(), 0u);
  EXPECT_EQ(queue.pending_timer_count(), 0u);
}

static_assert(sizeof(EventQueue::Entry) <= 24, "a heap entry is at most 24 B");
static_assert(sizeof(RunEntry) == 8, "a run entry is 8 B");
static_assert(sizeof(EventQueue::Chunk) == 512, "a chunk is 512 B");

TEST(EventQueueTest, RunPopsSortedAndCountsEveryCopy) {
  EventQueue queue;
  const std::uint64_t first = queue.draw_seqs(4);
  // Sender 0: positions 0..3 reach nodes 1..4.
  const EventQueue::RunHead head{/*sent=*/0, first, /*env=*/4, /*sender=*/0};
  std::vector<RunEntry> build = {{30, 0}, {10, 1}, {30, 2}, {20, 3}};
  queue.push_run(head, build);
  EXPECT_TRUE(build.empty());
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.next_time(), 10);
  const std::pair<Time, NodeId> expected[] = {
      {10, 2}, {20, 4}, {30, 1}, {30, 3}};
  for (const auto& [at, dst] : expected) {
    const Event ev = queue.pop();
    EXPECT_EQ(ev.at, at);
    EXPECT_EQ(ev.seq, first + dst - 1);  // each copy keeps its position's key
    EXPECT_EQ(std::get<MessageDelivery>(ev.body).env, 4u);
    EXPECT_EQ(std::get<MessageDelivery>(ev.body).dst, dst);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  queue.push_run(head, build);  // an empty run: a no-op
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, RunOfOneTakesNoRunSlot) {
  EventQueue queue;
  // Sender 0 at position 1 is node 2; the key is base + 1.
  std::vector<RunEntry> build = {{0, 1}};
  queue.push_run({/*sent=*/-5, /*base=*/8, /*env=*/3, /*sender=*/0}, build);
  EXPECT_TRUE(build.empty());
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.run_slots(), 0u);
  EXPECT_EQ(queue.pool_chunks(), 0u);  // no chunk either
  const Event ev = queue.pop();
  EXPECT_EQ(ev.at, -5);
  EXPECT_EQ(ev.seq, 9u);
  EXPECT_EQ(std::get<MessageDelivery>(ev.body).env, 3u);
  EXPECT_EQ(std::get<MessageDelivery>(ev.body).dst, 2u);
  EXPECT_EQ(queue.total_scheduled(), 0u);  // caller-chosen key: none drawn
}

// Timers queue in a heap of their own: a broadcast in flight among 1,000
// armed timers is still one message-heap entry, and the two heaps merge
// into (at, key) order, the timer first at the instants where both wait.
TEST(EventQueueTest, ArmedTimersStayOutOfTheMessageHeap) {
  EventQueue queue;
  constexpr std::uint32_t kTimers = 1000;
  constexpr std::uint32_t kCopies = 200;
  for (TimerId id = 1; id <= kTimers; ++id) {
    queue.push(static_cast<Time>(id), TimerFire{TimerOwner::kNode, 0, id, 0});
  }
  EXPECT_EQ(queue.message_heap_size(), 0u);
  // Sender 0: position p reaches node p + 1 at 5p, a timer's instant.
  const EventQueue::RunHead head{/*sent=*/0, queue.draw_seqs(kCopies),
                                 /*env=*/1, /*sender=*/0};
  std::vector<RunEntry> build;
  for (std::uint32_t pos = 0; pos < kCopies; ++pos) {
    build.push_back({5 * pos, pos});
  }
  queue.push_run(head, build);
  EXPECT_EQ(queue.message_heap_size(), 1u);
  EXPECT_EQ(queue.size(), kTimers + kCopies);
  EXPECT_EQ(queue.pending_timer_count(), kTimers);

  std::uint32_t fires = 0;
  std::uint32_t deliveries = 0;
  Time prev = -1;
  std::uint64_t prev_key = 0;
  while (!queue.empty()) {
    const Time next = queue.next_time();
    const Event ev = queue.pop();
    EXPECT_EQ(ev.at, next);
    EXPECT_TRUE(ev.at > prev || (ev.at == prev && ev.seq > prev_key));
    prev = ev.at;
    prev_key = ev.seq;
    if (const auto* fire = std::get_if<TimerFire>(&ev.body)) {
      EXPECT_EQ(fire->timer, ++fires);
      EXPECT_EQ(ev.at, static_cast<Time>(fire->timer));
    } else {
      const auto& d = std::get<MessageDelivery>(ev.body);
      EXPECT_EQ(d.dst, ++deliveries);
      EXPECT_EQ(ev.at, static_cast<Time>(5 * (d.dst - 1)));
    }
    EXPECT_EQ(queue.message_heap_size(), deliveries < kCopies ? 1u : 0u);
    EXPECT_EQ(queue.size(), (kTimers - fires) + (kCopies - deliveries));
  }
  EXPECT_EQ(fires, kTimers);
  EXPECT_EQ(deliveries, kCopies);
}

// Long runs are radix-sorted on delay, which keeps append order (ascending
// positions, so keys) at equal delays. Checked whatever the spread: one to
// three digit passes, odd and even counts, up to the largest delay a run
// entry holds.
TEST(EventQueueTest, LongRunsPopInTimeThenKeyOrder) {
  Rng rng{31};
  constexpr std::uint64_t kOne = 1;
  for (const std::uint64_t spread :
       {kOne, kOne << 3, kOne << 11, kOne << 20, kOne << 30,
        EventQueue::kMaxDelay}) {
    SCOPED_TRACE(spread);
    EventQueue queue;
    const Time sent = -static_cast<Time>(spread / 2);
    // A sender past every position: position p reaches node p.
    const EventQueue::RunHead head{sent, /*base=*/1000, /*env=*/1,
                                   /*sender=*/300};
    std::vector<RunEntry> build;
    std::vector<std::pair<Time, std::uint64_t>> reference;
    for (std::uint32_t pos = 0; pos < 300; ++pos) {
      // Few distinct delays: ties everywhere.
      const auto delay =
          static_cast<std::uint32_t>(rng.next_below(4) * (spread / 3));
      build.push_back({delay, pos});
      reference.emplace_back(sent + delay, head.base + pos);
    }
    queue.push_run(head, build);
    std::sort(reference.begin(), reference.end());
    for (const auto& [at, key] : reference) {
      const Event ev = queue.pop();
      ASSERT_EQ(ev.at, at);
      ASSERT_EQ(ev.seq, key);
      ASSERT_EQ(std::get<MessageDelivery>(ev.body).dst, key - head.base);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueueTest, RunSlotsAreRecycled) {
  EventQueue queue;
  std::vector<RunEntry> build;
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t env = 0; env < 4; ++env) {
      for (std::uint32_t pos = 0; pos < 8; ++pos) {
        build.push_back({static_cast<std::uint32_t>(pos), pos});
      }
      queue.push_run({static_cast<Time>(round * 100), queue.draw_seqs(8), env,
                      /*sender=*/3},
                     build);
    }
    EXPECT_EQ(queue.size(), 32u);
    while (!queue.empty()) (void)queue.pop();
  }
  EXPECT_EQ(queue.total_scheduled(), 96u);
  EXPECT_EQ(queue.run_slots(), 4u);  // the first round's slots, reused
  EXPECT_EQ(queue.free_chunks(), queue.pool_chunks());  // every chunk back
}

// A run's first chunk is filled at its end, and each chunk goes back to
// the free list as soon as its last entry pops, not when the run drains.
TEST(EventQueueTest, ChunksReturnToTheFreeListAsTheirLastEntryPops) {
  EventQueue queue;
  std::vector<RunEntry> build;
  const auto fill = [&build] {  // 130 copies: chunks of 2, 64 and 64
    for (std::uint32_t pos = 0; pos < 130; ++pos) build.push_back({pos, pos});
  };
  fill();
  queue.push_run({0, queue.draw_seqs(130), /*env=*/1, /*sender=*/0}, build);
  const std::size_t left = queue.free_chunks();
  EXPECT_EQ(left + 3, queue.pool_chunks());
  EXPECT_EQ(queue.run_memory_peak().bytes, 3 * sizeof(EventQueue::Chunk));
  const std::pair<int, std::size_t> marks[] = {
      {1, 0}, {2, 1}, {65, 1}, {66, 2}, {129, 2}, {130, 3}};
  int popped = 0;
  for (const auto& [pops, freed] : marks) {
    while (popped < pops) {
      ASSERT_EQ(queue.pop().at, popped);
      ++popped;
    }
    EXPECT_EQ(queue.free_chunks(), left + freed) << "after " << pops << " pops";
  }
  EXPECT_TRUE(queue.empty());
  fill();
  const std::size_t pool = queue.pool_chunks();
  queue.push_run({0, queue.draw_seqs(130), /*env=*/2, /*sender=*/0}, build);
  EXPECT_EQ(queue.free_chunks(), left);  // the same three chunks, reused
  EXPECT_EQ(queue.pool_chunks(), pool);
}

// Chunks are cut from slabs, the first of 64 chunks, each later one as
// large as the pool so far.
TEST(EventQueueTest, ChunksComeFromSlabsThatDoubleThePool) {
  EventQueue queue;
  std::vector<RunEntry> build;
  const auto push = [&](std::uint32_t copies) {
    for (std::uint32_t pos = 0; pos < copies; ++pos) build.push_back({0, pos});
    queue.push_run({0, queue.draw_seqs(copies), /*env=*/1, /*sender=*/0},
                   build);
  };
  EXPECT_EQ(queue.pool_chunks(), 0u);
  push(2);
  EXPECT_EQ(queue.pool_chunks(), 64u);
  push(64 * EventQueue::kChunkEntries);  // 64 more chunks: one more slab
  EXPECT_EQ(queue.pool_chunks(), 128u);
  EXPECT_EQ(queue.free_chunks(), 128u - 65u);
  push(64 * EventQueue::kChunkEntries);  // 64 more: a slab of 128
  EXPECT_EQ(queue.pool_chunks(), 256u);
  while (!queue.empty()) (void)queue.pop();
  EXPECT_EQ(queue.free_chunks(), queue.pool_chunks());
}

TEST(EventQueueTest, DelaysBeyondThirtyTwoBitsDoNotFitARun) {
  EXPECT_TRUE(EventQueue::fits_run(-7, -7));
  EXPECT_TRUE(EventQueue::fits_run(10, 10 + static_cast<Time>(
                                              EventQueue::kMaxDelay)));
  EXPECT_FALSE(EventQueue::fits_run(10, 11 + static_cast<Time>(
                                               EventQueue::kMaxDelay)));
  EXPECT_FALSE(EventQueue::fits_run(10, 9));
  EXPECT_FALSE(EventQueue::fits_run(std::numeric_limits<Time>::min(),
                                    std::numeric_limits<Time>::max()));
}

class EventQueuePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueuePropertyTest, RandomSchedulesPopSorted) {
  Rng rng{GetParam()};
  EventQueue queue;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    queue.push(static_cast<Time>(rng.next_below(1000)), timer(0));
  }
  Time prev = -1;
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (int i = 0; i < n; ++i) {
    const Event ev = queue.pop();
    EXPECT_GE(ev.at, prev);
    if (!first && ev.at == prev) {
      EXPECT_GT(ev.seq, prev_seq);  // stable ties
    }
    prev = ev.at;
    prev_seq = ev.seq;
    first = false;
  }
  EXPECT_TRUE(queue.empty());
}

TEST_P(EventQueuePropertyTest, MixedPushPopNeverGoesBackInTime) {
  // Simulates the controller's usage: pops advance the clock, pushes only
  // schedule at or after the current clock.
  Rng rng{GetParam() ^ 0x5555};
  EventQueue queue;
  queue.push(0, timer(0));
  Time clock = 0;
  for (int i = 0; i < 3000 && !queue.empty(); ++i) {
    const Event ev = queue.pop();
    EXPECT_GE(ev.at, clock);
    clock = ev.at;
    if (rng.next_below(100) < 60) {
      queue.push(clock + static_cast<Time>(rng.next_below(50)), timer(0));
    }
  }
}

/// One queued copy or timer as the reference model sees it.
struct Pending {
  bool timer = false;
  std::uint32_t env = 0;
  NodeId dst = kNoNode;
  TimerId id = 0;
};

// Property: a random mix of broadcast runs keyed by position (empty ones,
// ones with every copy but one dropped, ones with corrupted copies and
// copies delayed past 2^32 µs pushed alone under their position's key),
// single deliveries, timers and cancellations pops in exactly the (at, seq)
// order of a reference sort, and size() == queued deliveries +
// pending_timer_count() + tombstone_count() holds between every pop and
// its dispatch. Run lengths cover chunk boundaries (1, 63, 64, 65) and
// broadcast sizes (1023, 4095); senders sit first, last or anywhere.
// Timers and deliveries queue in separate heaps, so the cases that cross
// them are explicit: a timer and a delivery at one instant with either key
// first, cancelled timers (whose tombstones pop in order and report the
// cancel), and a fired timer re-pushed under its old key, as the
// controller defers a crashed node's timer to its recovery.
TEST_P(EventQueuePropertyTest, RunsSinglesAndTimersPopInKeyOrder) {
  Rng rng{GetParam() ^ 0x7a11};
  EventQueue queue;
  std::map<std::pair<Time, std::uint64_t>, Pending> pending;
  std::size_t deliveries = 0;
  std::uint32_t next_env = 1;
  TimerId next_timer = 1;
  std::vector<TimerId> armed;
  // Per timer id: queued, and cancelled while queued.
  std::vector<std::uint8_t> timer_queued;
  std::vector<std::uint8_t> timer_cancelled;
  std::vector<RunEntry> build;
  Time clock = 0;
  const auto later = [&] {
    return clock + static_cast<Time>(rng.next_below(40));
  };
  const auto copies_of_run = [&]() -> std::uint32_t {
    static constexpr std::uint32_t kEdges[] = {1, 63, 64, 65, 1023, 4095};
    switch (rng.next_below(16)) {
      case 0:
        return kEdges[rng.next_below(std::size(kEdges))];
      case 1:
      case 2:
        return static_cast<std::uint32_t>(48 + rng.next_below(160));
      default:
        return static_cast<std::uint32_t>(rng.next_below(12));
    }
  };
  const auto sender_of = [&](std::uint32_t copies) -> NodeId {
    switch (rng.next_below(3)) {
      case 0: return 0;
      case 1: return copies;  // the last of copies + 1 nodes
      default: return static_cast<NodeId>(rng.next_below(copies + 1));
    }
  };
  const auto add = [&](Time at, std::uint64_t seq, Pending p) {
    ASSERT_TRUE(pending.emplace(std::pair{at, seq}, p).second);
    if (!p.timer) ++deliveries;
  };
  const auto arm = [&](Time at, std::uint64_t seq, TimerId id) {
    if (id >= timer_queued.size()) {
      timer_queued.resize(id + 1, 0);
      timer_cancelled.resize(id + 1, 0);
    }
    timer_queued[id] = 1;
    armed.push_back(id);
    add(at, seq, {true, 0, kNoNode, id});
  };
  const auto pop_and_check = [&] {
    const Event ev = queue.pop();
    ASSERT_FALSE(pending.empty());
    const auto it = pending.begin();
    ASSERT_EQ(ev.at, it->first.first);
    ASSERT_EQ(ev.seq, it->first.second);
    if (it->second.timer) {
      ASSERT_EQ(std::get<TimerFire>(ev.body).timer, it->second.id);
    } else {
      const auto& d = std::get<MessageDelivery>(ev.body);
      ASSERT_EQ(d.env, it->second.env);
      ASSERT_EQ(d.dst, it->second.dst);
      --deliveries;
    }
    pending.erase(it);
    // Between the pop and its dispatch.
    ASSERT_EQ(queue.size(), deliveries + queue.pending_timer_count() +
                                queue.tombstone_count());
    clock = ev.at;
    if (const auto* fire = std::get_if<TimerFire>(&ev.body)) {
      const TimerId id = fire->timer;
      timer_queued[id] = 0;
      ASSERT_EQ(queue.consume_cancellation(id), timer_cancelled[id] != 0);
      if (timer_cancelled[id] != 0) {
        timer_cancelled[id] = 0;
      } else if (rng.next_below(4) == 0) {
        // Deferred to a later instant under the key it popped with.
        const Time at = later();
        queue.push_keyed(at, ev.seq, *fire);
        arm(at, ev.seq, id);
      }
    }
  };

  for (int round = 0; round < 1500; ++round) {
    switch (rng.next_below(5)) {
      case 0: {  // a broadcast fan-out
        const std::uint32_t env = next_env++;
        const std::uint32_t copies = copies_of_run();
        const NodeId sender = sender_of(copies);
        const EventQueue::RunHead head{clock, queue.draw_seqs(copies), env,
                                       sender};
        const std::uint64_t mode = rng.next_below(3);
        const auto kept =
            static_cast<std::uint32_t>(rng.next_below(copies + 1));
        for (std::uint32_t pos = 0; pos < copies; ++pos) {
          if (mode == 1 && pos != kept) continue;  // all but one dropped
          if (mode == 2 && rng.next_below(3) == 0) continue;  // random drops
          const NodeId dst = pos + (pos >= sender ? 1 : 0);
          const std::uint64_t key = head.base + pos;
          // Rarely a delay past what a run entry holds.
          const Time at = rng.next_below(64) == 0
                              ? later() + static_cast<Time>(
                                              EventQueue::kMaxDelay)
                              : later();
          if (rng.next_below(8) == 0) {  // corrupted: pushed alone
            const std::uint32_t own = next_env++;
            queue.push_keyed(at, key, MessageDelivery{own, dst});
            add(at, key, {false, own, dst, 0});
          } else if (!EventQueue::fits_run(clock, at)) {
            queue.push_keyed(at, key, MessageDelivery{env, dst});
            add(at, key, {false, env, dst, 0});
          } else {
            build.push_back({static_cast<std::uint32_t>(at - clock), pos});
            add(at, key, {false, env, dst, 0});
          }
          if (HasFatalFailure()) return;
        }
        queue.push_run(head, build);
        ASSERT_TRUE(build.empty());
        break;
      }
      case 1: {  // a unicast
        const Time at = later();
        const std::uint32_t env = next_env++;
        const auto dst = static_cast<NodeId>(rng.next_below(16));
        add(at, queue.push(at, MessageDelivery{env, dst}),
            {false, env, dst, 0});
        break;
      }
      case 2: {  // a timer
        const Time at = later();
        const TimerId id = next_timer++;
        arm(at, queue.push(at, TimerFire{TimerOwner::kNode, 0, id, 0}), id);
        if (HasFatalFailure()) return;
        break;
      }
      case 3: {  // a timer and a unicast at one instant, either key first
        const Time at = later();
        const std::uint64_t first = queue.draw_seq();
        const std::uint64_t second = queue.draw_seq();
        const bool timer_first = rng.next_below(2) == 0;
        const TimerId id = next_timer++;
        const std::uint32_t env = next_env++;
        const auto dst = static_cast<NodeId>(rng.next_below(16));
        const std::uint64_t timer_key = timer_first ? first : second;
        const std::uint64_t delivery_key = timer_first ? second : first;
        queue.push_keyed(at, delivery_key, MessageDelivery{env, dst});
        add(at, delivery_key, {false, env, dst, 0});
        queue.push_keyed(at, timer_key,
                         TimerFire{TimerOwner::kNode, 0, id, 0});
        arm(at, timer_key, id);
        if (HasFatalFailure()) return;
        break;
      }
      default:  // cancel an armed timer, which may have fired already
        if (!armed.empty()) {
          const std::size_t i = rng.next_below(armed.size());
          const TimerId id = armed[i];
          const bool queued =
              timer_queued[id] != 0 && timer_cancelled[id] == 0;
          ASSERT_EQ(queue.cancel_timer(id), queued);
          if (queued) timer_cancelled[id] = 1;
          armed.erase(armed.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
    }
    ASSERT_EQ(queue.size(), pending.size());
    for (std::uint64_t k = rng.next_below(4); k > 0 && !queue.empty(); --k) {
      pop_and_check();
      if (HasFatalFailure()) return;
    }
  }
  while (!queue.empty()) {
    pop_and_check();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.tombstone_count(), 0u);
  EXPECT_EQ(queue.pending_timer_count(), 0u);
  // Run memory followed the queued copies: at its peak, 8 bytes a copy
  // plus at most one partly used chunk per run.
  const EventQueue::RunMemory peak = queue.run_memory_peak();
  EXPECT_GT(peak.bytes, 0u);
  EXPECT_LE(peak.bytes, sizeof(RunEntry) * peak.copies +
                            sizeof(EventQueue::Chunk) * peak.runs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueuePropertyTest,
                         ::testing::Values(1, 7, 99, 1234));

}  // namespace
}  // namespace bftsim
