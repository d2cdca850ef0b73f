#include "core/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
static_assert(sizeof(RunEntry) == 16, "a run entry is 16 B");

TEST(EventQueueTest, RunPopsSortedAndCountsEveryCopy) {
  EventQueue queue;
  EventQueue::Run run;
  const std::uint64_t first = queue.draw_seq();
  EventQueue::append(run, 30, first, /*env=*/4, /*dst=*/1);
  EventQueue::append(run, 10, queue.draw_seq(), 4, 2);
  EventQueue::append(run, 30, queue.draw_seq(), 4, 3);
  EventQueue::append(run, 20, queue.draw_seq(), 4, 4);
  queue.sort(run);
  queue.adopt(run);
  EXPECT_TRUE(run.entries.empty());
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.next_time(), 10);
  const std::pair<Time, NodeId> expected[] = {
      {10, 2}, {20, 4}, {30, 1}, {30, 3}};
  for (const auto& [at, dst] : expected) {
    const Event ev = queue.pop();
    EXPECT_EQ(ev.at, at);
    EXPECT_EQ(ev.seq, first + dst - 1);  // each copy keeps its own seq
    EXPECT_EQ(std::get<MessageDelivery>(ev.body).env, 4u);
    EXPECT_EQ(std::get<MessageDelivery>(ev.body).dst, dst);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  queue.adopt(run);  // an empty run: a no-op
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, RunOfOneTakesNoRunSlot) {
  EventQueue queue;
  EventQueue::Run run;
  EventQueue::append(run, -5, /*key=*/9, /*env=*/3, /*dst=*/2);
  queue.sort(run);
  queue.adopt(run);
  EXPECT_TRUE(run.entries.empty());
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.run_slots(), 0u);
  const Event ev = queue.pop();
  EXPECT_EQ(ev.at, -5);
  EXPECT_EQ(ev.seq, 9u);
  EXPECT_EQ(std::get<MessageDelivery>(ev.body).env, 3u);
  EXPECT_EQ(std::get<MessageDelivery>(ev.body).dst, 2u);
  EXPECT_EQ(queue.total_scheduled(), 0u);  // caller-chosen key: none drawn
}

// Long runs are radix-sorted on time, which keeps append order (ascending
// keys) at equal times. Checked whatever the spread: one to six digit
// passes, odd and even counts.
TEST(EventQueueTest, LongRunsPopInTimeThenKeyOrder) {
  Rng rng{31};
  constexpr std::uint64_t kOne = 1;
  for (const std::uint64_t spread :
       {kOne, kOne << 3, kOne << 11, kOne << 20, kOne << 30, kOne << 62}) {
    SCOPED_TRACE(spread);
    EventQueue queue;
    EventQueue::Run run;
    std::vector<std::pair<Time, std::uint64_t>> reference;
    for (std::uint64_t key = 1000; key < 1300; ++key) {
      // Few distinct times: ties everywhere.
      const Time at = static_cast<Time>(rng.next_below(4) * (spread / 4)) -
                      static_cast<Time>(spread / 2);
      EventQueue::append(run, at, key, /*env=*/1, /*dst=*/0);
      reference.emplace_back(at, key);
    }
    queue.sort(run);
    queue.adopt(run);
    std::sort(reference.begin(), reference.end());
    for (const auto& [at, key] : reference) {
      const Event ev = queue.pop();
      ASSERT_EQ(ev.at, at);
      ASSERT_EQ(ev.seq, key);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueueTest, RunSlotsAreRecycled) {
  EventQueue queue;
  EventQueue::Run run;
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t env = 0; env < 4; ++env) {
      for (NodeId dst = 0; dst < 8; ++dst) {
        EventQueue::append(run, static_cast<Time>(round * 100 + dst),
                           queue.draw_seq(), env, dst);
      }
      queue.sort(run);
      queue.adopt(run);
    }
    EXPECT_EQ(queue.size(), 32u);
    while (!queue.empty()) (void)queue.pop();
  }
  EXPECT_EQ(queue.total_scheduled(), 96u);
  EXPECT_EQ(queue.run_slots(), 4u);  // the first round's slots, reused
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
  Time at = 0;
  std::uint64_t seq = 0;
  bool timer = false;
  std::uint32_t env = 0;
  NodeId dst = kNoNode;
  TimerId id = 0;
};

// Property: a random mix of broadcast runs keyed by insertion order (empty
// ones, ones with every copy but one dropped, ones with corrupted copies
// pushed as runs of one mid-fan-out), runs under keys of their own that
// skip keys (the lane engine's runs for another lane), single deliveries,
// timers and cancellations pops in exactly the (at, seq) order of a
// reference sort, and size() == queued deliveries + pending_timer_count()
// + tombstone_count() holds between every pop and its dispatch.
TEST_P(EventQueuePropertyTest, RunsSinglesAndTimersPopInKeyOrder) {
  Rng rng{GetParam() ^ 0x7a11};
  EventQueue queue;
  std::vector<Pending> pending;
  std::size_t deliveries = 0;
  std::uint32_t next_env = 1;
  TimerId next_timer = 1;
  std::vector<TimerId> armed;
  EventQueue::Run run;  // reused, so adopt() hands blocks back and forth
  std::uint64_t sub_key = std::uint64_t{1} << 40;
  Time clock = 0;
  const auto later = [&] {
    return clock + static_cast<Time>(rng.next_below(40));
  };
  const auto pop_and_check = [&] {
    const Event ev = queue.pop();
    const auto it = std::min_element(
        pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
          return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
    ASSERT_NE(it, pending.end());
    ASSERT_EQ(ev.at, it->at);
    ASSERT_EQ(ev.seq, it->seq);
    if (it->timer) {
      ASSERT_EQ(std::get<TimerFire>(ev.body).timer, it->id);
    } else {
      const auto& d = std::get<MessageDelivery>(ev.body);
      ASSERT_EQ(d.env, it->env);
      ASSERT_EQ(d.dst, it->dst);
      --deliveries;
    }
    pending.erase(it);
    // Between the pop and its dispatch.
    ASSERT_EQ(queue.size(), deliveries + queue.pending_timer_count() +
                                queue.tombstone_count());
    if (const auto* fire = std::get_if<TimerFire>(&ev.body)) {
      (void)queue.consume_cancellation(fire->timer);
    }
    clock = ev.at;
  };

  for (int round = 0; round < 1500; ++round) {
    switch (rng.next_below(5)) {
      case 0: {  // a broadcast fan-out
        const std::uint32_t env = next_env++;
        // Mostly small fan-outs; some long enough for the radix sort.
        const auto copies = static_cast<NodeId>(rng.next_below(5) == 0
                                                    ? 48 + rng.next_below(80)
                                                    : rng.next_below(12));
        const std::uint64_t mode = rng.next_below(3);
        const auto kept = static_cast<NodeId>(rng.next_below(copies + 1));
        for (NodeId dst = 0; dst < copies; ++dst) {
          if (mode == 1 && dst != kept) continue;  // all but one dropped
          if (mode == 2 && rng.next_below(3) == 0) continue;  // random drops
          const Time at = later();
          if (rng.next_below(8) == 0) {  // corrupted: a run of one
            const std::uint32_t own = next_env++;
            pending.push_back({at, queue.push(at, MessageDelivery{own, dst}),
                               false, own, dst, 0});
          } else {
            const std::uint64_t seq = queue.draw_seq();
            EventQueue::append(run, at, seq, env, dst);
            pending.push_back({at, seq, false, env, dst, 0});
          }
          ++deliveries;
        }
        queue.sort(run);
        queue.adopt(run);
        break;
      }
      case 1: {  // a unicast
        const Time at = later();
        const std::uint32_t env = next_env++;
        const auto dst = static_cast<NodeId>(rng.next_below(16));
        const std::uint64_t seq = queue.push(at, MessageDelivery{env, dst});
        pending.push_back({at, seq, false, env, dst, 0});
        ++deliveries;
        break;
      }
      case 2: {  // a timer
        const Time at = later();
        const TimerId id = next_timer++;
        pending.push_back(
            {at, queue.push(at, TimerFire{TimerOwner::kNode, 0, id, 0}), true,
             0, kNoNode, id});
        armed.push_back(id);
        break;
      }
      case 3: {  // a broadcast run built by another lane
        const std::uint32_t env = next_env++;
        const auto copies = static_cast<NodeId>(
            rng.next_below(4) == 0 ? 64 + rng.next_below(80)
                                   : rng.next_below(8));
        for (NodeId dst = 0; dst < copies; ++dst) {
          const std::uint64_t key = sub_key++;
          // Copies for other lanes, and dropped ones, skip a key.
          if (rng.next_below(3) == 0) continue;
          const Time at = later();
          EventQueue::append(run, at, key, env, dst);
          pending.push_back({at, key, false, env, dst, 0});
          ++deliveries;
        }
        queue.sort(run);
        queue.adopt(run);
        ASSERT_TRUE(run.entries.empty());
        break;
      }
      default:  // cancel an armed timer, which may have fired already
        if (!armed.empty()) {
          const std::size_t i = rng.next_below(armed.size());
          (void)queue.cancel_timer(armed[i]);
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
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueuePropertyTest,
                         ::testing::Values(1, 7, 99, 1234));

}  // namespace
}  // namespace bftsim
