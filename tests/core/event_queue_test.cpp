#include "core/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueuePropertyTest,
                         ::testing::Values(1, 7, 99, 1234));

}  // namespace
}  // namespace bftsim
