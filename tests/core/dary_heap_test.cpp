// Unit and property tests for the flat 4-ary min-heap backing EventQueue.
#include "core/dary_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/event.hpp"

namespace bftsim {
namespace {

TEST(DaryHeapTest, StartsEmpty) {
  DaryHeap<int> heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
}

TEST(DaryHeapTest, PopsAscending) {
  DaryHeap<int> heap;
  for (const int v : {5, 1, 4, 1, 5, 9, 2, 6}) heap.push(v);
  std::vector<int> popped;
  while (!heap.empty()) popped.push_back(heap.pop());
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(popped.size(), 8u);
}

TEST(DaryHeapTest, TopMatchesNextPop) {
  DaryHeap<int> heap;
  for (const int v : {42, 7, 19, 3, 88}) heap.push(v);
  while (!heap.empty()) {
    const int expected = heap.top();
    EXPECT_EQ(heap.pop(), expected);
  }
}

TEST(DaryHeapTest, ReserveSetsCapacityWithoutChangingSize) {
  DaryHeap<int> heap;
  heap.reserve(1024);
  EXPECT_GE(heap.capacity(), 1024u);
  EXPECT_TRUE(heap.empty());
  heap.push(1);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(DaryHeapTest, ClearEmptiesTheHeap) {
  DaryHeap<int> heap;
  for (int i = 0; i < 10; ++i) heap.push(i);
  heap.clear();
  EXPECT_TRUE(heap.empty());
  heap.push(3);
  EXPECT_EQ(heap.pop(), 3);
}

// Satellite 1: pop() must move the body out, never copy it — event bodies
// carry shared_ptr payloads whose refcounts the hot loop must not churn.
// A move-only element type makes any accidental copy a compile error, and
// the interleaved push/pop churn exercises every sift path under it.
TEST(DaryHeapTest, WorksWithMoveOnlyElements) {
  struct MoveOnlyLess {
    bool operator()(const std::unique_ptr<int>& a,
                    const std::unique_ptr<int>& b) const {
      return *a < *b;
    }
  };
  DaryHeap<std::unique_ptr<int>, 4, MoveOnlyLess> heap;
  std::mt19937_64 rng(7);
  std::vector<int> expected;
  for (int i = 0; i < 200; ++i) {
    const int v = static_cast<int>(rng() % 1000);
    expected.push_back(v);
    heap.push(std::make_unique<int>(v));
    if (i % 3 == 2) {
      std::unique_ptr<int> out = heap.pop();
      auto it = std::min_element(expected.begin(), expected.end());
      EXPECT_EQ(*out, *it);
      expected.erase(it);
    }
  }
  std::sort(expected.begin(), expected.end());
  for (const int v : expected) EXPECT_EQ(*heap.pop(), v);
  EXPECT_TRUE(heap.empty());
}

// Property: over 10k randomized events with heavy timestamp ties, the pop
// sequence equals the (time, seq) sorted order — the heap layout must be
// unobservable. This is the contract that lets the engine swap heap
// implementations without changing simulation results.
TEST(DaryHeapProperty, TenThousandRandomEventsPopSorted) {
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL, 1234ULL}) {
    DaryHeap<Event, 4, Earlier> heap;
    std::mt19937_64 rng(seed);
    std::vector<std::pair<Time, std::uint64_t>> reference;
    for (std::uint64_t seq = 0; seq < 10'000; ++seq) {
      // Only 64 distinct timestamps, so ties are everywhere.
      const Time at = static_cast<Time>(rng() % 64);
      reference.emplace_back(at, seq);
      heap.push(Event{at, seq, TimerFire{}});
    }
    std::sort(reference.begin(), reference.end());
    for (const auto& [at, seq] : reference) {
      ASSERT_FALSE(heap.empty());
      const Event ev = heap.pop();
      ASSERT_EQ(ev.at, at) << "seed " << seed;
      ASSERT_EQ(ev.seq, seq) << "seed " << seed;
    }
    EXPECT_TRUE(heap.empty());
  }
}

// Same property under interleaved push/pop (the simulator's actual access
// pattern: pops constantly interleave with pushes of later events).
TEST(DaryHeapProperty, InterleavedChurnMatchesReference) {
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };
  DaryHeap<Event, 4, Earlier> heap;
  std::mt19937_64 rng(42);
  std::vector<std::pair<Time, std::uint64_t>> pending;
  std::uint64_t seq = 0;
  Time clock = 0;
  for (int round = 0; round < 5'000; ++round) {
    // Push 0-3 events at or after the current clock, then pop one.
    const int pushes = static_cast<int>(rng() % 4);
    for (int i = 0; i < pushes; ++i) {
      const Time at = clock + static_cast<Time>(rng() % 16);
      pending.emplace_back(at, seq);
      heap.push(Event{at, seq, TimerFire{}});
      ++seq;
    }
    if (heap.empty()) continue;
    auto it = std::min_element(pending.begin(), pending.end());
    const Event ev = heap.pop();
    ASSERT_EQ(ev.at, it->first);
    ASSERT_EQ(ev.seq, it->second);
    clock = ev.at;
    pending.erase(it);
  }
}

// A Less exposing key() takes sift_down's keyed path; the pop order must
// still be exactly the keys' order, negative times and ties included.
TEST(DaryHeapProperty, KeyedLessPopsInKeyOrder) {
  struct KeyedEarlier {
    static std::pair<Time, std::uint64_t> key(const Event& e) noexcept {
      return {e.at, e.seq};
    }
    bool operator()(const Event& a, const Event& b) const noexcept {
      return key(a) < key(b);
    }
  };
  DaryHeap<Event, 4, KeyedEarlier> heap;
  std::mt19937_64 rng(5);
  std::vector<std::pair<Time, std::uint64_t>> reference;
  for (std::uint64_t seq = 0; seq < 5'000; ++seq) {
    const Time at = static_cast<Time>(rng() % 64) - 32;
    reference.emplace_back(at, seq);
    heap.push(Event{at, seq, TimerFire{}});
  }
  std::sort(reference.begin(), reference.end());
  for (const auto& [at, seq] : reference) {
    const Event ev = heap.pop();
    ASSERT_EQ(ev.at, at);
    ASSERT_EQ(ev.seq, seq);
  }
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace bftsim
