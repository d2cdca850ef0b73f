// Unit and property tests for the flat 4-ary min-heap backing EventQueue.
#include "core/dary_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <tuple>
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

TEST(DaryHeapTest, ReplaceTopKeepsHeapOrder) {
  DaryHeap<int> heap;
  for (const int v : {5, 1, 9, 3, 7}) heap.push(v);
  heap.replace_top(8);  // 1 -> 8
  EXPECT_EQ(heap.size(), 5u);
  EXPECT_EQ(heap.top(), 3);
  heap.replace_top(0);  // smaller than everything: stays on top
  EXPECT_EQ(heap.top(), 0);
  for (const int v : {0, 5, 7, 8, 9}) EXPECT_EQ(heap.pop(), v);
  EXPECT_TRUE(heap.empty());
}

// Property: merging sorted runs through replace_top (the event queue's run
// cursors) pops exactly the sorted order of every run's elements, and
// random replacements keep the heap equal to a reference multiset.
TEST(DaryHeapProperty, ReplaceTopMergesSortedRuns) {
  std::mt19937_64 rng(11);
  std::vector<std::vector<int>> runs(40);
  std::vector<int> all;
  for (auto& run : runs) {
    run.resize(rng() % 30 + 1);
    for (int& v : run) v = static_cast<int>(rng() % 500);
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
  }
  std::sort(all.begin(), all.end());
  // A cursor is (head value, run index, position).
  using Cursor = std::tuple<int, std::size_t, std::size_t>;
  struct Earlier {
    bool operator()(const Cursor& a, const Cursor& b) const noexcept {
      return a < b;
    }
  };
  DaryHeap<Cursor, 4, Earlier> heap;
  for (std::size_t r = 0; r < runs.size(); ++r) heap.push({runs[r][0], r, 0});
  std::vector<int> merged;
  while (!heap.empty()) {
    const auto [value, r, pos] = heap.top();
    merged.push_back(value);
    if (pos + 1 < runs[r].size()) {
      heap.replace_top({runs[r][pos + 1], r, pos + 1});
    } else {
      (void)heap.pop();
    }
  }
  EXPECT_EQ(merged, all);

  DaryHeap<int> churn;
  std::vector<int> reference;
  for (int i = 0; i < 2000; ++i) {
    const int v = static_cast<int>(rng() % 1000);
    if (churn.empty() || rng() % 3 == 0) {
      churn.push(v);
      reference.push_back(v);
    } else {
      reference.erase(std::min_element(reference.begin(), reference.end()));
      churn.replace_top(v);
      reference.push_back(v);
    }
    ASSERT_EQ(churn.top(),
              *std::min_element(reference.begin(), reference.end()));
  }
  std::sort(reference.begin(), reference.end());
  for (const int v : reference) EXPECT_EQ(churn.pop(), v);
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
