// Arena allocator: alignment, chunk growth, oversized requests,
// reset-reuse determinism, size-class recycling (LIFO reuse, what is never
// recycled, the cross-lane hand-back) and the STL adapter (allocate_shared
// + containers). The reset-reuse test is the load-bearing one: replaying
// an identical allocation sequence at identical addresses is what keeps
// arena-backed runs deterministic run over run.
#include "core/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace bftsim {
namespace {

bool aligned_to(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(Arena, HandsOutDistinctWritableMemory) {
  Arena arena;
  auto* a = static_cast<std::uint64_t*>(arena.allocate(sizeof(std::uint64_t)));
  auto* b = static_cast<std::uint64_t*>(arena.allocate(sizeof(std::uint64_t)));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  *a = 0x1111;
  *b = 0x2222;
  EXPECT_EQ(*a, 0x1111u);  // writes must not alias
  EXPECT_EQ(*b, 0x2222u);
}

TEST(Arena, RespectsAlignment) {
  Arena arena;
  // Interleave odd sizes with strict alignments so the bump cursor lands
  // misaligned before every aligned request.
  for (const std::size_t align : {1UL, 2UL, 4UL, 8UL, 16UL, 64UL}) {
    (void)arena.allocate(3, 1);
    void* p = arena.allocate(align * 2, align);
    EXPECT_TRUE(aligned_to(p, align)) << "align=" << align;
  }
}

TEST(Arena, ZeroByteRequestsYieldDistinctPointers) {
  Arena arena;
  void* a = arena.allocate(0);
  void* b = arena.allocate(0);
  EXPECT_NE(a, b);
}

TEST(Arena, GrowsAcrossChunks) {
  Arena arena{128};  // tiny first chunk forces growth immediately
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) {
    void* p = arena.allocate(64);
    std::memset(p, i, 64);  // every byte must be usable
    ptrs.push_back(p);
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  EXPECT_GE(arena.bytes_allocated(), 100u * 64u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(Arena, OversizedRequestGetsExactFitChunk) {
  Arena arena{64};
  const std::size_t big = Arena::kMaxChunkBytes + 1024;
  void* p = arena.allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, big);
  // A small allocation afterwards must still succeed (fresh chunk or tail).
  void* q = arena.allocate(16);
  EXPECT_NE(q, nullptr);
}

TEST(Arena, ResetReplaysIdenticalAddresses) {
  Arena arena{256};  // small chunks: the sequence spans several
  const auto run = [&] {
    std::vector<void*> ptrs;
    for (int i = 0; i < 64; ++i) {
      ptrs.push_back(arena.allocate(static_cast<std::size_t>(16 + (i % 7) * 8),
                                    i % 2 == 0 ? 8 : 16));
    }
    return ptrs;
  };
  const std::vector<void*> first = run();
  const std::size_t chunks_after_first = arena.chunk_count();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  const std::vector<void*> second = run();
  EXPECT_EQ(first, second);  // bit-identical replay, no new chunks
  EXPECT_EQ(arena.chunk_count(), chunks_after_first);
}

TEST(Arena, HighWaterSurvivesReset) {
  Arena arena;
  (void)arena.allocate(1000);
  const std::size_t hw = arena.high_water();
  EXPECT_GE(hw, 1000u);
  arena.reset();
  EXPECT_EQ(arena.high_water(), hw);
  (void)arena.allocate(10);
  EXPECT_EQ(arena.high_water(), hw);  // 10 < 1000: no new high water
}

TEST(Arena, SameClassReuseIsLifoAndAligned) {
  Arena arena;
  // 20, 24 and 32 bytes share the 17..32-byte class.
  void* a = arena.acquire(24, 8);
  void* b = arena.acquire(20, 4);
  void* c = arena.acquire(32, 16);
  for (void* p : {a, b, c}) EXPECT_TRUE(aligned_to(p, Arena::kClassBytes));
  const std::size_t live = arena.bytes_allocated();
  EXPECT_EQ(live, 3 * 32u);
  arena.release(a, 24, 8);
  arena.release(b, 20, 4);
  EXPECT_EQ(arena.bytes_allocated(), live - 2 * 32u);
  EXPECT_EQ(arena.acquire(32, 16), b);  // last released, first reused
  EXPECT_EQ(arena.acquire(17, 1), a);
  EXPECT_EQ(arena.bytes_allocated(), live);
  // Another class does not see this one's blocks.
  arena.release(c, 32, 16);
  EXPECT_NE(arena.acquire(48, 8), c);
}

TEST(Arena, OversizeAndOverAlignedBlocksAreNeverRecycled) {
  Arena arena;
  constexpr std::size_t kBig = Arena::kMaxRecycledBytes + 1;
  void* big = arena.acquire(kBig, 8);
  void* wide = arena.acquire(32, 64);
  EXPECT_TRUE(aligned_to(wide, 64));
  const std::size_t live = arena.bytes_allocated();
  arena.release(big, kBig, 8);
  arena.release(wide, 32, 64);
  EXPECT_EQ(arena.bytes_allocated(), live);  // still resident
  EXPECT_NE(arena.acquire(kBig, 8), big);
  EXPECT_NE(arena.acquire(32, 64), wide);
  // A largest-class block is recycled.
  void* top = arena.acquire(Arena::kMaxRecycledBytes, 16);
  arena.release(top, Arena::kMaxRecycledBytes, 16);
  EXPECT_EQ(arena.acquire(Arena::kMaxRecycledBytes, 16), top);
}

TEST(Arena, ResetClearsTheFreeLists) {
  Arena arena;
  void* first = arena.acquire(64, 8);
  void* second = arena.acquire(64, 8);
  arena.release(second, 64, 8);
  arena.reset();
  // With the list emptied the request bumps from the first chunk's start
  // instead of popping `second`.
  EXPECT_EQ(arena.acquire(64, 8), first);
  EXPECT_EQ(arena.acquire(64, 8), second);
}

TEST(Arena, ForeignReleasesWaitForReturnForeign) {
  Arena owner;
  Arena lane;
  void* p = owner.acquire(40, 8);
  const std::size_t live = owner.bytes_allocated();
  {
    const Arena::Home home(lane);
    owner.release(p, 40, 8);  // on another lane's thread: parked on `lane`
  }
  EXPECT_EQ(owner.bytes_allocated(), live);
  void* other = owner.acquire(40, 8);
  EXPECT_NE(other, p);
  owner.release(other, 40, 8);  // no home: straight to owner's list
  EXPECT_EQ(owner.acquire(40, 8), other);
  lane.return_foreign();
  EXPECT_EQ(owner.bytes_allocated(), live);  // `other` live again, `p` not
  EXPECT_EQ(owner.acquire(40, 8), p);
  EXPECT_EQ(lane.bytes_allocated(), 0u);
}

TEST(ArenaAllocator, WorksWithAllocateShared) {
  Arena arena;
  struct Payload {
    virtual ~Payload() = default;
    std::uint64_t a;
    std::uint64_t b;
    Payload(std::uint64_t x, std::uint64_t y) : a(x), b(y) {}
  };
  std::shared_ptr<const Payload> kept;
  {
    auto p = std::allocate_shared<Payload>(ArenaAllocator<Payload>(&arena),
                                           7, 9);
    kept = std::move(p);
  }
  EXPECT_EQ(kept->a, 7u);
  EXPECT_EQ(kept->b, 9u);
  EXPECT_GT(arena.bytes_allocated(), 0u);
  // Releasing the last reference runs the destructor and returns the
  // payload's block (control block included) to its free list.
  const Payload* old = kept.get();
  kept.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  const auto again = std::allocate_shared<Payload>(
      ArenaAllocator<Payload>(&arena), 1, 2);
  EXPECT_EQ(again.get(), old);
  EXPECT_EQ(again->a, 1u);
}

TEST(ArenaAllocator, WorksAsContainerAllocator) {
  Arena arena;
  std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[999], 999);
  EXPECT_GT(arena.bytes_allocated(), 1000u * sizeof(int));
}

TEST(ArenaAllocator, EqualityComparesArenaIdentity) {
  Arena a;
  Arena b;
  EXPECT_TRUE(ArenaAllocator<int>(&a) == ArenaAllocator<long>(&a));
  EXPECT_FALSE(ArenaAllocator<int>(&a) == ArenaAllocator<int>(&b));
}

}  // namespace
}  // namespace bftsim
