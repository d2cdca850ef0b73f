// A chunked bump (arena / slab) allocator for run-scoped allocations.
//
// One simulation run allocates hundreds of thousands of small, immutable
// objects — message payloads above all. A general-purpose heap pays
// per-object malloc/free and scatters those objects across memory; the
// arena instead hands out pointers by bumping a cursor through large
// chunks, so allocation is a compare and an add, objects allocated
// together sit together (the broadcast fan-out reads them together), and
// the whole population is released wholesale by destroying (or
// reset()-ing) the arena.
//
// Small blocks are recycled. acquire()/release() (the path ArenaAllocator
// takes, so every payload and its allocate_shared control block) round a
// request up to a 16-byte size class and keep released blocks on one
// LIFO free list per class, which acquire() pops before it bumps. A run's
// resident payload memory therefore follows what is in flight, not how
// long the run is. Blocks above kMaxRecycledBytes or aligned above
// kClassBytes, and raw allocate() users (e.g. certificate signer bodies),
// stay bump-only. Nothing may order or hash by a recycled block's address.
//
// The arena does not run destructors: it is a memory allocator, not an
// object pool. Users that need destruction (e.g. std::allocate_shared
// control blocks) still get it — the shared_ptr machinery invokes the
// destructor as usual and then deallocate()s the block.
//
// Not thread-safe by design: an arena belongs to one run (cross-run
// parallelism gives each run its own controller and arenas), or to one
// lane of a windowed-parallel run. The lane invariant: a block goes back
// on a free list only on the thread of the lane that owns its arena, or in
// a serial context. A lane marks its window with an Arena::Home scope;
// a block of another arena released inside it (a payload whose last
// reference a delivering lane dropped) is parked on the home arena and
// handed to its owner by return_foreign() at the window barrier.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace bftsim {

class Arena {
 public:
  /// Default size of the first chunk. Subsequent chunks double (capped),
  /// so a run that outgrows the default pays O(log n) chunk allocations.
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;
  /// Chunk growth stops doubling here; larger demands get exact-fit chunks.
  static constexpr std::size_t kMaxChunkBytes = 8 * 1024 * 1024;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : first_chunk_bytes_(first_chunk_bytes == 0 ? kDefaultChunkBytes
                                                  : first_chunk_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` bytes aligned to `align` (a power of two). Never
  /// returns nullptr: growth allocates a new chunk, a request larger than
  /// the chunk cap gets its own exact-fit chunk, and allocation failure
  /// throws std::bad_alloc like operator new.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    std::uintptr_t p = align_up(cursor_, align);
    if (p + bytes > limit_) {
      grow(bytes, align);
      p = align_up(cursor_, align);
    }
    cursor_ = p + bytes;
    count_allocated(bytes);
    return reinterpret_cast<void*>(p);
  }

  /// Size classes of the recycling path: kClassBytes steps up to
  /// kMaxRecycledBytes, which covers a payload plus its control block.
  /// Larger or more strictly aligned blocks are never recycled.
  static constexpr std::size_t kClassBytes = 16;
  static constexpr std::size_t kMaxRecycledBytes = 512;

  /// allocate() for blocks that may come back through release(). A
  /// recyclable request takes its size class's most recently released
  /// block, or else bumps a kClassBytes-aligned block of the class size.
  void* acquire(std::size_t bytes, std::size_t align) {
    if (!recyclable(bytes, align)) return allocate(bytes, align);
    const std::size_t cls = class_of(bytes);
    FreeBlock* block = free_[cls];
    if (block == nullptr) return allocate(class_size(cls), kClassBytes);
    free_[cls] = block->next;
    count_allocated(class_size(cls));
    return block;
  }

  /// Gives back a block acquire()d from this arena with the same `bytes`
  /// and `align`. A recyclable block joins its class's free list; inside
  /// another arena's Home scope it is parked there for return_foreign()
  /// instead. Other blocks stay put until reset() or destruction.
  void release(void* p, std::size_t bytes, std::size_t align) noexcept {
    if (!recyclable(bytes, align)) return;
    const std::size_t cls = class_of(bytes);
    if (home_ != nullptr && home_ != this) {
      home_->foreign_[cls] = ::new (p) FreeBlock{home_->foreign_[cls], this};
    } else {
      push_free(p, cls);
    }
  }

  /// Hands every block parked here by release() back to the free list of
  /// the arena it came from. Serial context only (a window barrier).
  void return_foreign() noexcept {
    for (std::size_t cls = 0; cls < kClassCount; ++cls) {
      while (FreeBlock* block = foreign_[cls]) {
        foreign_[cls] = block->next;
        block->owner->push_free(block, cls);
      }
    }
  }

  /// Makes `arena` the calling thread's home for the scope's lifetime:
  /// the thread is running the lane that owns it. Restores the previous
  /// home on exit.
  class Home {
   public:
    explicit Home(Arena& arena) noexcept : prev_(std::exchange(home_, &arena)) {}
    ~Home() { home_ = prev_; }
    Home(const Home&) = delete;
    Home& operator=(const Home&) = delete;

   private:
    Arena* prev_;
  };

  /// Rewinds the arena to empty, keeping every chunk it already owns for
  /// reuse: a reset arena replays an identical allocation sequence at
  /// identical addresses, which keeps run-over-run behavior deterministic
  /// and allocation-free after the first run. Empties both block lists.
  /// Does not run destructors — callers must not reset while arena-backed
  /// objects are still alive.
  void reset() noexcept {
    bytes_allocated_ = 0;
    free_.fill(nullptr);
    foreign_.fill(nullptr);
    next_chunk_ = 0;
    if (chunks_.empty()) {
      cursor_ = limit_ = 0;
    } else {
      cursor_ = reinterpret_cast<std::uintptr_t>(chunks_[0].data.get());
      limit_ = cursor_ + chunks_[0].size;
      next_chunk_ = 1;
    }
  }

  /// Live bytes: handed out since construction / the last reset() and not
  /// back on a free list (excludes alignment padding).
  [[nodiscard]] std::size_t bytes_allocated() const noexcept {
    return bytes_allocated_;
  }
  /// Total bytes of chunk capacity owned by the arena.
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  /// Largest bytes_allocated() ever observed (survives reset()).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  [[nodiscard]] static std::uintptr_t align_up(std::uintptr_t p,
                                               std::size_t align) noexcept {
    return (p + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
  }

  static constexpr std::size_t kClassCount = kMaxRecycledBytes / kClassBytes;

  /// A released block while it sits on a list (every class holds one).
  struct FreeBlock {
    FreeBlock* next;
    Arena* owner;  ///< the arena the block belongs to
  };

  [[nodiscard]] static constexpr bool recyclable(std::size_t bytes,
                                                 std::size_t align) noexcept {
    return bytes <= kMaxRecycledBytes && align <= kClassBytes;
  }
  [[nodiscard]] static constexpr std::size_t class_of(std::size_t bytes) noexcept {
    return bytes == 0 ? 0 : (bytes - 1) / kClassBytes;
  }
  [[nodiscard]] static constexpr std::size_t class_size(std::size_t cls) noexcept {
    return (cls + 1) * kClassBytes;
  }

  void count_allocated(std::size_t bytes) noexcept {
    bytes_allocated_ += bytes;
    if (bytes_allocated_ > high_water_) high_water_ = bytes_allocated_;
  }

  void push_free(void* p, std::size_t cls) noexcept {
    free_[cls] = ::new (p) FreeBlock{free_[cls], this};
    bytes_allocated_ -= class_size(cls);
  }

  /// Makes the cursor point into a chunk with room for `bytes` @ `align`.
  /// After reset() this walks the retained chunk list before allocating,
  /// which is what makes reset-reuse deterministic and allocation-free.
  void grow(std::size_t bytes, std::size_t align) {
    const std::size_t need = bytes + align;
    while (next_chunk_ < chunks_.size()) {
      const Chunk& c = chunks_[next_chunk_++];
      if (c.size >= need) {
        cursor_ = reinterpret_cast<std::uintptr_t>(c.data.get());
        limit_ = cursor_ + c.size;
        return;
      }
    }
    std::size_t size = chunks_.empty() ? first_chunk_bytes_
                                       : std::min(chunks_.back().size * 2,
                                                  kMaxChunkBytes);
    if (size < need) size = need;
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
    next_chunk_ = chunks_.size();
    cursor_ = reinterpret_cast<std::uintptr_t>(chunks_.back().data.get());
    limit_ = cursor_ + size;
  }

  std::size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t next_chunk_ = 0;  ///< next retained chunk grow() may reuse
  std::uintptr_t cursor_ = 0;
  std::uintptr_t limit_ = 0;
  std::size_t bytes_allocated_ = 0;
  std::size_t high_water_ = 0;
  std::array<FreeBlock*, kClassCount> free_{};     ///< LIFO per size class
  std::array<FreeBlock*, kClassCount> foreign_{};  ///< other arenas' blocks
  /// The arena of the lane this thread is running, if any (see Home).
  static inline thread_local Arena* home_ = nullptr;
};

/// STL allocator adapter over an Arena, usable with std::allocate_shared
/// (payloads + their control blocks in one block each) and standard
/// containers. allocate()/deallocate() are the arena's acquire()/release():
/// small blocks are recycled through its size-class free lists, and all
/// memory returns to the system when the arena does.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->acquire(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena_->release(p, n * sizeof(T), alignof(T));
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& o) const noexcept {
    return arena_ == o.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace bftsim
