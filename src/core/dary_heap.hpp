// A d-ary min-heap over a flat vector.
//
// The simulator's event queue is the single hottest data structure: every
// scheduled message and timer passes through one push and one pop. A 4-ary
// layout halves the tree depth of a binary heap (fewer cache lines touched
// per sift), the flat vector recycles its capacity across the whole run
// (no per-event allocation once warm), and pop() moves the root out
// instead of copying it — for event bodies holding shared_ptr payloads the
// classic top()-then-pop() double-handles every refcount.
//
// Determinism: for a strict-weak ordering whose keys are unique (the event
// queue orders by (time, seq) with seq unique), the pop sequence is the
// sorted order regardless of the heap's internal layout, so replacing the
// heap implementation cannot change simulation results.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace bftsim {

/// Min-heap: `Less(a, b)` true means `a` pops before `b`. A `Less` may also
/// expose `static key(const T&)` returning values whose `<` is exactly its
/// order; sift_down then compares keys (see there).
template <typename T, unsigned Arity = 4, typename Less = std::less<T>>
class DaryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  DaryHeap() = default;
  explicit DaryHeap(Less less) : less_(std::move(less)) {}

  void reserve(std::size_t n) { slots_.reserve(n); }

  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.capacity(); }

  /// The minimum element. Precondition: !empty().
  [[nodiscard]] const T& top() const noexcept { return slots_.front(); }

  void push(T value) {
    slots_.push_back(std::move(value));
    sift_up(slots_.size() - 1);
  }

  template <typename... Args>
  void emplace(Args&&... args) {
    slots_.emplace_back(std::forward<Args>(args)...);
    sift_up(slots_.size() - 1);
  }

  /// Removes and returns the minimum element by move. Precondition: !empty().
  [[nodiscard]] T pop() {
    T out = std::move(slots_.front());
    if (slots_.size() > 1) {
      slots_.front() = std::move(slots_.back());
      slots_.pop_back();
      sift_down(0);
    } else {
      slots_.pop_back();
    }
    return out;
  }

  /// Replaces the minimum element with `value` and restores heap order
  /// with one sift-down (the root has no parent, so any value is valid):
  /// a merge cursor advancing along a sorted run pays for one sift where
  /// a pop followed by a push pays for two. Precondition: !empty().
  void replace_top(T value) {
    slots_.front() = std::move(value);
    sift_down(0);
  }

  void clear() noexcept { slots_.clear(); }

 private:
  /// Bubbles the element at `index` toward the root ("hole" technique: the
  /// element is held aside and parents shift down, one move per level
  /// instead of a three-move swap).
  void sift_up(std::size_t index) {
    T value = std::move(slots_[index]);
    while (index > 0) {
      const std::size_t parent = (index - 1) / Arity;
      if (!less_(value, slots_[parent])) break;
      slots_[index] = std::move(slots_[parent]);
      index = parent;
    }
    slots_[index] = std::move(value);
  }

  /// Sifts the element at `index` down into its position (hole technique).
  void sift_down(std::size_t index) {
    T value = std::move(slots_[index]);
    const std::size_t count = slots_.size();
    for (;;) {
      const std::size_t first_child = index * Arity + 1;
      if (first_child >= count) break;
      const std::size_t last_child =
          first_child + Arity <= count ? first_child + Arity : count;
      std::size_t best = first_child;
      if constexpr (requires(const T& t) { Less::key(t); }) {
        // Keyed order: carry the best child's key in registers and select
        // with conditional moves. A compare-and-branch here mispredicts
        // about half the time on random keys, and the compiler's choice
        // between the two forms otherwise depends on the inlining context.
        // Without a branch to speculate on, the next level's loads wait for
        // this level's selection, so a heap that outgrows the cache has its
        // grandchildren prefetched; it would otherwise pay one serialized
        // miss per level.
        if (count > kPrefetchFrom) {
          for (std::size_t child = first_child; child < last_child; ++child) {
            const std::size_t grandchild = child * Arity + 1;
            if (grandchild < count) __builtin_prefetch(&slots_[grandchild]);
          }
        }
        auto best_key = Less::key(slots_[first_child]);
        for (std::size_t child = first_child + 1; child < last_child; ++child) {
          const auto key = Less::key(slots_[child]);
          const bool earlier = key < best_key;
          best_key = earlier ? key : best_key;
          best = earlier ? child : best;
        }
        if (!(best_key < Less::key(value))) break;
      } else {
        for (std::size_t child = first_child + 1; child < last_child; ++child) {
          if (less_(slots_[child], slots_[best])) best = child;
        }
        if (!less_(slots_[best], value)) break;
      }
      slots_[index] = std::move(slots_[best]);
      index = best;
    }
    slots_[index] = std::move(value);
  }

  /// Heap size from which sift_down prefetches: about 256 KiB, the size
  /// of a private L2 slice.
  static constexpr std::size_t kPrefetchFrom =
      (std::size_t{1} << 18) / sizeof(T);

  std::vector<T> slots_;
  [[no_unique_address]] Less less_;
};

}  // namespace bftsim
