// Deterministic windowed-parallel execution of a single run.
//
// The serial controller processes one global event queue. This driver
// partitions the nodes across `engine.intra_jobs` lanes (node id mod lane
// count), gives each lane its own event queue, arena and envelope store, and
// executes bounded time windows [W0, W1) concurrently — a conservative
// parallel discrete-event scheme in the Chandy–Misra tradition, with the
// lookahead derived from the network model's minimum delay:
//
//   every cross-node message generated at time g is delivered at or after
//   g + lookahead, and W1 - W0 <= lookahead, so an event generated during
//   a window for *another* lane always lands at or after W1 — the next
//   barrier publishes it before any lane advances past W1. Within a lane,
//   execution is plain sequential DES over a set of events that is fully
//   known at the window start.
//
// Determinism across lane counts: every scheduled artifact carries an
// explicit ordering key ((origin node + 1) << 40 | per-origin counter)
// instead of the serial queue's global insertion sequence. A node's own
// event subsequence — and therefore its state trajectory, its RNG draws
// and the keys it assigns — depends only on that node's inbound events,
// which are identical for every partitioning. Run products (trace records,
// decisions, view records) are buffered per lane and merged at each
// barrier in (time, key) order, so RunResult is bit-identical for every
// intra_jobs value, 1 included.
//
// The per-event work itself is the controller's: each lane (sim/lane.hpp)
// runs Controller::dispatch and the one send/deliver/timer path, in the
// lane mode the controller selects for the run. That mode's one semantic
// divergence from the serial engine: a copy's network delay and
// corruption coin are pure functions of (seed, message id), not draws
// from one shared stream (whose order would depend on the interleaving).
// Windowed runs therefore have their own goldens;
// `engine.intra_jobs = 1` with `engine.rng = "per_node"` is the one-lane
// baseline those goldens pin. This driver holds only the window logic:
// the lookahead, the lane partition, the barrier loop and the merge. Fault
// transitions (applied at W0 by the controller's routine, before any event
// at W0) and the termination count are the controller's, shared with the
// serial loop. See docs/PARALLELISM.md for the full argument.
#pragma once

#include <cstdint>
#include <memory>

#include "core/config.hpp"
#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "sim/lane.hpp"
#include "sim/result.hpp"

namespace bftsim {

class Controller;

/// The largest safe window width for `cfg`, in Time units: the infimum of
/// the network-delay distribution (after clamping and the topology's
/// cross-region transformation), minus the maximum configured clock skew
/// as a conservative safety margin. Zero means no parallel window exists
/// (e.g. a constant-0 delay model) and the driver self-degrades to one
/// lane. Free function so the window math is unit-testable in isolation.
[[nodiscard]] Time compute_lookahead(const SimConfig& cfg) noexcept;

/// The lane count a windowed run actually uses: intra_jobs clamped to the
/// node count, forced to 1 when no safe lookahead exists.
[[nodiscard]] std::uint32_t effective_lanes(const SimConfig& cfg) noexcept;

/// Drives one windowed-parallel run over a Controller's state. Constructed
/// by Controller::run() when the run takes the lane mode; replaces the
/// controller's serial lane with one lane per partition.
class WindowedEngine {
 public:
  explicit WindowedEngine(Controller& c);
  WindowedEngine(const WindowedEngine&) = delete;
  WindowedEngine& operator=(const WindowedEngine&) = delete;
  ~WindowedEngine();

  /// Runs the simulation to termination (Controller::run calls it once).
  [[nodiscard]] RunResult run();

 private:
  void run_window(Lane& ln, Time w1, std::uint64_t event_cap);
  /// Expands and interns what the lanes posted for `ln` (barrier step).
  void receive(Lane& ln);
  /// Drains outboxes and merges window products into the controller's
  /// metrics/sink, settling decisions in merged order; returns false when
  /// the event budget is exhausted.
  [[nodiscard]] bool merge_window();

  /// A window runs its lanes inline on the driver thread, not on the
  /// pool, when the window before it did less work than this, counting
  /// each event processed and each message copy sent: below it, waking the
  /// pool and meeting at the barrier costs more than the lanes' work.
  /// Short lookaheads (a 1 ms `min_ms` clamp) cut linear protocols into
  /// thousands of windows of a few dozen events each; copies count because
  /// a window of a dozen deliveries that each answer with an n-copy
  /// broadcast is heavy; the barrier after it expands on the pool too. The
  /// rule reads counters, never the clock, and cannot change results.
  static constexpr std::uint64_t kInlineWindowWork = 256;

  Controller& c_;
  std::uint32_t lanes_n_ = 1;
  Time lookahead_ = 0;
  std::uint64_t window_work_ = 0;    ///< last window: events + copies sent
  std::unique_ptr<ThreadPool> pool_;  ///< non-null only when lanes_n_ > 1
};

}  // namespace bftsim
