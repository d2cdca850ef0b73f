// One execution lane of the controller's event path.
//
// Both engines run the same per-event code (Controller::dispatch and the
// send/deliver/timer paths it calls) against a Lane: the serial engine owns
// exactly one, the windowed-parallel driver (sim/windowed.hpp) one per
// partition of the nodes. A lane holds everything that path writes while
// an event executes: the clock, the event queue (with its timer ledger),
// the envelope store its sends intern into, the key of the event being
// dispatched, the metrics target, buffered run products, the cost-model
// ledger, cross-lane outboxes and a profile breakdown.
//
// The run's mode decides how the shared path uses a lane (see
// docs/PARALLELISM.md): the serial engine orders events by the queue's
// insertion sequence and writes products straight into the run's metrics
// and trace sink; the lane engine orders by per-origin keys and buffers
// products here until the window barrier merges them. A lane draws, queues
// and interns every copy it delivers, from outboxes at the barrier.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/arena.hpp"
#include "core/event.hpp"
#include "core/event_queue.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "net/envelope.hpp"
#include "obs/profile.hpp"

namespace bftsim {

/// An item stamped with the time and ordering key it was produced under:
/// run products buffered during a window (merged at the barrier in (at,
/// key) order) and deliveries bound for another lane.
template <typename T>
struct Keyed {
  Time at = 0;
  std::uint64_t key = 0;
  T item;
};

/// A broadcast as its sender left it (Controller::fan_out): the payload,
/// the id of position 0, the run head (each lane sets its own envelope),
/// the signing cost and the dropped positions, ascending.
struct FanOut {
  PayloadPtr payload;
  std::uint64_t base_id = 0;
  EventQueue::RunHead head;
  Time extra = 0;
  std::vector<std::uint32_t> dropped;
};

struct Lane {
  std::uint32_t id = 0;
  Time now = 0;
  EventQueue queue;
  EnvelopeStore store;
  Arena* arena = nullptr;
  /// Where counters go: the run's metrics on the serial engine, `delta`
  /// (absorbed at the barrier) on the lane engine.
  Metrics* metrics = nullptr;
  Metrics delta;
  std::uint64_t cur_key = 0;  ///< key of the event being dispatched
  TimerId next_timer_id = 1;  ///< dense per lane: indexes queue's ledger
  std::vector<Keyed<TraceRecord>> trace;
  std::vector<Keyed<Decision>> decisions;
  std::vector<Keyed<ViewRecord>> views;
  /// Cost model: deliveries whose verify cost this lane already charged.
  std::unordered_set<std::uint64_t> cpu_charged;
  /// Cross-lane sends buffered until the barrier, indexed by dest lane:
  /// unicast copies and broadcast fan-outs, interned and expanded there.
  std::vector<std::vector<Keyed<Message>>> outbox;
  std::vector<std::vector<FanOut>> fan_outs;
  /// The run an expansion gathers, in position order (reused).
  std::vector<RunEntry> run_build;
  obs::ProfileBreakdown profile;  ///< populated only under BFTSIM_PROFILING
};

}  // namespace bftsim
