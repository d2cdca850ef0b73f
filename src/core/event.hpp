// Simulation events.
//
// The simulator is a classic discrete-event system (Law, "Simulation
// Modeling and Analysis"): a priority queue of timestamped events drives a
// virtual clock. Two event kinds exist, mirroring the paper's design:
//   - message events: a node receives a message;
//   - time events:    a previously registered timer fires.
#pragma once

#include <cstdint>
#include <variant>

#include "core/types.hpp"
#include "net/message.hpp"

namespace bftsim {

/// Who registered a timer (and therefore who receives its firing). Fault
/// transitions are not timers: the run loops apply them from the fault
/// timeline's own cursor (Controller::apply_next_fault).
enum class TimerOwner : std::uint8_t { kNode, kAttacker, kSystem };

/// A message event: the envelope at store index `env` materializes into a
/// Message and is delivered to `dst`. The 8-byte handle replaces the full
/// Message the event used to carry — the payload, source, send time and id
/// live once per transmission in the controller's EnvelopeStore (a
/// broadcast's deliveries on one lane share one envelope; see
/// net/envelope.hpp). The store is the one of the lane that delivers it.
struct MessageDelivery {
  std::uint32_t env = 0;
  NodeId dst = kNoNode;
};

/// A time event: timer `timer` with user `tag` fires for its owner.
struct TimerFire {
  TimerOwner owner = TimerOwner::kNode;
  NodeId node = kNoNode;  ///< meaningful when owner == kNode
  TimerId timer = 0;
  std::uint64_t tag = 0;
};

/// The timer-firing view handed to Node / Attacker callbacks.
struct TimerEvent {
  TimerId id = 0;
  std::uint64_t tag = 0;
  Time fired_at = 0;
};

/// A simulation event as EventQueue::pop() returns it (the queue itself
/// stores a 24-byte entry per run or timer; see core/event_queue.hpp).
/// `seq` is a global monotonically increasing tie-breaker so that events
/// with equal timestamps pop in insertion order, making every run fully
/// deterministic.
struct Event {
  Time at = 0;
  std::uint64_t seq = 0;
  std::variant<MessageDelivery, TimerFire> body;
};

}  // namespace bftsim
