// The outcome of one simulation run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "obs/profile.hpp"
#include "obs/timeline.hpp"
#include "workload/workload_stats.hpp"

namespace bftsim {

/// Why the controller's event loop stopped. Anything other than kDecided
/// means the run did not reach its decision target: the horizon or event
/// budget acted as a watchdog, or the event queue simply drained (a
/// deadlocked protocol with no pending timers).
enum class TerminationReason : std::uint8_t {
  kDecided,       ///< every live honest node reached the decision target
  kHorizon,       ///< simulated-time horizon (max_time_ms) reached
  kEventBudget,   ///< event-count budget (max_events) exhausted
  kQueueDrained,  ///< no events left to process
};

[[nodiscard]] constexpr std::string_view to_string(TerminationReason r) noexcept {
  switch (r) {
    case TerminationReason::kDecided: return "decided";
    case TerminationReason::kHorizon: return "horizon";
    case TerminationReason::kEventBudget: return "event-budget";
    case TerminationReason::kQueueDrained: return "queue-drained";
  }
  return "?";
}

/// A structured, non-fatal deviation from the requested configuration —
/// e.g. the controller falling back to the serial engine because the run
/// carries an attack that the windowed-parallel driver cannot order
/// deterministically. Warnings never change run semantics retroactively;
/// they record a decision the engine already made deterministically.
struct RunWarning {
  std::string code;    ///< stable machine-readable tag, e.g. "engine-serial-fallback"
  std::string detail;  ///< human-readable explanation
};

/// Result of a single run, as produced by Simulation::run().
struct RunResult {
  bool terminated = false;          ///< all live honest nodes reached the target
  Time termination_time = kNoTime;  ///< when the last of them did
  TerminationReason termination_reason = TerminationReason::kQueueDrained;
  std::uint32_t decisions_target = 1;

  std::uint64_t messages_sent = 0;  ///< protocol messages transmitted
  std::uint64_t bytes_sent = 0;     ///< estimated wire bytes (§II-C)
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_injected = 0;  ///< attacker-forged messages
  std::uint64_t messages_corrupted = 0;  ///< fault-layer payload corruptions
  std::uint64_t events_processed = 0;
  std::uint64_t timers_fired = 0;

  // Attacker activity: what the configured attacker actually did to the
  // message stream. All zero on attack-free runs (the passive-attacker
  // fast path never touches these counters).
  std::uint64_t attacker_dropped = 0;    ///< messages the attacker discarded
  std::uint64_t attacker_delayed = 0;    ///< deliveries re-timed (rush/stall/hold)
  /// Messages rewritten in flight: payload replaced or src/dst rerouted.
  /// Payloads are immutable behind shared_ptr<const Payload>, so replacement
  /// and rerouting are the only modification channels the hook can see.
  std::uint64_t attacker_modified = 0;
  std::uint64_t attacker_duplicated = 0; ///< duplicate copies injected (flooding)

  // WAN gossip backend activity (net/wan/): both zero unless the run
  // selected $.net.backend = "gossip".
  std::uint64_t gossip_relayed = 0;    ///< copies forwarded by relayers
  std::uint64_t gossip_duplicates = 0; ///< received copies suppressed

  /// Request-level workload results (conservation counters, requests/sec,
  /// latency percentiles); `workload.enabled` is false unless the run
  /// selected $.workload. See workload/workload_stats.hpp.
  WorkloadStats workload;

  /// Non-fatal configuration deviations (see RunWarning); empty for runs
  /// that executed exactly as configured.
  std::vector<RunWarning> warnings;

  std::vector<Decision> decisions;  ///< every (node, time, height, value)
  std::vector<ViewRecord> views;    ///< per-node view trajectory (Fig. 9)
  std::vector<NodeId> honest;       ///< nodes live and honest at run end
  std::vector<NodeId> failstopped;  ///< nodes that never ran
  std::vector<NodeId> corrupted;    ///< nodes corrupted by the attacker

  Trace trace;  ///< full message trace when record_trace was set (memory sink)

  /// Order-sensitive fingerprint over every trace record emitted, from
  /// whichever sink the run used. Equal to trace.fingerprint() for the
  /// memory sink; the only in-RAM trace evidence for streaming sinks.
  std::uint64_t trace_fingerprint = kTraceFingerprintSeed;
  std::uint64_t trace_records = 0;  ///< records emitted through the sink

  /// Periodic engine-state samples; empty unless obs.timeline_tick_ms > 0.
  std::vector<obs::TimelineSample> timeline;
  Time timeline_tick = 0;  ///< sampling period backing `timeline` (us)

  /// Per-component hot-path time breakdown, all-zero unless the build was
  /// configured with -DBFTSIM_PROFILING=ON, plus the windowed engine's
  /// parallel/inline window counts, recorded in every build.
  obs::ProfileBreakdown profile;

  double wall_seconds = 0.0;  ///< host wall-clock cost of this run

  /// Latency (ms) until termination, or negative if never terminated.
  [[nodiscard]] double latency_ms() const noexcept {
    return termination_time == kNoTime ? -1.0 : to_ms(termination_time);
  }

  /// Average per-decision latency (ms) over the whole run — the paper's
  /// measurement for pipelined protocols (termination time / #decisions).
  [[nodiscard]] double per_decision_latency_ms() const noexcept {
    if (!terminated || decisions_target == 0) return -1.0;
    return to_ms(termination_time) / static_cast<double>(decisions_target);
  }

  /// Average per-decision message count over the whole run.
  [[nodiscard]] double per_decision_messages() const noexcept {
    if (decisions_target == 0) return 0.0;
    return static_cast<double>(messages_sent) / static_cast<double>(decisions_target);
  }

  /// Timestamp at which every node in `honest` had at least k decisions
  /// (kNoTime if some never did).
  [[nodiscard]] Time kth_completion(std::uint64_t k) const noexcept;

  /// True when no two honest nodes decided different values at any height —
  /// the safety property checked by tests.
  [[nodiscard]] bool decisions_consistent() const noexcept;

  /// Round complexity (§II-C): the highest view/round/iteration any honest
  /// node entered before termination — the theoretical-analysis metric the
  /// paper supports alongside wall time.
  [[nodiscard]] View rounds_used() const noexcept;

  /// Average per-decision wire bytes (reconstructed from per-message size
  /// estimates, as §II-C suggests).
  [[nodiscard]] double per_decision_bytes() const noexcept {
    if (decisions_target == 0) return 0.0;
    return static_cast<double>(bytes_sent) / static_cast<double>(decisions_target);
  }
};

}  // namespace bftsim
