// Runtime state of the client workload generator (one per run).
//
// Client affinity keeps the generator safe under the windowed-parallel
// engine: every node owns an independent arrival stream (open loop: the
// aggregate rate split n ways off a dedicated "wl"-salted RNG fork; closed
// loop: a round-robin share of the client population), and a proposer only
// ever batches requests from its own stream. on_propose therefore touches
// exclusively per-node state and may run concurrently across lanes;
// on_decide and finalize run only in serial contexts (the serial engine's
// decide path, the windowed engine's merge barrier, and end of run).
//
// Pending requests are run-length encoded as (birth, count) groups, so a
// closed-loop population of millions of clients costs O(groups), not
// O(requests): the whole initial window is one group per node, and every
// decided batch resubmits as one group. Open-loop arrivals have distinct
// births and cost one group each, materialized lazily at propose time;
// finalize only counts the arrivals no proposal took, so a stream its node
// never proposes from costs nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "workload/proposal_batch.hpp"
#include "workload/workload_spec.hpp"
#include "workload/workload_stats.hpp"

namespace bftsim {

class WorkloadManager {
 public:
  /// `rng` is the controller's dedicated workload fork; `n` the node count.
  WorkloadManager(const WorkloadSpec& spec, std::uint32_t n, Rng rng);

  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }
  /// Closed-loop resubmission depends on decision order, so closed-loop
  /// runs must execute serially (the controller falls back with a warning).
  [[nodiscard]] bool serial_only() const noexcept { return spec_.closed(); }

  /// Called by node `node` when minting a fresh proposal for `slot`.
  /// Returns either a batch of its pending requests (value = batch digest)
  /// or, when nothing is ready, the protocol's own `fresh` value with an
  /// empty body. Lane-safe: touches only `node`'s state.
  [[nodiscard]] ProposalBatch on_propose(NodeId node, std::uint64_t slot,
                                         Value fresh, Time now);

  /// Called for every decided value, in decision order. Serial-context
  /// only (serial decide path / windowed merge barrier).
  void on_decide(Value value, Time at);

  /// Closes the books at `end` (termination time or horizon): counts
  /// arrivals the run never got to, checks conservation, computes the
  /// latency percentiles. Serial-context only; call once.
  [[nodiscard]] WorkloadStats finalize(Time end);

 private:
  /// One proposed batch; births are kept for latency recording at decide.
  struct Batch {
    Value value = kBottom;
    NodeId proposer = kNoNode;
    Time formed_at = 0;
    bool decided = false;
    std::vector<Time> births;
  };

  /// A run of `count` pending requests all born at `birth`.
  struct PendingGroup {
    Time birth = 0;
    std::uint64_t count = 0;
  };

  struct NodeState {
    Rng rng;
    Time next_arrival = 0;        ///< open loop: next stream arrival
    bool stream_started = false;  ///< open loop: first draw taken?
    std::uint64_t minted = 0;     ///< batches minted (value salt)
    std::uint64_t submitted = 0;
    std::uint64_t pending_count = 0;
    std::uint64_t empty_proposals = 0;
    std::deque<PendingGroup> pending;  ///< sorted by birth
    std::vector<Batch> batches;
    std::size_t published = 0;  ///< batches already in value_index_
  };

  /// Open loop: draws the next interarrival step (>= 1 Time unit).
  [[nodiscard]] Time next_step(NodeState& ns);
  /// Materializes open-loop arrivals with birth <= `upto` into pending.
  void advance_stream(NodeState& ns, Time upto);
  /// Indexes every not-yet-published batch by value (serial-context only).
  void publish_batches();
  void submit(NodeState& ns, Time birth, std::uint64_t count);

  WorkloadSpec spec_;
  double per_node_mean_us_ = 0.0;  ///< open loop: mean interarrival per node
  Time think_ = 0;
  Time max_wait_ = 0;
  std::vector<NodeState> nodes_;

  // Serial-context state (decide path + finalize only).
  std::unordered_map<Value, std::pair<NodeId, std::uint32_t>> value_index_;
  std::vector<double> latencies_ms_;
  std::uint64_t decided_ = 0;
  std::uint64_t duplicate_decides_ = 0;
  std::uint64_t empty_decisions_ = 0;
  std::uint64_t in_flight_ = 0;      ///< closed loop: submitted - decided
  std::uint64_t max_in_flight_ = 0;  ///< closed loop high-water mark
};

}  // namespace bftsim
