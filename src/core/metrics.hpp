// Performance metrics collected during a run (§II-C of the paper):
// time usage and message usage, plus per-node decision timestamps, view
// trajectories (for view-synchronization analysis, Fig. 9) and event counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "net/payload_type.hpp"

namespace bftsim {

/// One decision reported by one node.
struct Decision {
  NodeId node = kNoNode;
  Time at = 0;
  std::uint64_t height = 0;  ///< 0-based index of this node's decisions
  Value value = kBottom;
};

/// One view-entry record (node `node` entered `view` at time `at`).
struct ViewRecord {
  NodeId node = kNoNode;
  Time at = 0;
  View view = 0;
};

/// Mutable metrics sink owned by the controller.
class Metrics {
 public:
  void on_send(std::uint64_t copies = 1) noexcept { messages_sent_ += copies; }
  void on_bytes(std::uint64_t bytes) noexcept { bytes_sent_ += bytes; }
  void on_deliver() noexcept { ++messages_delivered_; }
  void on_drop() noexcept { ++messages_dropped_; }
  void on_inject() noexcept { ++messages_injected_; }
  void on_corrupt() noexcept { ++messages_corrupted_; }
  void on_timer() noexcept { ++timers_fired_; }
  void on_event() noexcept { ++events_processed_; }

  // Attacker activity counters. Only the controller's attacker hook path
  // calls these (never the passive-attacker fast path), so attack-free
  // runs pay nothing for them.
  void on_attacker_drop() noexcept { ++attacker_dropped_; }
  void on_attacker_delay() noexcept { ++attacker_delayed_; }
  void on_attacker_modify() noexcept { ++attacker_modified_; }
  void on_attacker_duplicate() noexcept { ++attacker_duplicated_; }

  // WAN gossip backend counters (net/wan/): copies forwarded by non-origin
  // relayers, and received copies suppressed as duplicates. Serial-engine
  // only, but absorbed like every other counter for uniformity.
  void on_gossip_relay() noexcept { ++gossip_relayed_; }
  void on_gossip_duplicate() noexcept { ++gossip_duplicates_; }

  /// Per-kind message counting, hot path: one flat-array increment. The
  /// branch only fires for user-defined tags above the builtin range.
  void count_type(PayloadType t, std::uint64_t copies = 1) {
    const std::size_t index = to_index(t);
    if (index >= typed_counts_.size()) [[unlikely]] {
      typed_counts_.resize(index + 1, 0);
    }
    typed_counts_[index] += copies;
  }

  /// Fallback for untagged payloads (PayloadType::kUnknown): counts under
  /// the payload's type() string. Allocates; not on the builtin hot path.
  void count_type(const std::string& type, std::uint64_t copies = 1) {
    untyped_counts_[type] += copies;
  }

  void on_decision(Decision d) { decisions_.push_back(d); }
  void on_view(ViewRecord v) { views_.push_back(v); }

  /// Adds another Metrics' counters and per-type counts into this one. The
  /// windowed-parallel driver accumulates per-lane deltas and folds them in
  /// at each window barrier (sums commute, so the result is lane-count
  /// independent). Ordered records (decisions_/views_) are deliberately NOT
  /// merged — they need deterministic ordering, which the driver provides
  /// by sorting its own product buffers before calling on_decision/on_view.
  void absorb(const Metrics& delta) {
    messages_sent_ += delta.messages_sent_;
    bytes_sent_ += delta.bytes_sent_;
    messages_delivered_ += delta.messages_delivered_;
    messages_dropped_ += delta.messages_dropped_;
    messages_injected_ += delta.messages_injected_;
    messages_corrupted_ += delta.messages_corrupted_;
    timers_fired_ += delta.timers_fired_;
    events_processed_ += delta.events_processed_;
    attacker_dropped_ += delta.attacker_dropped_;
    attacker_delayed_ += delta.attacker_delayed_;
    attacker_modified_ += delta.attacker_modified_;
    attacker_duplicated_ += delta.attacker_duplicated_;
    gossip_relayed_ += delta.gossip_relayed_;
    gossip_duplicates_ += delta.gossip_duplicates_;
    if (typed_counts_.size() < delta.typed_counts_.size()) {
      typed_counts_.resize(delta.typed_counts_.size(), 0);
    }
    for (std::size_t i = 0; i < delta.typed_counts_.size(); ++i) {
      typed_counts_[i] += delta.typed_counts_[i];
    }
    for (const auto& [type, count] : delta.untyped_counts_) {
      untyped_counts_[type] += count;
    }
  }

  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept { return messages_delivered_; }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept { return messages_dropped_; }
  [[nodiscard]] std::uint64_t messages_injected() const noexcept { return messages_injected_; }
  [[nodiscard]] std::uint64_t messages_corrupted() const noexcept { return messages_corrupted_; }
  [[nodiscard]] std::uint64_t timers_fired() const noexcept { return timers_fired_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }
  [[nodiscard]] std::uint64_t attacker_dropped() const noexcept { return attacker_dropped_; }
  [[nodiscard]] std::uint64_t attacker_delayed() const noexcept { return attacker_delayed_; }
  [[nodiscard]] std::uint64_t attacker_modified() const noexcept { return attacker_modified_; }
  [[nodiscard]] std::uint64_t attacker_duplicated() const noexcept { return attacker_duplicated_; }
  [[nodiscard]] std::uint64_t gossip_relayed() const noexcept { return gossip_relayed_; }
  [[nodiscard]] std::uint64_t gossip_duplicates() const noexcept { return gossip_duplicates_; }
  /// Per-kind send counts keyed by human-readable name, rebuilt on demand
  /// from the flat tag array (via PayloadTypeRegistry) plus the untagged
  /// fallback map. Only report/teardown code calls this.
  [[nodiscard]] std::map<std::string, std::uint64_t> per_type() const;
  [[nodiscard]] const std::vector<Decision>& decisions() const noexcept {
    return decisions_;
  }
  [[nodiscard]] const std::vector<ViewRecord>& views() const noexcept {
    return views_;
  }
  /// Move the ordered records out, leaving them empty (end of run).
  [[nodiscard]] std::vector<Decision> take_decisions() noexcept {
    return std::exchange(decisions_, {});
  }
  [[nodiscard]] std::vector<ViewRecord> take_views() noexcept {
    return std::exchange(views_, {});
  }

  /// Number of decisions reported so far by `node`.
  [[nodiscard]] std::uint64_t decision_count(NodeId node) const noexcept;

  /// Time at which every node in `nodes` had reported at least `k`
  /// decisions, or kNoTime if some node has not.
  [[nodiscard]] Time completion_time(const std::vector<NodeId>& nodes,
                                     std::uint64_t k) const noexcept;

 private:
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t messages_injected_ = 0;
  std::uint64_t messages_corrupted_ = 0;
  std::uint64_t timers_fired_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t attacker_dropped_ = 0;
  std::uint64_t attacker_delayed_ = 0;
  std::uint64_t attacker_modified_ = 0;
  std::uint64_t attacker_duplicated_ = 0;
  std::uint64_t gossip_relayed_ = 0;
  std::uint64_t gossip_duplicates_ = 0;
  /// Indexed by to_index(PayloadType); pre-sized so builtin tags never grow it.
  std::vector<std::uint64_t> typed_counts_ =
      std::vector<std::uint64_t>(to_index(PayloadType::kBuiltinSentinel), 0);
  std::map<std::string, std::uint64_t> untyped_counts_;
  std::vector<Decision> decisions_;
  std::vector<ViewRecord> views_;
};

}  // namespace bftsim
