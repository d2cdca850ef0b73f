// Runtime fault state for one run.
//
// The controller constructs a FaultInjector when the config's fault section
// is enabled, walks the planned FaultEvents with one cursor, and calls
// apply() for each before any event at its instant, counting it as one
// event and one timer firing, on both engines. Between transitions the
// injector answers the hot-path queries: is this node crashed (drop the
// delivery / defer the timer), is this link down (drop the send), should
// this send be corrupted, and how does this node's clock distort a timer
// delay.
//
// All randomness — the plan expansion, the per-send corruption coin and the
// per-node clock parameters — comes from sub-streams forked off one fault
// RNG that the controller forks off the run seed, so the whole fault
// behavior of a run is a deterministic function of (config, seed). The
// serial engine flips corruption coins from one shared stream in send
// order; the lane engine keys each coin by the copy's message id.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "faults/fault_config.hpp"
#include "faults/fault_plan.hpp"
#include "net/link_state.hpp"
#include "net/message.hpp"

namespace bftsim {

/// Payload wrapper modelling in-flight corruption: it carries the kUnknown
/// dispatch tag (so every protocol's tag switch ignores it, exactly as a
/// node would discard a message whose signature/QC fails verification) and
/// perturbs the wrapped payload's digest (so trace digests and the
/// validator see the corruption).
class CorruptedPayload final : public Payload {
 public:
  /// XORed into the original digest; any nonzero constant works, this one
  /// is recognizable in trace dumps.
  static constexpr std::uint64_t kPerturbation = 0xBADC0DEBADC0DEull;

  explicit CorruptedPayload(PayloadPtr original) noexcept
      : Payload(PayloadType::kUnknown), original_(std::move(original)) {}

  [[nodiscard]] std::string_view type() const noexcept override {
    return "corrupt";
  }
  [[nodiscard]] std::uint64_t digest() const noexcept override {
    return (original_ != nullptr ? original_->digest() : 0) ^ kPerturbation;
  }
  [[nodiscard]] std::size_t wire_size() const noexcept override {
    return original_ != nullptr ? original_->wire_size()
                                : Payload::wire_size();
  }

  [[nodiscard]] const PayloadPtr& original() const noexcept { return original_; }

 private:
  PayloadPtr original_;
};

/// Per-run fault state machine; see file comment.
class FaultInjector {
 public:
  /// `fault_rng` must be the dedicated fault stream forked off the run
  /// seed. `cfg` must already be validated against `n`.
  FaultInjector(const FaultConfig& cfg, std::uint32_t n, Rng fault_rng);

  /// The expanded, time-sorted timeline; the controller applies its prefix
  /// within the horizon in order.
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return plan_.events();
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Applies the transition at timeline position `index`.
  void apply(std::size_t index);

  [[nodiscard]] bool is_crashed(NodeId node) const noexcept {
    return crashed_[node];
  }

  /// Recovery time of a currently crashed node (kNoTime when not crashed).
  [[nodiscard]] Time recovery_time(NodeId node) const noexcept {
    return recovery_time_[node];
  }

  [[nodiscard]] bool any_link_down() const noexcept { return !links_.all_up(); }

  [[nodiscard]] bool link_down(NodeId src, NodeId dst) const noexcept {
    return links_.is_down(src, dst);
  }

  /// Flips the corruption coin of the copy with message id `id` sent at
  /// `now`: the next draw of the shared stream, or with `keyed` (the lane
  /// engine) a pure function of (seed, id) that any lane may flip at any
  /// time. The stream is drawn only inside the corruption window, so runs
  /// that never reach the window stay identical to corruption-free ones.
  [[nodiscard]] bool maybe_corrupt(Time now, std::uint64_t id, bool keyed);

  /// Applies node-local clock skew/drift to a timer delay. Identity when
  /// the clock section is disabled.
  [[nodiscard]] Time adjust_timer_delay(NodeId node, Time delay) const noexcept;

 private:
  FaultPlan plan_;
  std::vector<std::uint8_t> crashed_;
  std::vector<Time> recovery_time_;
  LinkState links_;

  CorruptionSpec corruption_;
  Time corrupt_start_ = 0;
  Time corrupt_end_ = kNoTime;  ///< kNoTime = open-ended
  Rng corrupt_rng_;
  std::uint64_t corrupt_seed_ = 0;  ///< the keyed coins' seed

  bool clock_enabled_ = false;
  std::vector<Time> clock_skew_;      ///< per-node additive skew (µs)
  std::vector<double> clock_drift_;   ///< per-node multiplicative factor
};

}  // namespace bftsim
