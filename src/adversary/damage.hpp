// Damage objectives for the adversary strategy search.
//
// A fuzzing campaign asks "did any invariant break?"; the adversary search
// asks the complementary question: "how much *damage* can a strategy do
// while the invariants hold?". Damage is measured by comparing an attacked
// run against the attack-free baseline run of the same configuration (same
// protocol, n, delay model, seed — only `attack`/`attack_params` cleared):
//
//  * liveness stall      — the attacked run failed to reach its decision
//                          target (horizon / event budget / drained queue);
//  * latency degradation — decision latency relative to the baseline;
//  * view-change churn   — extra views/rounds honest nodes were forced
//                          through (the paper's view-synchronization lens);
//  * quorum near-miss    — how much of the commit certificate's sender
//                          slack (distinct vote senders above the quorum
//                          minimum at the first decide) the attack consumed;
//  * safety violation    — an oracle actually fired under attack, which
//                          dominates every other objective.
//
// The composite score is a fixed weighted sum, computed with deterministic
// double arithmetic from run products only — replaying the same two runs
// reproduces the score bit-exactly, which is what lets the search refuse
// non-reproducing candidates.
#pragma once

#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/json.hpp"
#include "sim/result.hpp"

namespace bftsim::adversary {

/// Composite-score weights (documented in docs/ADVERSARY.md).
inline constexpr double kSafetyWeight = 10'000.0;
inline constexpr double kStallWeight = 1'000.0;
inline constexpr double kLatencyWeight = 100.0;
inline constexpr double kChurnWeight = 10.0;
inline constexpr double kNearMissWeight = 25.0;

/// Damage one attacked run did relative to its attack-free baseline.
struct DamageReport {
  bool stalled = false;          ///< attacked run missed its decision target
  bool safety_violated = false;  ///< an invariant oracle fired under attack
  std::string safety_diagnosis;  ///< oracle diagnosis when safety_violated
  double latency_ratio = 0.0;    ///< attacked/baseline decision latency - 1
  double view_churn = 0.0;       ///< extra rounds entered vs baseline
  double quorum_near_miss = 0.0; ///< certificate sender slack consumed
  double score = 0.0;            ///< fixed weighted sum of the above

  /// Compact human-readable summary, e.g. "stall, churn +3" ("none" when
  /// the score is zero). Deterministically formatted.
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static DamageReport from_json(const json::Value& v,
                                              const std::string& path);
};

/// Certificate sender slack of `result`: explore::certificate_witness's
/// distinct vote senders minus the certificate minimum (nullopt with it).
[[nodiscard]] std::optional<double> quorum_slack(const SimConfig& cfg,
                                                 const RunResult& result);

/// Computes the damage report for `attacked` relative to `baseline`.
/// `attacked_cfg` must be the config that produced the attacked run (the
/// oracle check and the certificate rule need it).
[[nodiscard]] DamageReport compute_damage(const SimConfig& attacked_cfg,
                                          const RunResult& baseline,
                                          const RunResult& attacked);

/// The attack-free twin of an attacked config: same everything, with
/// `attack`/`attack_params` cleared. The baseline run every damage
/// comparison and every damage finding's replay uses.
[[nodiscard]] SimConfig baseline_of(SimConfig attacked_cfg);

}  // namespace bftsim::adversary
