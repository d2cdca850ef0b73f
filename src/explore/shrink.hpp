// Counterexample shrinking (delta debugging over SimConfig).
//
// Given a config whose run violates an oracle, the shrinker repeatedly
// tries simpler variants — drop a fault window, shrink n, flatten the
// delay distribution to a constant, reduce the decision target, shorten
// the attack, halve the horizon — re-running each candidate
// deterministically and keeping it only when the SAME oracle still fires.
// Candidates are generated in a fixed order and the loop restarts from the
// first transformation after every acceptance (classic ddmin structure),
// so the result is a deterministic function of the input config alone.
//
// The horizon-halving transformation is skipped when shrinking liveness
// violations: "still times out with half the time" is trivially true and
// would shrink every liveness counterexample into an uninteresting
// microscopic horizon.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "core/config.hpp"
#include "explore/finding.hpp"
#include "explore/oracles.hpp"

namespace bftsim::explore {

/// Knobs for the generic predicate-driven ddmin core below.
struct ShrinkPolicy {
  /// Never propose dropping the attack. The adversary search shrinks
  /// *damage-maximizing* attack configs, where removing the attack is the
  /// one transformation that must not be on the table.
  bool keep_attack = false;
  /// Skip the horizon-halving transformation ("still fails with less
  /// time" is trivially true for liveness-style properties and would
  /// shrink every such case into a microscopic horizon).
  bool skip_horizon = false;
  /// Cap on the finding's shrink_runs: the loop stops once the runs the
  /// start finding carries plus the predicate evaluations reach it.
  std::size_t max_runs = 200;
};

/// The acceptance test: a candidate's evidence when it is still
/// interesting, nullopt when it is not.
using ShrinkPredicate =
    std::function<std::optional<Evidence>(const SimConfig&)>;

/// The ddmin core shared by shrink_scenario and the adversary search:
/// repeatedly proposes simpler variants of `start.config` in a fixed
/// order, accepts a candidate when `interesting(candidate)` returns
/// evidence, and restarts from the most simplifying transformation after
/// every acceptance. The predicate decides what "still interesting" means
/// (same oracle fires, damage score maintained, ...); a predicate that
/// throws rejects its candidate but still counts as a run. Candidates that
/// fail SimConfig::validate() are skipped for free. `start` itself is
/// never probed — the caller establishes that it is interesting and gives
/// its evidence. Returns `start` with the smallest config the budget
/// allowed and that config's evidence; each accepted transformation adds
/// to shrink_steps and each predicate evaluation to shrink_runs.
[[nodiscard]] Finding shrink_config(Finding start,
                                    const ShrinkPredicate& interesting,
                                    const ShrinkPolicy& policy);

/// Shrinks `failing` (whose run must violate `expected`) and returns the
/// smallest config that still violates `expected` within `max_runs`
/// simulations (one per candidate; the loop stops at the cap with the best
/// config found so far), as a finding with an empty id and seed.
/// Deterministic: same input -> same transformation sequence -> same
/// result. The input config is re-run once up front to record the
/// reference verdict (counted in shrink_runs); if it does not violate
/// `expected`, throws std::invalid_argument.
[[nodiscard]] Finding shrink_scenario(const SimConfig& failing,
                                      Oracle expected,
                                      std::size_t max_runs = 200);

}  // namespace bftsim::explore
