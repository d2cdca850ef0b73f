// The fuzzing campaign engine.
//
// A campaign is `scenario_count` scenarios drawn from a ScenarioSpace by
// generate_scenario(space, seed, i), each executed once and checked
// against the invariant oracles. Violations are shrunk (serially, in
// scenario order) into replayable findings; runs that throw become
// labeled RunFailure records instead of aborting the campaign.
//
// Determinism contract: the whole CampaignReport — which scenarios exist,
// which violate, what each shrinks to, every fingerprint — is a pure
// function of (space, seed, scenario_count, watchdog, shrink budget).
// Scenarios fan out across a thread pool (fan_out, core/thread_pool.hpp)
// but land in per-index slots and are aggregated in index order, so the
// report is identical for every `jobs` value, and contains no wall-clock
// or host-dependent data.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "explore/finding.hpp"
#include "explore/oracles.hpp"
#include "explore/scenario.hpp"
#include "explore/shrink.hpp"
#include "runner/runner.hpp"

namespace bftsim::explore {

/// An inclusive integer range.
struct IntRange {
  std::int64_t lo;
  std::int64_t hi;
};

/// Ranges of the "$.explore" clause's integer keys; the `explore` flags of
/// the same meaning accept the same ranges.
inline constexpr IntRange kScenariosRange{1, 1'000'000};
inline constexpr IntRange kMaxEventsRange{10'000, 1'000'000'000};
inline constexpr IntRange kShrinkRunsRange{1, 100'000};

struct CampaignOptions {
  ScenarioSpace space = ScenarioSpace::defaults();
  std::uint64_t seed = 1;            ///< campaign seed (not a run seed)
  std::uint64_t scenario_count = 100;
  std::size_t jobs = 0;              ///< 0 = ThreadPool::default_workers()
  /// Budget cap baked into every scenario config BEFORE running, so
  /// findings are self-contained (replaying one needs no campaign
  /// context to terminate the same way).
  Watchdog watchdog{/*max_events=*/2'000'000, /*max_time_ms=*/0.0};
  std::size_t shrink_runs = 200;     ///< per-finding shrink budget

  /// Parses the optional "$.explore" clause of a config file (strict;
  /// unknown keys throw). Recognized keys: "space" (ScenarioSpace),
  /// "seed", "scenarios", "max_events", "shrink_runs".
  [[nodiscard]] static CampaignOptions from_json(const json::Value& v,
                                                 const std::string& path);
};

/// One oracle violation found by a campaign, with its shrunk finding.
struct CampaignFinding {
  std::uint64_t index = 0;        ///< scenario index within the campaign
  OracleReport original;          ///< verdict of the unshrunk scenario
  Finding finding;                ///< shrunk, replayable counterexample
};

/// Full outcome of one campaign.
struct CampaignReport {
  std::uint64_t seed = 0;
  std::uint64_t scenario_count = 0;
  TerminationTally tally;              ///< how the scenario runs ended
  std::vector<CampaignFinding> findings;  ///< scenario-index order
  std::vector<RunFailure> crashes;        ///< runs that threw, index order

  [[nodiscard]] bool clean() const noexcept {
    return findings.empty() && crashes.empty();
  }
  [[nodiscard]] json::Value to_json() const;
};

/// Runs the campaign. Registers the canary protocol automatically when
/// the space contains it.
[[nodiscard]] CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace bftsim::explore
