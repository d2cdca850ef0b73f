// Deterministic scenario generation for fuzzing campaigns.
//
// A scenario is one randomly drawn SimConfig — protocol x n x network
// model x delay spec x attacker x fault windows x run seed — produced by a
// pure function of (space, campaign seed, scenario index). Re-generating
// scenario i of a campaign always yields the identical configuration, no
// matter how many scenarios ran before it or on how many threads, which is
// what makes whole campaigns replayable and their failures shrinkable.
//
// The space is model-aware: attacks are only paired with protocols whose
// network model tolerates them safely (a partition is temporary asynchrony,
// which partially-synchronous protocols must survive; pairing it with a
// synchronous protocol would "find" the textbook violation of the sync
// assumption rather than a bug). See docs/FUZZING.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/json.hpp"

namespace bftsim::explore {

/// Quantizes milliseconds to 1/8 ms. Dyadic values are exactly
/// representable as doubles AND print compactly, so every sampled or
/// shrunk parameter round-trips bit-identically through finding JSON.
[[nodiscard]] inline double quantize_eighth_ms(double ms) noexcept {
  return static_cast<double>(static_cast<std::int64_t>(ms * 8.0 + 0.5)) / 8.0;
}

/// The parameter domain a campaign samples scenarios from.
struct ScenarioSpace {
  /// Protocols scenarios may select (registry names). Empty is invalid;
  /// use defaults() / canary() for the stock spaces.
  std::vector<std::string> protocols;
  std::vector<std::uint32_t> node_counts{4, 7, 10, 16};
  std::vector<double> lambdas_ms{500.0, 1000.0};
  double attack_rate = 0.35;  ///< probability a scenario carries an attacker
  double fault_rate = 0.5;    ///< probability a scenario carries fault windows
  double max_time_ms = 600'000.0;  ///< horizon given to every scenario

  /// The stock space over every builtin protocol.
  [[nodiscard]] static ScenarioSpace defaults();

  /// The canary-hunt space: only "pbft-canary" (see canary.hpp), with an
  /// attack rate high enough that small smoke campaigns reliably draw the
  /// partition scenarios that expose the weakened quorum.
  [[nodiscard]] static ScenarioSpace canary();

  [[nodiscard]] json::Value to_json() const;
  /// Strict parse rooted at `path`; unknown keys throw.
  [[nodiscard]] static ScenarioSpace from_json(const json::Value& v,
                                               const std::string& path);
};

/// One generated scenario: the config plus its campaign coordinates.
struct Scenario {
  std::uint64_t campaign_seed = 0;
  std::uint64_t index = 0;
  SimConfig config;

  /// Stable identifier, e.g. "campaign-7/scenario-42" — the label attached
  /// to RunFailure records and findings.
  [[nodiscard]] std::string id() const;
};

/// Generates scenario `index` of the campaign with seed `campaign_seed`:
/// a pure, order-independent function of its arguments. The returned
/// config always validates, always records a trace (the oracles need it),
/// and derives its run seed from the campaign coordinates.
[[nodiscard]] Scenario generate_scenario(const ScenarioSpace& space,
                                         std::uint64_t campaign_seed,
                                         std::uint64_t index);

}  // namespace bftsim::explore
