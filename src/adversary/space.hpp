// Attack parameter spaces for the adversary strategy search.
//
// Every builtin parameterized attack exposes a discrete grid of parameter
// axes; a candidate strategy is one index per axis, and its attack_params
// JSON is a pure function of those indices. Candidate generation is a pure
// function of (space, search seed, round, index) — the same contract
// generate_scenario gives the fuzzer — so search reports are replayable no
// matter how the evaluations were scheduled.
//
// The spaces are model-aware like the fuzzer's scenario space: partition-
// style attacks (eclipse, adaptive-partition) model temporary asynchrony
// and are only paired with protocols whose network model tolerates it;
// delay-schedule stalls are clamped inside the delay spec's bounds and so
// are safe for every model; protocol-specific strategies (PBFT late
// equivocation) only target their protocol.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/json.hpp"

namespace bftsim::adversary {

/// One discrete parameter axis: a key in attack_params plus the values the
/// search may pick. Numeric values are pre-quantized to 1/8 ms so they
/// round-trip bit-identically through finding JSON.
struct ParamAxis {
  std::string key;
  std::vector<json::Value> values;
};

/// The searchable space of one attack against one base configuration.
struct AttackSpace {
  std::string attack;
  std::vector<ParamAxis> axes;

  /// Number of points in the full grid (product of axis sizes).
  [[nodiscard]] std::uint64_t grid_size() const noexcept;
};

/// A candidate strategy: one chosen value index per axis.
using ParamVector = std::vector<std::size_t>;

/// The attack_params object encoded by `pv` (one entry per axis).
[[nodiscard]] json::Value params_of(const AttackSpace& space,
                                    const ParamVector& pv);

/// Candidate `index` of round `round`: a pure function of its arguments
/// (the draw never depends on previously drawn candidates).
[[nodiscard]] ParamVector draw_candidate(const AttackSpace& space,
                                         std::uint64_t seed,
                                         std::uint64_t round,
                                         std::uint64_t index);

/// Deterministic neighbor enumeration for iterated local search: for each
/// axis in order, the -1 then +1 step (when in range). No duplicates, does
/// not include `pv` itself.
[[nodiscard]] std::vector<ParamVector> neighbors(const AttackSpace& space,
                                                 const ParamVector& pv);

/// The attack spaces applicable to `protocol` given the search's base
/// config (axis values scale with base.n / base.lambda_ms / base
/// horizon). Pure function; ordering is fixed.
[[nodiscard]] std::vector<AttackSpace> attack_spaces(
    const std::string& protocol, const SimConfig& base);

}  // namespace bftsim::adversary
