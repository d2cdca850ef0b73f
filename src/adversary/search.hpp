// Deterministic worst-case attack discovery.
//
// For every (protocol, attack space) cell the search runs a seeded grid of
// candidate strategies followed by iterated local search around the
// incumbent (neighbors on the parameter lattice plus fresh seeded draws),
// scores each candidate with the damage objectives against the protocol's
// attack-free baseline run, shrinks the per-cell worst case through the
// ddmin core into a replayable finding, and replays that finding before
// counting it: any cell whose replay does not reproduce the damage score
// bit-exactly is refused and excluded from the table.
//
// Determinism contract: the whole SearchReport — candidates, scores,
// incumbents, shrunk configs, fingerprints, ranking — is a pure function
// of (options minus jobs). Candidate batches fan out across a thread pool
// (fan_out, core/thread_pool.hpp) but land in per-index slots and fold up
// in index order (first maximum wins ties), cells run sequentially, and
// shrinking is serial, so reports are byte-identical for every `jobs`
// value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adversary/damage.hpp"
#include "adversary/space.hpp"
#include "core/json.hpp"
#include "explore/finding.hpp"
#include "runner/runner.hpp"

namespace bftsim::adversary {

struct SearchOptions {
  /// Protocols to attack. The default set covers the view-based BFT
  /// family the damage objectives are sharpest for.
  std::vector<std::string> protocols = {"pbft", "hotstuff-ns", "librabft",
                                        "sync-hotstuff", "tendermint"};
  std::uint32_t n = 8;              ///< nodes per run
  double lambda_ms = 1000.0;        ///< protocol delay bound λ
  std::uint64_t seed = 1;           ///< search seed (also the run seed)
  std::uint64_t grid = 12;          ///< round-0 seeded draws per attack space
  std::uint64_t rounds = 2;         ///< local-search rounds after round 0
  std::size_t jobs = 0;             ///< 0 = ThreadPool::default_workers()
  /// Budget cap baked into every config BEFORE running, so findings are
  /// self-contained (same contract as the fuzzer's campaign watchdog).
  Watchdog watchdog{/*max_events=*/200'000, /*max_time_ms=*/60'000.0};
  std::size_t shrink_runs = 60;     ///< shrink probe budget per worst case
};

/// The worst strategy found for one (protocol, attack) cell.
struct WorstCase {
  std::string protocol;
  std::string attack;
  json::Value params;            ///< attack_params of the worst candidate
  DamageReport damage;           ///< damage of the (shrunk) worst case
  std::uint64_t evaluations = 0; ///< candidate evaluations spent on the cell
  /// Replayable worst case; empty when the cell's best score is 0.
  std::optional<explore::Finding> finding;
};

/// Full outcome of one search.
struct SearchReport {
  std::uint64_t seed = 0;
  std::vector<WorstCase> worst;      ///< ranked by score desc, then name
  std::vector<std::string> refused;  ///< "protocol/attack: reason" entries

  [[nodiscard]] json::Value to_json() const;
  /// The ranked per-protocol × per-attack resilience table as fixed-width
  /// text. Deterministically formatted; byte-identical across `jobs`.
  [[nodiscard]] std::string table() const;
};

/// The base (attack-free) configuration the search attacks for `protocol`:
/// options' n/λ/seed, the repo's default N(250,50) delay (clamped at λ for
/// synchronous-model protocols), trace recording on, watchdog applied.
[[nodiscard]] SimConfig search_base_config(const std::string& protocol,
                                           const SearchOptions& options);

/// Runs the search.
[[nodiscard]] SearchReport run_search(const SearchOptions& options);

}  // namespace bftsim::adversary
