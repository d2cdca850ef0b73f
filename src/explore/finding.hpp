// Replayable findings: the one document the fuzzer and the adversary
// search both write.
//
// A finding is a self-contained JSON document: the full (already
// watchdog-capped) SimConfig, the verdict its run produced, and the trace
// fingerprint and record count of every run that verdict rests on. The
// verdict is one of two kinds:
//
//  * oracle — an invariant oracle fired (a fuzz campaign's finding). One
//    run: the config itself.
//  * damage — an attack did damage relative to its attack-free baseline
//    (an adversary search's worst case). Two runs: the attacked config,
//    then baseline_of(config).
//
// Replaying re-executes those runs and demands bit-exact agreement: the
// same fingerprints and record counts, and the same verdict — the same
// oracle fires, or the same damage score under `==` with the same stall
// and safety flags (JSON numbers round-trip exactly, so the stored score is
// the computed one). A finding doubles as a regression test: the corpus
// under tests/data/findings/ is exactly these files.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "adversary/damage.hpp"
#include "core/config.hpp"
#include "core/json.hpp"
#include "explore/oracles.hpp"

namespace bftsim::explore {

/// Schema tag every finding document carries.
inline constexpr const char* kFindingSchema = "bftsim-finding-v1";

/// The identity of one run: its trace fingerprint and record count.
struct RunPrint {
  std::uint64_t fingerprint = 0;
  std::uint64_t records = 0;

  bool operator==(const RunPrint&) const = default;
};

/// What a finding shows: the oracle that fired, or the damage an attack
/// did.
using Verdict = std::variant<OracleReport, adversary::DamageReport>;

/// A verdict together with the runs that produced it.
struct Evidence {
  Verdict verdict;
  std::vector<RunPrint> runs;  ///< attacked run first for a damage verdict
};

/// Runs `cfg` and checks it against the invariant oracles (registers the
/// canary protocol when `cfg` targets it).
[[nodiscard]] Evidence oracle_evidence(const SimConfig& cfg);

/// Runs `cfg` and baseline_of(`cfg`) and scores the attack's damage.
[[nodiscard]] Evidence damage_evidence(const SimConfig& cfg);

/// "certificate: ..." for an oracle verdict, "score 12.5 (stall)" for a
/// damage verdict.
[[nodiscard]] std::string describe(const Verdict& verdict);

/// Outcome of replaying a finding.
struct Replay {
  Evidence evidence;  ///< verdict and runs of the replayed simulations
  bool verdict_matches = false;
  bool runs_match = false;  ///< every fingerprint and record count

  [[nodiscard]] bool ok() const noexcept {
    return verdict_matches && runs_match;
  }
};

/// One shrunk, replayable finding.
struct Finding {
  /// "campaign-<seed>/scenario-<index>" or
  /// "advsearch-<seed>/<protocol>/<attack>".
  std::string id;
  std::uint64_t seed = 0;  ///< campaign or search seed
  SimConfig config;        ///< shrunk config; replays standalone
  Evidence evidence;       ///< what `config` recorded when it was found
  std::size_t shrink_steps = 0;  ///< accepted shrinking transformations
  std::size_t shrink_runs = 0;   ///< simulations the shrinker executed

  [[nodiscard]] json::Value to_json() const;
  /// Strict parse; throws std::invalid_argument / json::Error naming the
  /// offending path. `path` roots error messages (default "$").
  [[nodiscard]] static Finding from_json(const json::Value& v,
                                         const std::string& path = "$");
  [[nodiscard]] static Finding from_file(const std::string& file);
  void save(const std::string& file) const;

  /// Re-runs the config (and, for a damage verdict, its baseline) and
  /// compares verdict and runs against the recorded ones.
  [[nodiscard]] Replay replay() const;
};

}  // namespace bftsim::explore
