// Corpus regression: every checked-in finding (tests/data/findings/, both
// the fuzzer's oracle findings and the adversary search's damage findings)
// must replay with its recorded verdict and bit-identical runs. A failure
// here means either a behavior change in the engine, an attack or a damage
// objective (fingerprint or score drift) or a fixed/regressed protocol bug
// (verdict drift) — both demand a look.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "explore/finding.hpp"

namespace bftsim::explore {
namespace {

std::vector<Finding> corpus() {
  const std::string dir =
      std::string(BFTSIM_REPO_ROOT) + "/tests/data/findings";
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Finding> findings;
  for (const std::string& file : files) {
    findings.push_back(Finding::from_file(file));
  }
  return findings;
}

/// Replays every checked-in finding whose verdict is a `V`.
template <typename V>
void expect_every_finding_replays() {
  std::size_t replayed = 0;
  for (const Finding& finding : corpus()) {
    if (!std::holds_alternative<V>(finding.evidence.verdict)) continue;
    ++replayed;
    const Replay replay = finding.replay();
    EXPECT_TRUE(replay.verdict_matches)
        << finding.id << ": expected " << describe(finding.evidence.verdict)
        << ", got " << describe(replay.evidence.verdict);
    EXPECT_TRUE(replay.runs_match)
        << finding.id << ": fingerprint/record-count drift";
  }
  EXPECT_GT(replayed, 0u) << "the findings corpus has none of this kind";
}

TEST(FuzzCorpus, EveryReproducerReplaysExactly) {
  expect_every_finding_replays<OracleReport>();
}

TEST(AdversaryCorpus, EveryWorstCaseReplaysExactly) {
  expect_every_finding_replays<adversary::DamageReport>();
}

TEST(FuzzCorpus, CoversBothSafetyOracleKinds) {
  // The corpus intentionally keeps at least one agreement violation and
  // one certificate violation, so both oracle code paths stay regression-
  // tested from checked-in data.
  std::set<Oracle> seen;
  for (const Finding& finding : corpus()) {
    const auto* report = std::get_if<OracleReport>(&finding.evidence.verdict);
    if (report != nullptr) seen.insert(report->violated);
  }
  EXPECT_TRUE(seen.count(Oracle::kAgreement));
  EXPECT_TRUE(seen.count(Oracle::kCertificate));
}

TEST(AdversaryCorpus, CoversMultipleProtocolsAndAttacks) {
  // The corpus ships the search's full default table: several protocols,
  // several attack families, so the replay gate keeps exercising all of
  // the damage objectives from checked-in data.
  std::set<std::string> protocols;
  std::set<std::string> attacks;
  for (const Finding& finding : corpus()) {
    const auto* damage =
        std::get_if<adversary::DamageReport>(&finding.evidence.verdict);
    if (damage == nullptr) continue;
    protocols.insert(finding.config.protocol);
    attacks.insert(finding.config.attack);
    EXPECT_GT(damage->score, 0.0) << finding.id;  // zero-damage cells ship none
  }
  EXPECT_GE(protocols.size(), 3u);
  EXPECT_GE(attacks.size(), 3u);
}

}  // namespace
}  // namespace bftsim::explore
