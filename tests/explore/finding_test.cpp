// Findings: strict JSON round-tripping and bit-identical replay, for both
// verdict kinds — an oracle finding shrunk the way a fuzz campaign shrinks
// one, and a damage finding scored the way the adversary search scores one.
#include "explore/finding.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <variant>
#include <vector>

#include "explore/canary.hpp"
#include "explore/scenario.hpp"
#include "explore/shrink.hpp"
#include "runner/runner.hpp"

namespace bftsim::explore {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

/// The known-violating canary scenario, capped and shrunk.
Finding oracle_finding() {
  register_fuzz_canary();
  const Scenario scenario = generate_scenario(ScenarioSpace::canary(), 1, 3);
  const Watchdog watchdog{2'000'000, 0.0};
  Finding finding =
      shrink_scenario(watchdog.apply(scenario.config), Oracle::kCertificate);
  finding.id = scenario.id();
  finding.seed = scenario.campaign_seed;
  return finding;
}

/// A partition attack on pbft n=4 (a shrunk worst case of the corpus).
Finding damage_finding() {
  Finding finding;
  finding.id = "advsearch-3/pbft/partition";
  finding.seed = 3;
  finding.config = SimConfig::from_json(json::parse(
      R"({"protocol":"pbft","n":4,"lambda_ms":1000,)"
      R"("delay":{"kind":"constant","a":250},"seed":3,"decisions":1,)"
      R"("max_time_ms":60000,"max_events":200000,"attack":"partition",)"
      R"("attack_params":{"subnets":2,"resolve_ms":48000,"mode":"delay"},)"
      R"("record_trace":true,"record_views":true})"));
  finding.evidence = damage_evidence(finding.config);
  finding.shrink_steps = 1;
  finding.shrink_runs = 2;
  return finding;
}

/// Both verdict kinds, the inputs of every test below.
const std::vector<Finding>& both_kinds() {
  static const std::vector<Finding> findings = {oracle_finding(),
                                                damage_finding()};
  return findings;
}

std::string rejection(const json::Value& doc) {
  try {
    (void)Finding::from_json(doc, "$");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Reproducer, JsonRoundTripsExactly) {
  for (const Finding& finding : both_kinds()) {
    const std::string dumped = finding.to_json().dump(2);
    const Finding back = Finding::from_json(json::parse(dumped));
    EXPECT_EQ(back.to_json().dump(2), dumped);
    EXPECT_EQ(back.id, finding.id);
    EXPECT_EQ(back.seed, finding.seed);
    EXPECT_EQ(back.evidence.runs, finding.evidence.runs);
    EXPECT_EQ(back.evidence.verdict.index(), finding.evidence.verdict.index());
    EXPECT_EQ(back.config.to_json().dump(), finding.config.to_json().dump());
  }
}

TEST(Reproducer, SaveAndLoadThroughAFile) {
  for (const Finding& finding : both_kinds()) {
    const std::string path = temp_path("finding.json");
    finding.save(path);
    EXPECT_EQ(Finding::from_file(path).to_json().dump(2),
              finding.to_json().dump(2));
  }
}

TEST(Reproducer, ReplayMatchesVerdictAndFingerprint) {
  for (const Finding& finding : both_kinds()) {
    const Replay replay = finding.replay();
    EXPECT_TRUE(replay.verdict_matches) << describe(replay.evidence.verdict);
    EXPECT_TRUE(replay.runs_match) << finding.id;
    EXPECT_TRUE(replay.ok());
  }
  // The damage fixture did real damage, so its score is worth forging.
  EXPECT_GT(std::get<adversary::DamageReport>(both_kinds()[1].evidence.verdict)
                .score,
            0.0);
}

TEST(Reproducer, ReplayDetectsAForgedFingerprint) {
  for (const Finding& finding : both_kinds()) {
    for (std::size_t run = 0; run < finding.evidence.runs.size(); ++run) {
      Finding forged = finding;
      forged.evidence.runs[run].fingerprint ^= 1;  // a one-bit divergence
      const Replay replay = forged.replay();
      EXPECT_TRUE(replay.verdict_matches);
      EXPECT_FALSE(replay.runs_match) << finding.id << " run " << run;
      EXPECT_FALSE(replay.ok());
    }
  }
}

TEST(Reproducer, ReplayDetectsAForgedRecordCount) {
  for (const Finding& finding : both_kinds()) {
    for (std::size_t run = 0; run < finding.evidence.runs.size(); ++run) {
      Finding forged = finding;
      ++forged.evidence.runs[run].records;
      const Replay replay = forged.replay();
      EXPECT_TRUE(replay.verdict_matches);
      EXPECT_FALSE(replay.runs_match) << finding.id << " run " << run;
    }
  }
}

TEST(Reproducer, ReplayDetectsAForgedVerdict) {
  for (const Finding& finding : both_kinds()) {
    Finding forged = finding;
    if (auto* report = std::get_if<OracleReport>(&forged.evidence.verdict)) {
      report->violated = Oracle::kAgreement;  // recorded: certificate
    } else {
      std::get<adversary::DamageReport>(forged.evidence.verdict).score += 1.0;
    }
    const Replay replay = forged.replay();
    EXPECT_FALSE(replay.verdict_matches) << finding.id;
    EXPECT_TRUE(replay.runs_match);
    EXPECT_FALSE(replay.ok());
  }
}

TEST(Reproducer, RejectsWrongSchemaWithPath) {
  for (const Finding& finding : both_kinds()) {
    json::Value doc = finding.to_json();
    doc.as_object()["schema"] = "bftsim-finding-v0";
    EXPECT_NE(rejection(doc).find("$.schema"), std::string::npos)
        << rejection(doc);
  }
}

TEST(Reproducer, RejectsUnknownOracleName) {
  for (const Finding& finding : both_kinds()) {
    json::Value doc = finding.to_json();
    json::Object verdict;
    verdict["oracle"] = "totality";
    verdict["diagnosis"] = "";
    doc.as_object()["verdict"] = json::Value{std::move(verdict)};
    EXPECT_NE(rejection(doc).find("$.verdict.oracle"), std::string::npos)
        << rejection(doc);
  }
}

TEST(Reproducer, RejectsAVersionOneDocumentNamingTheMigration) {
  for (const char* v1 :
       {"bftsim-fuzz-reproducer-v1", "bftsim-adversary-reproducer-v1"}) {
    for (const Finding& finding : both_kinds()) {
      json::Value doc = finding.to_json();
      doc.as_object()["schema"] = v1;
      const std::string error = rejection(doc);
      EXPECT_NE(error.find("$.schema"), std::string::npos) << error;
      EXPECT_NE(error.find("migrated"), std::string::npos) << error;
      EXPECT_NE(error.find(kFindingSchema), std::string::npos) << error;
    }
  }
}

}  // namespace
}  // namespace bftsim::explore
