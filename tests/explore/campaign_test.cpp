// Campaign engine, end to end: the canary campaign must find and shrink
// the planted quorum bug, real protocols must come back clean, and the
// whole report must be byte-identical for every job count.
#include "explore/campaign.hpp"

#include <gtest/gtest.h>

#include <variant>

#include "core/json.hpp"
#include "explore/canary.hpp"

namespace bftsim::explore {
namespace {

CampaignOptions canary_options(std::uint64_t scenarios) {
  CampaignOptions options;
  options.space = ScenarioSpace::canary();
  options.seed = 1;
  options.scenario_count = scenarios;
  options.jobs = 2;
  return options;
}

TEST(Campaign, CanaryCampaignFindsAndShrinksThePlantedBug) {
  const CampaignReport report = run_campaign(canary_options(6));
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.crashes.empty());
  ASSERT_EQ(report.findings.size(), 2u);  // seed 1 violates at indices 3, 5
  EXPECT_EQ(report.findings[0].index, 3u);
  EXPECT_EQ(report.findings[1].index, 5u);

  for (const CampaignFinding& finding : report.findings) {
    const auto& verdict =
        std::get<OracleReport>(finding.finding.evidence.verdict);
    EXPECT_EQ(verdict.violated, Oracle::kCertificate);
    EXPECT_GT(finding.finding.shrink_steps, 0u);
    EXPECT_FALSE(verdict.diagnosis.empty());
    // Every finding a campaign emits replays bit-identically.
    const Replay replay = finding.finding.replay();
    EXPECT_TRUE(replay.ok()) << finding.finding.id << ": "
                             << describe(replay.evidence.verdict);
  }
}

TEST(Campaign, ReportIsByteIdenticalAcrossJobCounts) {
  CampaignOptions serial = canary_options(6);
  serial.jobs = 1;
  CampaignOptions wide = canary_options(6);
  wide.jobs = 4;
  EXPECT_EQ(run_campaign(serial).to_json().dump(2),
            run_campaign(wide).to_json().dump(2));
}

TEST(Campaign, RealProtocolsComeBackClean) {
  CampaignOptions options;
  options.seed = 2;
  options.scenario_count = 8;
  options.jobs = 4;
  const CampaignReport report = run_campaign(options);
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_EQ(report.tally.decided + report.tally.horizon +
                report.tally.event_budget + report.tally.queue_drained,
            8u);
}

TEST(Campaign, ReportJsonCarriesSchemaAndFindings) {
  const json::Value doc = run_campaign(canary_options(4)).to_json();
  const json::Object& o = doc.as_object();
  EXPECT_EQ(o.at("schema").as_string(), "bftsim-fuzz-campaign-v2");
  EXPECT_EQ(o.at("seed").as_int(), 1);
  EXPECT_EQ(o.at("scenarios").as_int(), 4);
  ASSERT_EQ(o.at("findings").as_array().size(), 1u);  // index 3
  const json::Object& finding = o.at("findings").as_array()[0].as_object();
  EXPECT_EQ(finding.at("index").as_int(), 3);
  EXPECT_EQ(finding.at("finding").as_object().at("schema").as_string(),
            kFindingSchema);
}

TEST(CampaignOptions, FromJsonParsesTheExploreClause) {
  const json::Value v = json::parse(
      R"({"seed":9,"scenarios":25,"max_events":50000,"shrink_runs":12,)"
      R"("space":{"protocols":["pbft"],"attack_rate":0.1}})");
  const CampaignOptions options = CampaignOptions::from_json(v, "$.explore");
  EXPECT_EQ(options.seed, 9u);
  EXPECT_EQ(options.scenario_count, 25u);
  EXPECT_EQ(options.watchdog.max_events, 50'000u);
  EXPECT_EQ(options.shrink_runs, 12u);
  ASSERT_EQ(options.space.protocols.size(), 1u);
  EXPECT_EQ(options.space.protocols[0], "pbft");
  EXPECT_DOUBLE_EQ(options.space.attack_rate, 0.1);
}

TEST(CampaignOptions, FromJsonRejectsUnknownKeys) {
  const json::Value v = json::parse(R"({"seeds":9})");
  try {
    (void)CampaignOptions::from_json(v, "$.explore");
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("$.explore"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bftsim::explore
