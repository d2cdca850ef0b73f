// End-to-end tests for the adversary search driver: jobs-independent
// byte-identical reports, nonzero damage against pbft, and findings that
// replay exactly (the search's own gate, re-checked from the outside).
#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "adversary/search.hpp"

namespace bftsim::adversary {
namespace {

SearchOptions mini_options(std::uint64_t seed = 5) {
  SearchOptions options;
  options.protocols = {"pbft"};
  options.n = 8;
  options.seed = seed;
  options.grid = 4;
  options.rounds = 1;
  options.shrink_runs = 8;
  options.watchdog = Watchdog{100'000, 30'000.0};
  return options;
}

TEST(SearchTest, ReportIsByteIdenticalAcrossJobs) {
  SearchOptions serial = mini_options();
  serial.jobs = 1;
  SearchOptions wide = mini_options();
  wide.jobs = 4;
  const SearchReport a = run_search(serial);
  const SearchReport b = run_search(wide);
  EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
  EXPECT_EQ(a.table(), b.table());
}

TEST(SearchTest, FindsDamageAgainstPbftWithVerifiedReproducers) {
  const SearchReport report = run_search(mini_options());
  EXPECT_TRUE(report.refused.empty());
  ASSERT_FALSE(report.worst.empty());
  // Ranked: the top cell carries the highest score, and at least one cell
  // did real damage.
  EXPECT_GT(report.worst.front().damage.score, 0.0);
  for (std::size_t i = 1; i < report.worst.size(); ++i) {
    EXPECT_LE(report.worst[i].damage.score, report.worst[i - 1].damage.score);
  }
  for (const WorstCase& w : report.worst) {
    EXPECT_EQ(w.finding.has_value(), w.damage.score > 0.0) << w.attack;
    EXPECT_GT(w.evaluations, 0u) << w.attack;
    if (w.finding) {
      EXPECT_TRUE(w.finding->replay().ok()) << w.attack;
    }
  }
}

TEST(SearchTest, ReproducersSurviveAJsonRoundTrip) {
  const SearchReport report = run_search(mini_options(7));
  const WorstCase* top = nullptr;
  for (const WorstCase& w : report.worst) {
    if (w.finding) {
      top = &w;
      break;
    }
  }
  ASSERT_NE(top, nullptr);
  const explore::Finding& found = *top->finding;
  const std::string dumped = found.to_json().dump(2);
  const explore::Finding back =
      explore::Finding::from_json(json::parse(dumped), "$.roundtrip");
  EXPECT_EQ(back.id, found.id);
  const auto* recorded = std::get_if<DamageReport>(&back.evidence.verdict);
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->score, top->damage.score);
  const explore::Replay outcome = back.replay();
  const auto* replayed = std::get_if<DamageReport>(&outcome.evidence.verdict);
  ASSERT_NE(replayed, nullptr);
  EXPECT_TRUE(outcome.ok())
      << "score " << replayed->score << " vs recorded " << recorded->score;
}

TEST(SearchTest, BaseConfigHonorsTheSyncModelAndWatchdog) {
  const SearchOptions options = mini_options();
  const SimConfig pbft = search_base_config("pbft", options);
  EXPECT_EQ(pbft.delay.max_ms, 0.0);  // partial synchrony: unbounded tail
  EXPECT_EQ(pbft.max_time_ms, 30'000.0);
  EXPECT_EQ(pbft.max_events, 100'000u);
  EXPECT_TRUE(pbft.record_trace);
  const SimConfig shs = search_base_config("sync-hotstuff", options);
  EXPECT_EQ(shs.delay.max_ms, shs.lambda_ms);  // λ-bounded network
}

}  // namespace
}  // namespace bftsim::adversary
