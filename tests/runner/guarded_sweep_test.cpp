// run_sweep_guarded: per-run exception isolation (RunFailure records with
// config + seed), watchdog budgets (termination_reason tallies), and
// equivalence with run_repeated when nothing fails.
#include <gtest/gtest.h>

#include "runner/export.hpp"
#include "runner/runner.hpp"

namespace bftsim {
namespace {

SimConfig small_config(const std::string& protocol, std::uint64_t seed) {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 4;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = seed;
  cfg.decisions = 1;
  cfg.max_time_ms = 60'000;
  return cfg;
}

TEST(GuardedSweep, ThrowingPointBecomesRunFailureAndSweepCompletes) {
  std::vector<SimConfig> points;
  points.push_back(small_config("pbft", 1));
  points.push_back(small_config("no-such-protocol", 7));  // every run throws
  points.push_back(small_config("hotstuff-ns", 3));

  const SweepOutcome outcome = run_sweep_guarded(points, 2, 2);
  ASSERT_EQ(outcome.points.size(), 3u);
  EXPECT_FALSE(outcome.ok());

  // The healthy points completed normally.
  EXPECT_EQ(outcome.points[0].aggregate.runs, 2u);
  EXPECT_EQ(outcome.points[0].tally.decided, 2u);
  EXPECT_EQ(outcome.points[2].aggregate.runs, 2u);
  EXPECT_EQ(outcome.points[2].tally.decided, 2u);

  // The bad point produced one structured failure per repeat, with the
  // exact failing config and derived seed, ordered by (point, repeat).
  EXPECT_EQ(outcome.points[1].aggregate.runs, 0u);
  EXPECT_EQ(outcome.points[1].tally.failed, 2u);
  ASSERT_EQ(outcome.failures.size(), 2u);
  EXPECT_EQ(outcome.failures[0].point, 1u);
  EXPECT_EQ(outcome.failures[0].repeat, 0u);
  EXPECT_EQ(outcome.failures[0].seed, 7u);
  EXPECT_EQ(outcome.failures[0].config.protocol, "no-such-protocol");
  EXPECT_EQ(outcome.failures[0].config.seed, 7u);
  EXPECT_FALSE(outcome.failures[0].error.empty());
  EXPECT_EQ(outcome.failures[1].repeat, 1u);
  EXPECT_EQ(outcome.failures[1].seed, 8u);
}

TEST(GuardedSweep, WatchdogEventBudgetRecordsTerminationReason) {
  // A budget far below what one decision needs: every run must stop with
  // the event-budget reason instead of running to the horizon.
  std::vector<SimConfig> points{small_config("pbft", 1)};
  Watchdog watchdog;
  watchdog.max_events = 10;

  const SweepOutcome outcome = run_sweep_guarded(points, 3, 1, watchdog);
  ASSERT_EQ(outcome.points.size(), 1u);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.points[0].tally.event_budget, 3u);
  EXPECT_EQ(outcome.points[0].tally.decided, 0u);
  EXPECT_EQ(outcome.points[0].aggregate.runs, 3u);
  EXPECT_EQ(outcome.points[0].aggregate.timeouts, 3u);
}

TEST(GuardedSweep, WatchdogTimeBudgetRecordsHorizon) {
  std::vector<SimConfig> points{small_config("pbft", 1)};
  Watchdog watchdog;
  watchdog.max_time_ms = 1.0;  // tighter than any decision

  const SweepOutcome outcome = run_sweep_guarded(points, 2, 1, watchdog);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.points[0].tally.horizon, 2u);
}

TEST(GuardedSweep, WatchdogOnlyTightens) {
  SimConfig cfg = small_config("pbft", 1);
  cfg.max_events = 100;
  Watchdog loose;
  loose.max_events = 1'000'000;
  loose.max_time_ms = 1e9;
  const SimConfig capped = loose.apply(cfg);
  EXPECT_EQ(capped.max_events, 100u);
  EXPECT_EQ(capped.max_time_ms, cfg.max_time_ms);
}

TEST(GuardedSweep, CleanSweepMatchesRunRepeated) {
  std::vector<SimConfig> points;
  points.push_back(small_config("pbft", 1));
  points.push_back(small_config("hotstuff-ns", 5));

  const SweepOutcome guarded = run_sweep_guarded(points, 3, 2);
  ASSERT_TRUE(guarded.ok());
  ASSERT_EQ(guarded.points.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(equivalent(run_repeated(points[i], 3),
                           guarded.points[i].aggregate))
        << "point " << i;
    EXPECT_EQ(guarded.points[i].tally.decided, 3u);
  }
}

TEST(GuardedSweep, FailuresCarryDefaultPointRepeatLabels) {
  std::vector<SimConfig> points;
  points.push_back(small_config("pbft", 1));
  points.push_back(small_config("no-such-protocol", 7));

  const SweepOutcome outcome = run_sweep_guarded(points, 2, 1);
  ASSERT_EQ(outcome.failures.size(), 2u);
  EXPECT_EQ(outcome.failures[0].label, "point-1/repeat-0");
  EXPECT_EQ(outcome.failures[1].label, "point-1/repeat-1");
}

TEST(GuardedSweep, CallerLabelsNameTheFailingScenario) {
  std::vector<SimConfig> points;
  points.push_back(small_config("pbft", 1));
  points.push_back(small_config("no-such-protocol", 7));
  const std::vector<std::string> labels{"campaign-7/scenario-0",
                                       "campaign-7/scenario-1"};

  const SweepOutcome outcome = run_sweep_guarded(points, 2, 1, {}, labels);
  ASSERT_EQ(outcome.failures.size(), 2u);
  EXPECT_EQ(outcome.failures[0].label, "campaign-7/scenario-1/repeat-0");
  EXPECT_EQ(outcome.failures[1].label, "campaign-7/scenario-1/repeat-1");

  // The label survives export, so sweep reports name scenarios too.
  const json::Value v = sweep_outcome_to_json(outcome);
  const auto& failure = v.as_object().at("failures").as_array()[0].as_object();
  EXPECT_EQ(failure.at("label").as_string(), "campaign-7/scenario-1/repeat-0");
}

TEST(GuardedSweep, MismatchedLabelCountThrowsBeforeRunning) {
  std::vector<SimConfig> points;
  points.push_back(small_config("pbft", 1));
  points.push_back(small_config("pbft", 2));
  EXPECT_THROW(
      (void)run_sweep_guarded(points, 1, 1, {}, {"only-one-label"}),
      std::invalid_argument);
}

TEST(GuardedSweep, OutcomeSerializesWithFailuresAndTallies) {
  std::vector<SimConfig> points;
  points.push_back(small_config("pbft", 1));
  points.push_back(small_config("no-such-protocol", 2));

  const SweepOutcome outcome = run_sweep_guarded(points, 1, 1);
  const json::Value v = sweep_outcome_to_json(outcome);
  EXPECT_FALSE(v.as_object().at("ok").as_bool());
  EXPECT_EQ(v.as_object().at("points").as_array().size(), 2u);
  const auto& failures = v.as_object().at("failures").as_array();
  ASSERT_EQ(failures.size(), 1u);
  const auto& failure = failures[0].as_object();
  EXPECT_EQ(failure.at("seed").as_int(), 2);
  EXPECT_EQ(failure.at("config").as_object().at("protocol").as_string(),
            "no-such-protocol");
}

}  // namespace
}  // namespace bftsim
