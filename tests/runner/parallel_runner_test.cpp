// Determinism contract of the parallel experiment runner: fanning runs
// across workers must not change any aggregate number (wall clock aside).
#include <gtest/gtest.h>

#include <stdexcept>

#include "runner/runner.hpp"

namespace bftsim {
namespace {

void expect_summaries_equal(const Summary& a, const Summary& b,
                            const char* what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.mean, b.mean) << what;      // exact: same inputs, same order
  EXPECT_EQ(a.stddev, b.stddev) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.max, b.max) << what;
  EXPECT_EQ(a.median, b.median) << what;
  EXPECT_EQ(a.p90, b.p90) << what;
  EXPECT_EQ(a.p99, b.p99) << what;
}

void expect_aggregates_identical(const Aggregate& a, const Aggregate& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.timeouts, b.timeouts);
  expect_summaries_equal(a.latency_ms, b.latency_ms, "latency_ms");
  expect_summaries_equal(a.per_decision_latency_ms, b.per_decision_latency_ms,
                         "per_decision_latency_ms");
  expect_summaries_equal(a.messages, b.messages, "messages");
  expect_summaries_equal(a.per_decision_messages, b.per_decision_messages,
                         "per_decision_messages");
  expect_summaries_equal(a.events, b.events, "events");
  EXPECT_TRUE(equivalent(a, b));
}

TEST(ParallelRunnerTest, IdenticalAggregatesAcrossJobCounts) {
  SimConfig cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  cfg.seed = 7;
  const Aggregate serial = run_repeated(cfg, 12);
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    const Aggregate parallel = run_repeated(cfg, 12, jobs);
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_aggregates_identical(serial, parallel);
  }
}

TEST(ParallelRunnerTest, IdenticalForPipelinedProtocol) {
  SimConfig cfg =
      experiment_config("hotstuff-ns", 8, 1000, DelaySpec::normal(250, 50));
  cfg.seed = 3;
  expect_aggregates_identical(run_repeated(cfg, 8),
                              run_repeated(cfg, 8, 4));
}

TEST(ParallelRunnerTest, IdenticalWhenRunsTimeOut) {
  SimConfig cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  cfg.max_time_ms = 0.5;  // nothing decides: every run times out
  const Aggregate serial = run_repeated(cfg, 6);
  const Aggregate parallel = run_repeated(cfg, 6, 3);
  EXPECT_EQ(serial.timeouts, 6u);
  expect_aggregates_identical(serial, parallel);
}

TEST(ParallelRunnerTest, ParallelRunIsRepeatable) {
  SimConfig cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  expect_aggregates_identical(run_repeated(cfg, 10, 4),
                              run_repeated(cfg, 10, 4));
}

TEST(ParallelRunnerTest, InvalidConfigPropagatesFromWorkers) {
  SimConfig cfg;
  cfg.protocol = "no-such-protocol";
  EXPECT_THROW((void)run_repeated(cfg, 4, 2), std::invalid_argument);
}

TEST(ParallelRunnerTest, SweepMatchesPerPointRunRepeated) {
  std::vector<SimConfig> points;
  points.push_back(experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50)));
  points.push_back(
      experiment_config("hotstuff-ns", 8, 1000, DelaySpec::normal(250, 50)));
  points.push_back(
      experiment_config("pbft", 8, 1000, DelaySpec::normal(500, 100)));
  points[2].seed = 11;

  const SweepOutcome sweep = run_sweep_guarded(points, 6, 4);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep.points.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_aggregates_identical(run_repeated(points[i], 6),
                                sweep.points[i].aggregate);
  }
}

TEST(ParallelRunnerTest, TimedOutRunsExcludedFromPerDecisionMessages) {
  // The documented Aggregate rule: timeouts stay in the raw volume
  // summaries but out of every per-decision summary.
  SimConfig cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  cfg.max_time_ms = 0.5;
  const Aggregate agg = run_repeated(cfg, 3);
  EXPECT_EQ(agg.timeouts, 3u);
  EXPECT_EQ(agg.messages.count, 3u);            // raw volume: included
  EXPECT_EQ(agg.events.count, 3u);              // raw volume: included
  EXPECT_EQ(agg.per_decision_messages.count, 0u);  // per-decision: excluded
  EXPECT_EQ(agg.per_decision_latency_ms.count, 0u);
  EXPECT_EQ(agg.latency_ms.count, 0u);
}

TEST(ParallelRunnerTest, EquivalentIgnoresWallClock) {
  SimConfig cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  Aggregate a = run_repeated(cfg, 3);
  Aggregate b = a;
  b.wall_seconds_total = a.wall_seconds_total + 123.0;
  EXPECT_TRUE(equivalent(a, b));
  b.runs += 1;
  EXPECT_FALSE(equivalent(a, b));
}

}  // namespace
}  // namespace bftsim
