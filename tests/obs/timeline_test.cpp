// Timeline-collector tests: sampling is off by default, deterministic,
// and — critically — never perturbs the run it samples.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

SimConfig timeline_config(double tick_ms) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 4;
  cfg.seed = 5;
  cfg.decisions = 3;
  cfg.obs.timeline_tick_ms = tick_ms;
  return cfg;
}

TEST(TimelineTest, OffByDefault) {
  SimConfig cfg = timeline_config(0.0);
  const RunResult result = run_simulation(cfg);
  EXPECT_TRUE(result.timeline.empty());
  EXPECT_EQ(result.timeline_tick, 0);
}

TEST(TimelineTest, SamplingDoesNotPerturbTheRun) {
  SimConfig off = timeline_config(0.0);
  off.record_trace = true;
  SimConfig on = timeline_config(10.0);
  on.record_trace = true;

  const RunResult base = run_simulation(off);
  const RunResult sampled = run_simulation(on);

  // Identical engine behavior: same events, messages, termination, trace.
  EXPECT_EQ(sampled.events_processed, base.events_processed);
  EXPECT_EQ(sampled.messages_sent, base.messages_sent);
  EXPECT_EQ(sampled.messages_delivered, base.messages_delivered);
  EXPECT_EQ(sampled.termination_time, base.termination_time);
  EXPECT_EQ(sampled.trace_fingerprint, base.trace_fingerprint);
  EXPECT_FALSE(sampled.timeline.empty());
}

TEST(TimelineTest, SamplesAreDeterministicAndOrdered) {
  SimConfig cfg = timeline_config(25.0);
  const RunResult a = run_simulation(cfg);
  const RunResult b = run_simulation(cfg);

  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  ASSERT_FALSE(a.timeline.empty());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].at, b.timeline[i].at);
    EXPECT_EQ(a.timeline[i].events_processed, b.timeline[i].events_processed);
    EXPECT_EQ(a.timeline[i].queue_depth, b.timeline[i].queue_depth);
  }
  for (std::size_t i = 1; i < a.timeline.size(); ++i) {
    EXPECT_LT(a.timeline[i - 1].at, a.timeline[i].at);
    EXPECT_LE(a.timeline[i - 1].events_processed,
              a.timeline[i].events_processed);
  }
}

TEST(TimelineTest, SampleValuesAreInternallyConsistent) {
  SimConfig cfg = timeline_config(10.0);
  const RunResult result = run_simulation(cfg);
  ASSERT_FALSE(result.timeline.empty());
  EXPECT_EQ(result.timeline_tick, from_ms(10.0));
  for (const obs::TimelineSample& s : result.timeline) {
    EXPECT_LE(s.in_flight_messages + s.timers_pending, s.queue_depth);
    EXPECT_LE(s.messages_delivered, s.messages_sent);
    EXPECT_LE(s.min_view, s.max_view);
    ASSERT_EQ(s.node_views.size(), cfg.n);  // timeline_views defaults on
    for (const View v : s.node_views) {
      EXPECT_GE(v, s.min_view);
      EXPECT_LE(v, s.max_view);
    }
  }
  // The final-state sample reports the whole run's event count.
  EXPECT_EQ(result.timeline.back().events_processed, result.events_processed);
}

TEST(TimelineTest, ViewVectorCanBeDisabled) {
  SimConfig cfg = timeline_config(10.0);
  cfg.obs.timeline_views = false;
  const RunResult result = run_simulation(cfg);
  ASSERT_FALSE(result.timeline.empty());
  for (const obs::TimelineSample& s : result.timeline) {
    EXPECT_TRUE(s.node_views.empty());
  }
}

TEST(TimelineTest, CancelledTimerPopsKeepTheDepthIdentity) {
  // Every PBFT decision cancels and re-arms the view timer, so the queue
  // holds a trail of cancelled fires. A crashed leader leaves stretches with
  // no message in flight, where those fires pop with a sample taken between
  // the pop and its dispatch. in_flight_messages must not count the popped
  // fire's tombstone (it used to wrap below zero there).
  SimConfig cfg = timeline_config(1.0);
  cfg.decisions = 30;
  cfg.max_time_ms = 600'000;
  cfg.faults.crashes.push_back({0, 8'000.0, 20'000.0});
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  ASSERT_FALSE(result.timeline.empty());
  std::size_t idle_samples = 0;
  for (const obs::TimelineSample& s : result.timeline) {
    EXPECT_LE(s.in_flight_messages, s.queue_depth) << "at " << s.at;
    EXPECT_LE(s.in_flight_messages + s.timers_pending, s.queue_depth)
        << "at " << s.at;
    if (s.in_flight_messages == 0) ++idle_samples;
  }
  EXPECT_GT(idle_samples, 0u);  // the stretch the identity is tested on
}

TEST(TimelineTest, TickBoundsSampleCount) {
  // One sample per elapsed tick at most (plus the final-state sample).
  SimConfig cfg = timeline_config(1.0);
  const RunResult result = run_simulation(cfg);
  ASSERT_FALSE(result.timeline.empty());
  ASSERT_TRUE(result.terminated);
  const auto max_samples =
      static_cast<std::size_t>(to_ms(result.termination_time) / 1.0) + 2;
  EXPECT_LE(result.timeline.size(), max_samples);
}

TEST(TimelineTest, ToJsonSchema) {
  obs::Timeline timeline(from_ms(5.0), true);
  obs::TimelineSample s;
  s.at = from_ms(5.0);
  s.events_processed = 10;
  s.queue_depth = 4;
  s.in_flight_messages = 3;
  s.timers_pending = 1;
  s.messages_sent = 7;
  s.messages_delivered = 5;
  s.min_view = 0;
  s.max_view = 1;
  s.node_views = {0, 1, 1};
  timeline.add(s);

  const json::Value v = timeline.to_json();
  EXPECT_EQ(v.get_int("tick_us", -1), from_ms(5.0));
  const json::Value* samples = v.as_object().find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->as_array().size(), 1u);
  const json::Value& row = samples->as_array()[0];
  EXPECT_EQ(row.get_int("at_us", -1), from_ms(5.0));
  EXPECT_EQ(row.get_int("events_processed", -1), 10);
  EXPECT_EQ(row.get_int("queue_depth", -1), 4);
  EXPECT_EQ(row.get_int("in_flight_messages", -1), 3);
  EXPECT_EQ(row.get_int("timers_pending", -1), 1);
  EXPECT_EQ(row.get_int("min_view", -1), 0);
  EXPECT_EQ(row.get_int("max_view", -1), 1);
  const json::Value* views = row.as_object().find("node_views");
  ASSERT_NE(views, nullptr);
  EXPECT_EQ(views->as_array().size(), 3u);
}

TEST(TimelineTest, AddAdvancesNextSampleTime) {
  obs::Timeline timeline(100, true);
  EXPECT_EQ(timeline.next_sample_at(), 100);
  obs::TimelineSample s;
  s.at = 250;  // clock jumped over two ticks
  timeline.add(s);
  EXPECT_EQ(timeline.next_sample_at(), 300);
}

TEST(TimelineTest, FinalSampleReplacesDuplicateInstant) {
  obs::Timeline timeline(100, true);
  obs::TimelineSample s;
  s.at = 150;
  s.events_processed = 10;
  timeline.add(s);
  s.events_processed = 12;
  timeline.add_final(s);  // same instant: final state supersedes
  ASSERT_EQ(timeline.samples().size(), 1u);
  EXPECT_EQ(timeline.samples()[0].events_processed, 12u);
  s.at = 170;
  timeline.add_final(s);
  EXPECT_EQ(timeline.samples().size(), 2u);
}

TEST(TimelineTest, RejectsNonPositiveTick) {
  EXPECT_THROW(obs::Timeline(0, true), std::invalid_argument);
  EXPECT_THROW(obs::Timeline(-5, true), std::invalid_argument);
}

}  // namespace
}  // namespace bftsim
