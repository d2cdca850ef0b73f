// End-to-end client workload tests: the conservation property across every
// registered protocol, the closed-loop in-flight bound and serial
// fallback, byte-identical determinism across job counts and windowed lane
// counts, composition with the fault layer and global attacks, the JSON
// export gating, and the checked-in workload golden replay
// (tests/data/engine_goldens.json, "workload_points" /
// "workload_single_points" — the contract the CI workload-matrix job
// enforces). See docs/WORKLOADS.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/json.hpp"
#include "protocols/registry.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"

#ifndef BFTSIM_REPO_ROOT
#error "BFTSIM_REPO_ROOT must point at the repository checkout"
#endif

namespace bftsim {
namespace {

const std::string kGoldensPath =
    std::string(BFTSIM_REPO_ROOT) + "/tests/data/engine_goldens.json";

/// Open-loop Poisson workload on top of the standard experiment config.
SimConfig open_loop_config(const std::string& protocol, std::uint32_t n,
                           double rate_rps) {
  SimConfig cfg =
      experiment_config(protocol, n, 1000, DelaySpec::normal(250, 50));
  cfg.decisions = 10;  // several fresh proposals so batching engages
  cfg.max_time_ms = 600'000;
  cfg.workload.rate_rps = rate_rps;
  cfg.workload.max_batch = 16;
  return cfg;
}

void expect_conservation(const WorkloadStats& wl) {
  EXPECT_TRUE(wl.enabled);
  EXPECT_EQ(wl.submitted, wl.decided + wl.pending_end + wl.batched_undecided)
      << "submitted=" << wl.submitted << " decided=" << wl.decided
      << " pending_end=" << wl.pending_end
      << " batched_undecided=" << wl.batched_undecided;
}

// ---------------------------------------------------------------------------
// Conservation across every registered protocol
// ---------------------------------------------------------------------------

class WorkloadConservation : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadConservation, EveryRequestIsAccountedForExactlyOnce) {
  const SimConfig cfg = open_loop_config(GetParam(), 8, 500.0);
  const RunResult r = run_simulation(cfg);
  expect_conservation(r.workload);
  EXPECT_TRUE(r.decisions_consistent());
  // Whether any request can decide depends on protocol structure, not the
  // workload: asyncba decides coin bits (never proposer-minted batches),
  // and the one-shot protocols that mint their only proposal at t=0
  // (addv1/addv3 round 0, algorand period 0) propose before the first
  // open-loop arrival exists. addv2's elect round delays its proposal by
  // one λ, so it does batch. Pipelined protocols batch on every sequence.
  const std::string protocol = GetParam();
  const bool batches_decide = protocol != "asyncba" && protocol != "addv1" &&
                              protocol != "addv3" && protocol != "algorand";
  if (batches_decide) {
    EXPECT_GT(r.workload.decided, 0u) << "no requests decided";
    EXPECT_GT(r.workload.requests_per_sec, 0.0);
  } else {
    EXPECT_EQ(r.workload.decided, 0u);
    EXPECT_GT(r.workload.empty_decisions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, WorkloadConservation,
    ::testing::ValuesIn(ProtocolRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

TEST(WorkloadClosedLoopTest, InFlightNeverExceedsClientsTimesWindow) {
  SimConfig cfg =
      experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  cfg.decisions = 10;
  cfg.max_time_ms = 600'000;
  cfg.workload.mode = WorkloadSpec::Mode::kClosed;
  cfg.workload.clients = 200;
  cfg.workload.window = 3;
  cfg.workload.think_ms = 20.0;
  const RunResult r = run_simulation(cfg);
  expect_conservation(r.workload);
  EXPECT_GT(r.workload.decided, 0u);
  EXPECT_GT(r.workload.max_in_flight, 0u);
  EXPECT_LE(r.workload.max_in_flight, 200u * 3u);
}

TEST(WorkloadClosedLoopTest, FallsBackToSerialEngineWithWarning) {
  SimConfig cfg =
      experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  cfg.decisions = 5;
  cfg.max_time_ms = 600'000;
  cfg.engine.intra_jobs = 4;  // would select the windowed driver
  cfg.workload.mode = WorkloadSpec::Mode::kClosed;
  cfg.workload.clients = 50;
  cfg.workload.window = 1;
  const RunResult r = run_simulation(cfg);
  ASSERT_EQ(r.warnings.size(), 1u);
  EXPECT_EQ(r.warnings[0].code, "engine-serial-fallback");
  EXPECT_NE(r.warnings[0].detail.find("closed-loop"), std::string::npos);
  expect_conservation(r.workload);
}

TEST(WorkloadClosedLoopTest, OpenLoopOnWindowedEngineCarriesNoWarning) {
  SimConfig cfg = open_loop_config("pbft", 8, 300.0);
  cfg.engine.intra_jobs = 2;
  const RunResult r = run_simulation(cfg);
  EXPECT_TRUE(r.warnings.empty());
  expect_conservation(r.workload);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

/// Canonical report text with the one legitimately nondeterministic field
/// (wall clock) zeroed — the same normalization `equivalent()` applies.
std::string deterministic_report(const Aggregate& agg) {
  json::Value doc = aggregate_to_json(agg);
  doc.as_object()["wall_seconds_total"] = 0.0;
  return doc.dump(2);
}

TEST(WorkloadDeterminismTest, ReportsAreByteIdenticalAcrossJobCounts) {
  // The acceptance contract for the CI workload-matrix job: request-level
  // aggregates must not depend on the worker count.
  const SimConfig cfg = open_loop_config("hotstuff-ns", 8, 400.0);
  const Aggregate serial = run_repeated(cfg, 4);
  const Aggregate jobs4 = run_repeated(cfg, 4, 4);
  EXPECT_TRUE(equivalent(serial, jobs4));
  EXPECT_EQ(deterministic_report(serial), deterministic_report(jobs4));
  EXPECT_GT(serial.workload_decided, 0u);
  EXPECT_EQ(serial.workload_runs, 4u);
}

TEST(WorkloadDeterminismTest, ClosedLoopAggregatesMatchAcrossJobCounts) {
  SimConfig cfg =
      experiment_config("tendermint", 8, 1000, DelaySpec::normal(250, 50));
  cfg.max_time_ms = 600'000;
  cfg.workload.mode = WorkloadSpec::Mode::kClosed;
  cfg.workload.clients = 100;
  cfg.workload.window = 2;
  cfg.workload.think_ms = 50.0;
  const Aggregate serial = run_repeated(cfg, 3);
  const Aggregate jobs3 = run_repeated(cfg, 3, 3);
  EXPECT_TRUE(equivalent(serial, jobs3));
  EXPECT_EQ(deterministic_report(serial), deterministic_report(jobs3));
}

/// Workload stats serialized for exact comparison across engines.
std::string workload_report(const RunResult& r) {
  return workload_to_json(r.workload).dump(2);
}

TEST(WorkloadDeterminismTest, OpenLoopIsLaneCountInvariant) {
  // Open-loop workloads run on the windowed-parallel driver; the merge
  // barrier replays decides in serial order, so the full request-level
  // record must be bit-identical at every lane count.
  SimConfig cfg = open_loop_config("hotstuff-ns", 8, 400.0);
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  cfg.engine.intra_jobs = 1;
  const RunResult serial = run_simulation(cfg);
  ASSERT_GT(serial.workload.decided, 0u);
  for (const std::uint32_t lanes : {2u, 3u, 8u}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(lanes));
    SimConfig windowed = cfg;
    windowed.engine.intra_jobs = lanes;
    const RunResult r = run_simulation(windowed);
    EXPECT_EQ(r.termination_time, serial.termination_time);
    EXPECT_EQ(r.messages_sent, serial.messages_sent);
    EXPECT_EQ(workload_report(r), workload_report(serial));
  }
}

TEST(WorkloadDeterminismTest, RerunIsBitIdentical) {
  const SimConfig cfg = open_loop_config("pbft", 8, 500.0);
  const RunResult a = run_simulation(cfg);
  const RunResult b = run_simulation(cfg);
  EXPECT_EQ(workload_report(a), workload_report(b));
  EXPECT_EQ(a.termination_time, b.termination_time);
}

TEST(WorkloadDeterminismTest, WorkloadOffRunsMatchWorkloadFreeBaseline) {
  // enabled() gates the "wl" RNG fork: a default-constructed workload block
  // must leave the run untouched relative to a config that never mentions
  // workload at all (the golden bit-identity contract).
  const SimConfig cfg =
      experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  SimConfig with_block = cfg;
  with_block.workload = WorkloadSpec{};
  const RunResult a = run_simulation(cfg);
  const RunResult b = run_simulation(with_block);
  EXPECT_FALSE(a.workload.enabled);
  EXPECT_EQ(a.termination_time, b.termination_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
}

// ---------------------------------------------------------------------------
// Composition: workload x faults, workload x attacks
// ---------------------------------------------------------------------------

TEST(WorkloadCompositionTest, SurvivesCrashRecoverFaults) {
  SimConfig cfg = open_loop_config("pbft", 8, 400.0);
  cfg.faults.crashes.push_back({2, 300.0, 2000.0});
  const RunResult r = run_simulation(cfg);
  expect_conservation(r.workload);
  EXPECT_TRUE(r.decisions_consistent());
}

TEST(WorkloadCompositionTest, SurvivesPartitionAttackViaSerialFallback) {
  SimConfig cfg = open_loop_config("pbft", 8, 400.0);
  cfg.decisions = 1;
  cfg.attack = "partition";
  json::Object params;
  params["resolve_ms"] = 3000.0;
  params["mode"] = std::string("drop");
  cfg.attack_params = json::Value{std::move(params)};
  cfg.engine.intra_jobs = 4;  // attack forces the serial fallback
  const RunResult r = run_simulation(cfg);
  ASSERT_EQ(r.warnings.size(), 1u);
  EXPECT_EQ(r.warnings[0].code, "engine-serial-fallback");
  expect_conservation(r.workload);
}

// ---------------------------------------------------------------------------
// Export gating
// ---------------------------------------------------------------------------

TEST(WorkloadExportTest, RunJsonCarriesWorkloadBlockOnlyWhenEnabled) {
  const SimConfig off =
      experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  const json::Value off_doc = result_to_json(run_simulation(off));
  EXPECT_EQ(off_doc.as_object().find("workload"), nullptr);

  const SimConfig on = open_loop_config("pbft", 8, 500.0);
  const json::Value on_doc = result_to_json(run_simulation(on));
  const json::Value* wl = on_doc.as_object().find("workload");
  ASSERT_NE(wl, nullptr);
  const json::Object& o = wl->as_object();
  EXPECT_GT(o.at("submitted").as_int(), 0);
  EXPECT_GE(o.at("latency_p99_ms").as_number(),
            o.at("latency_p50_ms").as_number());
  EXPECT_GE(o.at("latency_p999_ms").as_number(),
            o.at("latency_p99_ms").as_number());
}

TEST(WorkloadExportTest, AggregateJsonCarriesWorkloadSummaries) {
  const SimConfig cfg = open_loop_config("pbft", 8, 500.0);
  const json::Value doc = aggregate_to_json(run_repeated(cfg, 2));
  const json::Value* wl = doc.as_object().find("workload");
  ASSERT_NE(wl, nullptr);
  EXPECT_EQ(wl->as_object().at("runs").as_int(), 2);
  EXPECT_EQ(wl->as_object()
                .at("requests_per_sec")
                .as_object()
                .at("count")
                .as_int(),
            2);

  const SimConfig off =
      experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
  const json::Value off_doc = aggregate_to_json(run_repeated(off, 2));
  EXPECT_EQ(off_doc.as_object().find("workload"), nullptr);
}

// ---------------------------------------------------------------------------
// Acceptance: pbft n=64
// ---------------------------------------------------------------------------

TEST(WorkloadAcceptanceTest, Pbft64ReportsThroughputAndOrderedPercentiles) {
  const SimConfig cfg = open_loop_config("pbft", 64, 2000.0);
  const RunResult r = run_simulation(cfg);
  ASSERT_TRUE(r.terminated);
  expect_conservation(r.workload);
  EXPECT_GT(r.workload.requests_per_sec, 0.0);
  EXPECT_LE(r.workload.latency_p50_ms, r.workload.latency_p99_ms);
  EXPECT_LE(r.workload.latency_p99_ms, r.workload.latency_p999_ms);
  // The JSON view the acceptance criterion names.
  const json::Value doc = result_to_json(r);
  const json::Object& wl = doc.as_object().at("workload").as_object();
  EXPECT_GT(wl.at("requests_per_sec").as_number(), 0.0);
}

// ---------------------------------------------------------------------------
// Golden replay
// ---------------------------------------------------------------------------

TEST(WorkloadGoldensTest, WorkloadPointsReplayBitIdentical) {
  const json::Value doc = json::parse_file(kGoldensPath);
  const json::Array& points = doc.as_object().at("workload_points").as_array();
  ASSERT_GE(points.size(), 4u);
  for (const json::Value& point : points) {
    const json::Object& o = point.as_object();
    SCOPED_TRACE(o.at("name").as_string());
    const SimConfig cfg = SimConfig::from_json(o.at("config"));
    EXPECT_TRUE(cfg.workload.enabled());
    const auto repeats = static_cast<std::size_t>(o.at("repeats").as_int());
    const Aggregate actual = run_repeated(cfg, repeats);
    json::Value want = o.at("aggregate");
    want.as_object()["wall_seconds_total"] = 0.0;
    EXPECT_EQ(deterministic_report(actual), want.dump(2));
  }
}

TEST(WorkloadGoldensTest, WorkloadSinglePointsReplayBitIdentical) {
  const json::Value doc = json::parse_file(kGoldensPath);
  const json::Array& points =
      doc.as_object().at("workload_single_points").as_array();
  ASSERT_GE(points.size(), 1u);
  for (const json::Value& point : points) {
    const json::Object& o = point.as_object();
    SCOPED_TRACE(o.at("name").as_string());
    const SimConfig cfg = SimConfig::from_json(o.at("config"));
    const RunResult r = run_simulation(cfg);
    const json::Object& want = o.at("result").as_object();
    EXPECT_EQ(r.terminated, want.at("terminated").as_bool());
    EXPECT_EQ(static_cast<std::int64_t>(r.termination_time),
              want.at("termination_time").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.events_processed),
              want.at("events_processed").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.bytes_sent),
              want.at("bytes_sent").as_int());
    // The full request-level record, field for field.
    EXPECT_EQ(workload_to_json(r.workload).dump(2),
              want.at("workload").dump(2));
  }
}

}  // namespace
}  // namespace bftsim
