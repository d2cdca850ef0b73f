// Windowed-parallel driver tests (sim/windowed.hpp): the window/lookahead
// calculator in isolation, the determinism matrix replaying the recorded
// golden configurations at intra_jobs ∈ {2, 3, 8} against the serial
// per-node-RNG baseline (intra_jobs = 1), and fault-layer interaction
// (crash / link-flap / corruption / clock-skew scenarios must stay
// bit-identical across lane counts). The one-lane baseline itself is pinned
// by tests/data/windowed_goldens.json (tools/record_goldens --windowed), so
// an engine change that moved every lane count alike still fails here.
// Each hand-written scenario also runs widened to enough nodes that some
// windows run on the lane pool rather than inline.
#include "sim/windowed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/run_result_eq.hpp"
#include "core/config.hpp"
#include "core/json.hpp"
#include "sim/simulation.hpp"

#ifndef BFTSIM_REPO_ROOT
#error "BFTSIM_REPO_ROOT must point at the repository checkout"
#endif

namespace bftsim {
namespace {

// --- window calculator ---------------------------------------------------------

SimConfig base_cfg() {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 16;
  cfg.delay = DelaySpec::uniform(200.0, 400.0);
  cfg.seed = 7;
  cfg.decisions = 2;
  return cfg;
}

TEST(WindowCalc, ConstantDelayInfimumIsTheDelay) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::constant(250.0);
  EXPECT_EQ(compute_lookahead(cfg), from_ms(250.0));
}

TEST(WindowCalc, ConstantZeroDelayDegeneratesToSerial) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::constant(0.0);
  cfg.delay.min_ms = 0.0;  // the factory default clamp would rescue it
  cfg.engine.intra_jobs = 8;
  EXPECT_EQ(compute_lookahead(cfg), 0);
  EXPECT_EQ(effective_lanes(cfg), 1u);
}

TEST(WindowCalc, UniformLowerEdge) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::uniform(200.0, 400.0);
  EXPECT_EQ(compute_lookahead(cfg), from_ms(200.0));
}

TEST(WindowCalc, UnboundedTailsRelyOnTheMinClamp) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::normal(250.0, 50.0);  // min_ms = 1 by default
  EXPECT_EQ(compute_lookahead(cfg), from_ms(1.0));
  cfg.delay = DelaySpec::exponential(100.0);
  cfg.delay.min_ms = 0.0;
  EXPECT_EQ(compute_lookahead(cfg), 0);
  EXPECT_EQ(effective_lanes(cfg), 1u);
}

TEST(WindowCalc, MaxClampCapsTheInfimum) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::constant(250.0);
  cfg.delay.max_ms = 100.0;
  EXPECT_EQ(compute_lookahead(cfg), from_ms(100.0));
}

TEST(WindowCalc, CrossRegionTransformCanUndercutTheFlatBound) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::constant(100.0);
  json::Object topo;
  topo["regions"] = std::int64_t{2};
  topo["cross_factor"] = 0.5;
  topo["cross_extra_ms"] = 10.0;
  cfg.topology = json::Value(topo);
  // min(100 ms, 100 * 0.5 + 10 ms) = 60 ms.
  EXPECT_EQ(compute_lookahead(cfg), from_ms(60.0));
  // A penalizing topology (factor >= 1) never raises the bound.
  topo["cross_factor"] = 2.0;
  cfg.topology = json::Value(topo);
  EXPECT_EQ(compute_lookahead(cfg), from_ms(100.0));
}

TEST(WindowCalc, SkewLargerThanTheDelayCollapsesTheWindow) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::constant(5.0);
  cfg.faults.clock.max_skew_ms = 10.0;
  cfg.engine.intra_jobs = 4;
  EXPECT_EQ(compute_lookahead(cfg), 0);
  EXPECT_EQ(effective_lanes(cfg), 1u);
}

TEST(WindowCalc, SkewAndDriftShrinkTheWindow) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::constant(100.0);
  cfg.faults.clock.max_skew_ms = 10.0;
  cfg.faults.clock.max_drift = 0.1;
  // 100 ms - 10 ms skew - 100 ms * 0.1 drift = 80 ms.
  EXPECT_EQ(compute_lookahead(cfg), from_ms(80.0));
}

TEST(WindowCalc, EffectiveLanesClampToNodeCount) {
  SimConfig cfg = base_cfg();
  cfg.n = 4;
  cfg.engine.intra_jobs = 8;
  EXPECT_EQ(effective_lanes(cfg), 4u);
  cfg.engine.intra_jobs = 1;
  EXPECT_EQ(effective_lanes(cfg), 1u);
}

// --- determinism matrix --------------------------------------------------------

/// Runs `cfg` through the windowed driver at the given lane count (the
/// per-node RNG baseline when jobs == 1) and at jobs > 1 the parallel path.
RunResult run_windowed(SimConfig cfg, std::uint32_t jobs) {
  cfg.engine.intra_jobs = jobs;
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  cfg.record_trace = true;  // fingerprint every comparison
  return run_simulation(cfg);
}

/// The recorded one-lane identity of the scenario named `name`, checked
/// against `one_lane` (whose config must be the one recorded).
void expect_windowed_golden(const std::string& name, const SimConfig& cfg,
                            const RunResult& one_lane) {
  static const json::Value doc = json::parse_file(
      std::string(BFTSIM_REPO_ROOT) + "/tests/data/windowed_goldens.json");
  const json::Object* golden = nullptr;
  for (const json::Value& point : doc.as_object().at("points").as_array()) {
    const json::Object& o = point.as_object();
    if (o.at("name").as_string() == name) golden = &o;
  }
  ASSERT_NE(golden, nullptr) << "no windowed golden named " << name;
  SimConfig recorded = cfg;
  recorded.engine.intra_jobs = 1;
  recorded.engine.rng = EngineConfig::RngMode::kPerNode;
  recorded.record_trace = true;
  ASSERT_EQ(golden->at("config").dump(), recorded.to_json().dump())
      << "scenario drifted from its recorded config";
  const json::Object& id = golden->at("identity").as_object();
  const auto count = [&id](const char* key) {
    return static_cast<std::uint64_t>(id.at(key).as_int());
  };
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(one_lane.trace_fingerprint));
  EXPECT_EQ(std::string(hex), id.at("trace_fingerprint").as_string());
  EXPECT_EQ(one_lane.trace_records, count("trace_records"));
  EXPECT_EQ(one_lane.events_processed, count("events_processed"));
  EXPECT_EQ(one_lane.messages_sent, count("messages_sent"));
  EXPECT_EQ(one_lane.messages_delivered, count("messages_delivered"));
  EXPECT_EQ(one_lane.messages_dropped, count("messages_dropped"));
  EXPECT_EQ(one_lane.messages_corrupted, count("messages_corrupted"));
  EXPECT_EQ(one_lane.timers_fired, count("timers_fired"));
  EXPECT_EQ(one_lane.termination_time,
            static_cast<Time>(id.at("termination_time").as_int()));
  EXPECT_EQ(std::string(to_string(one_lane.termination_reason)),
            id.at("termination_reason").as_string());
}

/// Checks the one-lane run of `cfg` against its golden and every other
/// lane count against the one-lane run; returns the one-lane result.
RunResult expect_lane_invariant(const std::string& name,
                                const SimConfig& cfg) {
  const RunResult serial = run_windowed(cfg, 1);
  expect_windowed_golden(name, cfg, serial);
  EXPECT_EQ(serial.profile.windows_parallel, 0u);
  for (const std::uint32_t jobs : {2u, 3u, 8u}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(jobs));
    expect_identical(run_windowed(cfg, jobs), serial);
  }
  return serial;
}

/// The recorded scenarios are too small for the lane pool: a window runs
/// its lanes inline when the window before it processed fewer than 256
/// events. This runs `cfg` widened to `n` nodes at one lane and at four,
/// checks the two agree, and requires the four-lane run to put windows on
/// the pool, so the concurrent path (what a TSan build of this suite
/// checks) covers every scenario here.
void expect_parallel_windows(SimConfig cfg, std::uint32_t n) {
  SCOPED_TRACE("widened to n=" + std::to_string(n));
  cfg.n = n;
  const RunResult one = run_windowed(cfg, 1);
  const RunResult four = run_windowed(cfg, 4);
  expect_identical(four, one);
  EXPECT_GT(four.profile.windows_parallel, 0u)
      << "every window ran inline: widen the scenario";
}

/// Quadratic protocols fill a window with n = 32; linear ones (a proposal
/// broadcast and n votes per view) need n = 256.
constexpr std::uint32_t kWideN = 32;
constexpr std::uint32_t kWideLinearN = 256;

TEST(WindowedDeterminism, GoldenConfigsAreLaneCountInvariant) {
  const std::string path =
      std::string(BFTSIM_REPO_ROOT) + "/tests/data/engine_goldens.json";
  const json::Value doc = json::parse_file(path);
  const json::Array& points = doc.as_object().at("aggregate_points").as_array();
  ASSERT_GE(points.size(), 20u);
  std::size_t replayed = 0;
  for (const json::Value& point : points) {
    const json::Object& o = point.as_object();
    const SimConfig cfg = SimConfig::from_json(o.at("config"));
    // Attacks are excluded from windowed execution by config validation
    // (a global adaptive adversary is inherently serial).
    if (!cfg.attack.empty()) continue;
    SCOPED_TRACE(o.at("name").as_string());
    expect_lane_invariant(o.at("name").as_string(), cfg);
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "golden corpus lost its attack-free configs";
}

TEST(WindowedDeterminism, DecidedRunsMatchAcrossProtocols) {
  for (const char* protocol : {"pbft", "hotstuff-ns", "tendermint", "librabft"}) {
    SCOPED_TRACE(protocol);
    SimConfig cfg = base_cfg();
    cfg.protocol = protocol;
    cfg.decisions = 3;
    expect_lane_invariant(std::string("protocols/") + protocol, cfg);
    const bool linear =
        cfg.protocol == "hotstuff-ns" || cfg.protocol == "librabft";
    expect_parallel_windows(cfg, linear ? kWideLinearN : kWideN);
  }
}

TEST(WindowedDeterminism, CostModelRunsAreLaneCountInvariant) {
  SimConfig cfg = base_cfg();
  cfg.cost.verify_ms = 0.4;
  cfg.cost.sign_ms = 0.9;
  expect_lane_invariant("cost-model", cfg);
  expect_parallel_windows(cfg, kWideN);
}

TEST(WindowedDeterminism, GeoTopologyRunsAreLaneCountInvariant) {
  SimConfig cfg = base_cfg();
  json::Object topo;
  topo["regions"] = std::int64_t{4};
  topo["cross_factor"] = 1.5;
  topo["cross_extra_ms"] = 40.0;
  cfg.topology = json::Value(topo);
  expect_lane_invariant("geo-topology", cfg);
  expect_parallel_windows(cfg, kWideN);
}

// --- fault-layer interaction ---------------------------------------------------

TEST(WindowedFaults, CrashAndLinkFlapScenariosAreLaneCountInvariant) {
  SimConfig cfg = base_cfg();
  cfg.protocol = "pbft";
  cfg.decisions = 3;
  cfg.max_time_ms = 120'000.0;
  cfg.faults.crashes.push_back({/*node=*/3, /*at_ms=*/500.0, /*duration_ms=*/1500.0});
  cfg.faults.crashes.push_back({/*node=*/7, /*at_ms=*/900.0, /*duration_ms=*/400.0});
  cfg.faults.link_flaps.push_back(
      {/*a=*/1, /*b=*/2, /*at_ms=*/200.0, /*duration_ms=*/1800.0});
  cfg.faults.link_flaps.push_back(
      {/*a=*/0, /*b=*/5, /*at_ms=*/700.0, /*duration_ms=*/600.0});
  expect_lane_invariant("crash-flap", cfg);
  expect_parallel_windows(cfg, kWideN);
}

TEST(WindowedFaults, CorruptionDrawsArePerSenderAndLaneCountInvariant) {
  SimConfig cfg = base_cfg();
  cfg.decisions = 3;
  cfg.faults.corruption.rate = 0.2;
  cfg.faults.corruption.start_ms = 0.0;
  cfg.faults.corruption.end_ms = 0.0;  // whole run
  const RunResult serial = expect_lane_invariant("corruption", cfg);
  EXPECT_GT(serial.messages_corrupted, 0u) << "scenario corrupts nothing";
  expect_parallel_windows(cfg, kWideN);
}

TEST(WindowedFaults, ClockSkewShrinksTheWindowButStaysInvariant) {
  SimConfig cfg = base_cfg();
  cfg.faults.clock.max_skew_ms = 10.0;
  cfg.faults.clock.max_drift = 0.01;
  ASSERT_GT(compute_lookahead(cfg), 0);
  expect_lane_invariant("clock-skew", cfg);
  expect_parallel_windows(cfg, kWideN);
}

TEST(WindowedFaults, RandomWindowScenariosAreLaneCountInvariant) {
  SimConfig cfg = base_cfg();
  cfg.decisions = 3;
  cfg.faults.random_crashes = {/*count=*/3, /*start_ms=*/0.0, /*end_ms=*/2000.0,
                               /*min_duration_ms=*/100.0,
                               /*max_duration_ms=*/1200.0};
  cfg.faults.random_link_flaps = {/*count=*/4, /*start_ms=*/0.0,
                                  /*end_ms=*/2500.0, /*min_duration_ms=*/100.0,
                                  /*max_duration_ms=*/900.0};
  expect_lane_invariant("random-windows", cfg);
  expect_parallel_windows(cfg, kWideN);
}

// --- broadcast fan-outs expanded by their destination lanes ------------------

// The sender keeps a broadcast's books and every lane expands its share of
// the copies at the barrier. Here corrupted copies (runs of one pushed
// mid-expansion) and a link-down drop (a skipped key) cut the runs too. The
// result at 2..8 lanes must equal the one-lane run, where each broadcast is
// a single run.
TEST(WindowedRuns, BroadcastSubRunsAcrossTwoToEightLanesMatchOneLane) {
  SimConfig cfg = base_cfg();
  cfg.n = 24;
  cfg.decisions = 2;
  cfg.faults.corruption.rate = 0.05;
  cfg.faults.link_flaps.push_back(
      {/*a=*/2, /*b=*/9, /*at_ms=*/0.0, /*duration_ms=*/5000.0});
  const RunResult one = run_windowed(cfg, 1);
  ASSERT_TRUE(one.terminated);
  EXPECT_GT(one.messages_corrupted, 0u);
  EXPECT_GT(one.messages_dropped, 0u);
  for (std::uint32_t jobs = 2; jobs <= 8; ++jobs) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(jobs));
    expect_identical(run_windowed(cfg, jobs), one);
  }
}

// Every layer an expansion applies, at once: the WAN RTT matrix's base on
// each draw, the cost model's signing time before the wire, corrupted
// copies (each interned alone by the lane that delivers it) and a link
// flap's dropped positions.
TEST(WindowedRuns, FanOutsThroughWanCostCorruptionAndFlapsMatchOneLane) {
  SimConfig cfg = base_cfg();
  cfg.n = 24;
  cfg.decisions = 2;
  cfg.net = WanSpec::from_json(json::parse(R"({"rtt": {"matrix": "geo8"}})"));
  cfg.cost.verify_ms = 0.4;
  cfg.cost.sign_ms = 0.9;
  cfg.faults.corruption.rate = 0.1;
  cfg.faults.link_flaps.push_back(
      {/*a=*/3, /*b=*/10, /*at_ms=*/0.0, /*duration_ms=*/5000.0});
  const RunResult one = run_windowed(cfg, 1);
  ASSERT_TRUE(one.terminated);
  EXPECT_GT(one.messages_corrupted, 0u);
  EXPECT_GT(one.messages_dropped, 0u);
  for (std::uint32_t jobs = 2; jobs <= 8; ++jobs) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(jobs));
    expect_identical(run_windowed(cfg, jobs), one);
  }
  expect_parallel_windows(cfg, kWideN);
}

// A run that stops at a barrier still expands the fan-outs posted in its
// last window, so the corrupted copies (counted by the expansion) and the
// link-down drops (counted by the sender) match the one-lane run, which
// expands each fan-out as it is sent. Three stops: decided, the horizon,
// and an event budget that runs out in the horizon run's last window, so
// that run stops at the same barrier at every lane count.
TEST(WindowedRuns, StopsAtABarrierExpandPendingFanOutsAtEveryLaneCount) {
  SimConfig decided = base_cfg();
  decided.n = 24;
  decided.decisions = 2;
  decided.faults.corruption.rate = 0.1;
  decided.faults.link_flaps.push_back(
      {/*a=*/1, /*b=*/6, /*at_ms=*/0.0, /*duration_ms=*/60'000.0});
  SimConfig horizon = decided;
  horizon.max_time_ms = 900.0;
  SimConfig budget = horizon;
  budget.max_events = run_windowed(horizon, 1).events_processed - 1;
  const std::pair<SimConfig, TerminationReason> stops[] = {
      {decided, TerminationReason::kDecided},
      {horizon, TerminationReason::kHorizon},
      {budget, TerminationReason::kEventBudget}};
  for (const auto& [cfg, reason] : stops) {
    SCOPED_TRACE(to_string(reason));
    const RunResult one = run_windowed(cfg, 1);
    ASSERT_EQ(one.termination_reason, reason);
    EXPECT_GT(one.messages_corrupted, 0u);
    EXPECT_GT(one.messages_dropped, 0u);
    // Copies still in flight: the last window sent some.
    EXPECT_GT(one.messages_sent, one.messages_delivered + one.messages_dropped);
    for (const std::uint32_t jobs : {2u, 3u, 4u, 8u}) {
      SCOPED_TRACE("intra_jobs=" + std::to_string(jobs));
      const RunResult lanes = run_windowed(cfg, jobs);
      EXPECT_EQ(lanes.messages_corrupted, one.messages_corrupted);
      EXPECT_EQ(lanes.messages_dropped, one.messages_dropped);
      expect_identical(lanes, one);
    }
  }
}

// Per-lane runs that span several 64-entry chunks: at n = 300 a
// broadcast's run for one of two, three or four lanes has 75 to 150
// copies (eight lanes give runs of one chunk), each drawn and queued by
// its destination lane. The trace is fingerprinted through a binary sink
// that keeps nothing, since the in-memory trace of a run this size would
// take tens of megabytes.
TEST(WindowedRuns, MultiChunkSubRunsAcrossTwoToEightLanesMatchOneLane) {
  SimConfig cfg = base_cfg();
  cfg.n = 300;
  cfg.decisions = 1;
  cfg.obs.sink = TraceSinkKind::kBinary;
  cfg.obs.trace_path = "/dev/null";
  const RunResult one = run_windowed(cfg, 1);
  ASSERT_TRUE(one.terminated);
  EXPECT_GT(one.trace_records, 0u);
  for (const std::uint32_t jobs : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(jobs));
    const RunResult lanes = run_windowed(cfg, jobs);
    expect_identical(lanes, one);
    EXPECT_GT(lanes.profile.windows_parallel, 0u);
  }
}

// --- self-degradation end to end ----------------------------------------------

TEST(WindowedDeterminism, ZeroLookaheadRunsServeOneLane) {
  SimConfig cfg = base_cfg();
  cfg.delay = DelaySpec::constant(0.0);
  cfg.delay.min_ms = 0.0;
  cfg.decisions = 2;
  // intra_jobs = 8 self-degrades to one lane; the run must still complete
  // and match the explicit one-lane execution bit for bit.
  expect_identical(run_windowed(cfg, 8), run_windowed(cfg, 1));
}

}  // namespace
}  // namespace bftsim
