// Engine-equivalence oracle over random scenarios: the engine's own claims
// checked on configurations nobody wrote by hand. Each of 24 scenarios
// drawn by explore::generate_scenario (every registered protocol, random
// delays, attackers and fault windows), with a cost model and a geo
// topology mixed in by index, must
//   - give the same trace fingerprint and record count through the
//     memory, jsonl and binary trace sinks on the serial engine, and
//   - when it is windowed-eligible (passive attacker, no gossip or
//     bandwidth backend, no closed-loop workload), give a bit-identical
//     RunResult at intra_jobs = 1 and at 2 + (i mod 7) lanes, the
//     multi-lane run streaming through the binary sink;
// and, widened to four times the nodes, enough of them must run windows
// on the lane pool. HotStuff+NS and LibraBFT under a leader crash, a shape
// the draw may miss, must also agree at 1, 2 and 4 lanes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/hotstuff_blocks.hpp"
#include "common/run_result_eq.hpp"
#include "core/config.hpp"
#include "core/json.hpp"
#include "core/rng.hpp"
#include "explore/scenario.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

using testing::block_responses;

constexpr std::uint64_t kCampaignSeed = 20221;
constexpr int kScenarios = 24;

// Snapshotted at static initialization, before any test body registers a
// test-only protocol, so the draw is the same whether a scenario runs in
// its own process or after the rest of the suite.
const explore::ScenarioSpace kSpace = explore::ScenarioSpace::defaults();

std::string temp_path(const std::string& name) {
  // PID-qualified: ctest runs every scenario in its own process, possibly
  // in parallel.
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

/// Scenario `i` of the campaign, with a computation-cost model on every
/// third scenario and a two- or three-region topology on every fourth
/// (the fuzzer's space samples neither, and its draws stay untouched).
SimConfig scenario(int i) {
  SimConfig cfg = explore::generate_scenario(kSpace, kCampaignSeed,
                                             static_cast<std::uint64_t>(i))
                      .config;
  Rng rng(static_cast<std::uint64_t>(i) + 1);
  if (i % 3 == 0) {
    cfg.cost.verify_ms = 0.125 * static_cast<double>(1 + rng.next_below(8));
    cfg.cost.sign_ms = 0.125 * static_cast<double>(1 + rng.next_below(8));
  }
  if (i % 4 == 1) {
    json::Object topo;
    topo["regions"] = static_cast<std::int64_t>(2 + rng.next_below(2));
    topo["cross_factor"] = 1.5;
    topo["cross_extra_ms"] = 20.0;
    cfg.topology = json::Value(topo);
  }
  cfg.validate();
  return cfg;
}

RunResult run_through(SimConfig cfg, TraceSinkKind sink,
                      const std::string& path) {
  cfg.record_trace = true;
  cfg.obs.sink = sink;
  cfg.obs.trace_path = sink == TraceSinkKind::kMemory ? "" : path;
  RunResult result = run_simulation(cfg);
  if (!path.empty()) std::remove(path.c_str());
  return result;
}

bool windowed_eligible(const SimConfig& cfg) {
  return cfg.attack.empty() && !cfg.net.gossip() &&
         !cfg.net.bandwidth_enabled() &&
         !(cfg.workload.enabled() && cfg.workload.closed());
}

class EngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, SinksAndLaneCountsAgree) {
  const int i = GetParam();
  const SimConfig cfg = scenario(i);
  SCOPED_TRACE(cfg.to_json().dump());

  const RunResult memory = run_through(cfg, TraceSinkKind::kMemory, "");
  ASSERT_GT(memory.trace_records, 0u);
  for (const TraceSinkKind sink :
       {TraceSinkKind::kJsonl, TraceSinkKind::kBinary}) {
    SCOPED_TRACE(std::string(to_string(sink)));
    const RunResult streamed =
        run_through(cfg, sink, temp_path("serial.trace"));
    EXPECT_EQ(streamed.trace_fingerprint, memory.trace_fingerprint);
    EXPECT_EQ(streamed.trace_records, memory.trace_records);
  }

  if (!windowed_eligible(cfg)) return;
  SimConfig lanes = cfg;
  lanes.engine.rng = EngineConfig::RngMode::kPerNode;
  lanes.engine.intra_jobs = 1;
  const RunResult one = run_through(lanes, TraceSinkKind::kMemory, "");
  lanes.engine.intra_jobs = 2 + static_cast<std::uint32_t>(i % 7);
  SCOPED_TRACE("intra_jobs=" + std::to_string(lanes.engine.intra_jobs));
  expect_identical(run_through(lanes, TraceSinkKind::kBinary,
                               temp_path("lanes.trace")),
                   one);
}

// The draw must keep exercising the lane engine with each ingredient.
TEST(EngineEquivalenceDraw, CoversFaultsTopologiesAndCostModelsOnLanes) {
  int eligible = 0;
  int faulted = 0;
  int topo = 0;
  int cost = 0;
  for (int i = 0; i < kScenarios; ++i) {
    const SimConfig cfg = scenario(i);
    if (!windowed_eligible(cfg)) continue;
    ++eligible;
    faulted += cfg.faults.enabled() ? 1 : 0;
    topo += cfg.topology.is_object() ? 1 : 0;
    cost += cfg.cost.enabled() ? 1 : 0;
  }
  EXPECT_GE(eligible, kScenarios / 2);
  EXPECT_GT(faulted, 0);
  EXPECT_GT(topo, 0);
  EXPECT_GT(cost, 0);
}

// A window runs its lanes inline when the window before it processed fewer
// than 256 events, so at the draw's own sizes most lane runs never touch the
// lane pool. Widened to four times the nodes, every eligible scenario must
// still agree across lane counts, and at least half of them must put
// windows on the pool: that is the concurrent path a TSan build checks.
TEST(EngineEquivalenceDraw, WidenedScenariosRunParallelWindows) {
  int eligible = 0;
  int parallel = 0;
  for (int i = 0; i < kScenarios; ++i) {
    SimConfig cfg = scenario(i);
    if (!windowed_eligible(cfg)) continue;
    ++eligible;
    SCOPED_TRACE(cfg.to_json().dump());
    cfg.n *= 4;
    cfg.engine.rng = EngineConfig::RngMode::kPerNode;
    cfg.engine.intra_jobs = 1;
    const RunResult one = run_through(cfg, TraceSinkKind::kMemory, "");
    cfg.engine.intra_jobs = 4;
    const RunResult four = run_through(cfg, TraceSinkKind::kMemory, "");
    expect_identical(four, one);
    parallel += four.profile.windows_parallel > 0 ? 1 : 0;
  }
  EXPECT_GE(parallel, eligible / 2);
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, EngineEquivalence,
                         ::testing::Range(0, kScenarios));

// The HotStuff family under the paper sweep's leader crash, which the draw
// may never pick: laggards fetch missed blocks through BlockResponse, and
// each replica keeps every proposal and response payload it stored (on
// the lane engine, payloads from other lanes' arenas) until teardown. At
// 256 nodes the windows run on the lane pool, so a sanitized build checks
// that sharing across lanes too.
class EngineEquivalenceCrash : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineEquivalenceCrash, OneTwoAndFourLanesAgree) {
  SimConfig cfg = SimConfig::from_json(json::parse(
      R"({"n": 256, "lambda_ms": 1000, "decisions": 10, "seed": 28,
          "delay": {"kind": "normal", "a": 250, "b": 50},
          "faults": {"crashes": [
            {"node": 0, "at_ms": 500, "duration_ms": 2000}]}})"));
  cfg.protocol = GetParam();
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  cfg.engine.intra_jobs = 1;
  const RunResult one = run_through(cfg, TraceSinkKind::kMemory, "");
  EXPECT_TRUE(one.terminated);
  EXPECT_GT(block_responses(one.trace), 0u);
  for (const std::uint32_t lanes : {2u, 4u}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(lanes));
    cfg.engine.intra_jobs = lanes;
    const RunResult many = run_through(cfg, TraceSinkKind::kMemory, "");
    expect_identical(many, one);
    EXPECT_GT(many.profile.windows_parallel, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HotStuffFamily, EngineEquivalenceCrash,
    ::testing::Values("hotstuff-ns", "librabft"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace bftsim
