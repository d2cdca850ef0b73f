// Graceful degradation: a run that carries an attack cannot execute on the
// windowed-parallel driver (a global attacker's observation order is not
// lane-independent), but it must not *fail* either — sweeps set a global
// engine.intra_jobs and expect their attack points to run. The controller
// falls back to the serial engine for exactly those runs, records a
// structured warning, and produces the same bits as a plain serial run.
#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace bftsim {
namespace {

SimConfig attacked_config(std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 16;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = seed;
  cfg.max_time_ms = 300'000;
  cfg.attack = "partition";
  json::Object params;
  params["resolve_ms"] = 8'000;
  params["mode"] = "drop";
  cfg.attack_params = json::Value{std::move(params)};
  cfg.record_trace = true;
  return cfg;
}

TEST(SerialFallbackTest, AttackPlusIntraJobsValidates) {
  SimConfig cfg = attacked_config();
  cfg.engine.intra_jobs = 4;
  EXPECT_NO_THROW(cfg.validate());
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SerialFallbackTest, FallbackIsBitIdenticalToTheSerialEngine) {
  const RunResult serial = run_simulation(attacked_config());
  EXPECT_TRUE(serial.warnings.empty());

  SimConfig cfg = attacked_config();
  cfg.engine.intra_jobs = 4;
  const RunResult fallback = run_simulation(cfg);
  EXPECT_EQ(fallback.termination_time, serial.termination_time);
  EXPECT_EQ(fallback.trace_fingerprint, serial.trace_fingerprint);
  EXPECT_EQ(fallback.trace_records, serial.trace_records);

  // The serial engine runs no windows at all.
  EXPECT_EQ(fallback.profile.windows_parallel, 0u);
  EXPECT_EQ(fallback.profile.windows_inline, 0u);

  ASSERT_EQ(fallback.warnings.size(), 1u);
  EXPECT_EQ(fallback.warnings[0].code, "engine-serial-fallback");
  EXPECT_NE(fallback.warnings[0].detail.find("partition"), std::string::npos);
  EXPECT_NE(fallback.warnings[0].detail.find("intra_jobs=4"), std::string::npos);
}

TEST(SerialFallbackTest, ExplicitPerNodeRngAlsoFallsBack) {
  SimConfig cfg = attacked_config(3);
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  const RunResult result = run_simulation(cfg);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_EQ(result.warnings[0].code, "engine-serial-fallback");
  // Still the serial-engine bits, per-node RNG request notwithstanding.
  const RunResult serial = run_simulation(attacked_config(3));
  EXPECT_EQ(result.trace_fingerprint, serial.trace_fingerprint);
}

TEST(SerialFallbackTest, PassiveRunsStayOnTheWindowedEngine) {
  // No attack => the windowed driver runs as requested, no warning, and it
  // keeps its own determinism contract (bit-identical across intra_jobs at
  // per-node RNG) — proof the fallback above is a deliberate exception for
  // attacks, not the general path.
  SimConfig cfg = attacked_config();
  cfg.attack.clear();
  cfg.attack_params = json::Value{};
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;  // windowed baseline
  SimConfig wide = cfg;
  wide.engine.intra_jobs = 4;
  const RunResult lanes1 = run_simulation(cfg);
  const RunResult lanes4 = run_simulation(wide);
  EXPECT_TRUE(lanes1.warnings.empty());
  EXPECT_TRUE(lanes4.warnings.empty());
  EXPECT_EQ(lanes4.termination_time, lanes1.termination_time);
  EXPECT_EQ(lanes4.trace_fingerprint, lanes1.trace_fingerprint);
  // Both ran windows (pbft n=16 fills none enough to use the lane pool).
  EXPECT_GT(lanes1.profile.windows_inline, 0u);
  EXPECT_GT(lanes4.profile.windows_inline, 0u);
}

}  // namespace
}  // namespace bftsim
