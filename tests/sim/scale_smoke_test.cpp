// Large-n smoke tests (label `scale`, not tier1): a single PBFT run at
// n=1024 must complete, agree, stay within a resident-memory budget, and
// replay bit-identically. These runs take seconds in a release build —
// tier1 stays fast by excluding them; CI runs them in the scale-smoke job
// (`ctest -L scale`). Set BFTSIM_SCALE_XL=1 to also exercise n=4096.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

#include "core/memstats.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

SimConfig scale_config(std::uint32_t n) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = n;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(50, 10);
  cfg.decisions = 1;
  cfg.seed = 11;
  return cfg;
}

/// All honest nodes must decide the same value at height 0, and every
/// honest node must have decided.
void expect_agreement(const RunResult& result, std::uint32_t n) {
  ASSERT_TRUE(result.terminated);
  ASSERT_FALSE(result.decisions.empty());
  const Value decided = result.decisions.front().value;
  std::size_t height0 = 0;
  for (const Decision& d : result.decisions) {
    if (d.height != 0) continue;
    ++height0;
    EXPECT_EQ(d.value, decided) << "node " << d.node << " disagrees";
  }
  EXPECT_EQ(height0, static_cast<std::size_t>(n));
}

TEST(ScaleSmoke, Pbft1024CompletesAndAgrees) {
  trim_heap();
  const std::size_t baseline = current_rss_bytes();
  const bool peak_reset = reset_peak_rss();

  const RunResult result = run_simulation(scale_config(1024));
  expect_agreement(result, 1024);

  // Resident-memory budget: the measured cost of this exact run is
  // ~206 MB (see the BENCH_engine.json scaling curve); 512 MB leaves
  // room for allocator and machine variance while still catching a
  // per-node memory regression of 2.5x or worse.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RSS budget not meaningful under sanitizers";
#else
  constexpr std::size_t kBudgetBytes = 512u * 1024 * 1024;
  if (!peak_reset || peak_rss_bytes() == 0) {
    GTEST_SKIP() << "peak-RSS readings unavailable on this system";
  }
  const std::size_t peak = peak_rss_bytes();
  const std::size_t delta = peak > baseline ? peak - baseline : 0;
  EXPECT_LT(delta, kBudgetBytes)
      << "pbft n=1024 used " << delta / (1024 * 1024) << " MB resident";
#endif
}

TEST(ScaleSmoke, Pbft1024IsDeterministic) {
  const RunResult a = run_simulation(scale_config(1024));
  const RunResult b = run_simulation(scale_config(1024));
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.termination_time, b.termination_time);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].node, b.decisions[i].node);
    EXPECT_EQ(a.decisions[i].at, b.decisions[i].at);
    EXPECT_EQ(a.decisions[i].height, b.decisions[i].height);
    EXPECT_EQ(a.decisions[i].value, b.decisions[i].value);
  }
}

TEST(ScaleSmoke, Hotstuff1024CompletesAndAgrees) {
  SimConfig cfg;
  cfg.protocol = "hotstuff-ns";
  cfg.n = 1024;
  cfg.lambda_ms = 150;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.decisions = 3;
  cfg.seed = 4;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  ASSERT_FALSE(result.decisions.empty());
  const Value decided = result.decisions.front().value;
  for (const Decision& d : result.decisions) {
    if (d.height == 0) {
      EXPECT_EQ(d.value, decided);
    }
  }
}

TEST(ScaleSmoke, Pbft1024WindowedIntraJobs4) {
  // The windowed-parallel driver at intra_jobs=4 (CI runs this suite under
  // TSan in the tsan-scale job): the run must complete, agree, match its
  // serial per-node-RNG baseline bit for bit, and stay inside a wall
  // budget generous enough for sanitizer overhead.
  SimConfig cfg = scale_config(1024);
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  cfg.engine.intra_jobs = 1;

  const auto start = std::chrono::steady_clock::now();
  const RunResult serial = run_simulation(cfg);
  cfg.engine.intra_jobs = 4;
  const RunResult parallel = run_simulation(cfg);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  expect_agreement(parallel, 1024);
  EXPECT_EQ(parallel.events_processed, serial.events_processed);
  EXPECT_EQ(parallel.messages_sent, serial.messages_sent);
  EXPECT_EQ(parallel.messages_delivered, serial.messages_delivered);
  EXPECT_EQ(parallel.termination_time, serial.termination_time);
  ASSERT_EQ(parallel.decisions.size(), serial.decisions.size());
  for (std::size_t i = 0; i < parallel.decisions.size(); ++i) {
    EXPECT_EQ(parallel.decisions[i].node, serial.decisions[i].node);
    EXPECT_EQ(parallel.decisions[i].at, serial.decisions[i].at);
  }
  // Both runs together; TSan slows the engine ~10x, so the budget is wide
  // — it exists to catch windowed-driver livelock, not to measure speed.
  EXPECT_LT(seconds, 300.0) << "windowed n=1024 run exceeded the wall budget";
}

TEST(ScaleSmoke, Pbft4096Completes) {
  if (std::getenv("BFTSIM_SCALE_XL") == nullptr) {
    GTEST_SKIP() << "set BFTSIM_SCALE_XL=1 to run the n=4096 smoke "
                    "(~28M events, tens of seconds)";
  }
  const RunResult result = run_simulation(scale_config(4096));
  expect_agreement(result, 4096);
}

}  // namespace
}  // namespace bftsim
