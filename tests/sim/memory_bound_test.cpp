// Long runs keep bounded payload memory: the run arenas recycle released
// payload blocks (core/arena.hpp), so a pbft run's peak live arena bytes
// follow the messages in flight, not the number of decisions. Checked on
// the serial engine and on two lanes, where payloads allocated on one
// lane are released on the other and handed back at the window barrier.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "core/config.hpp"
#include "sim/controller.hpp"

namespace bftsim {
namespace {

struct ArenaPeak {
  std::size_t bytes = 0;
  RunResult result;
};

ArenaPeak run_pbft(std::uint32_t decisions, std::uint32_t intra_jobs) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 16;
  cfg.lambda_ms = 1000;
  // A 200 ms lookahead: wide windows, so the lane run uses its pool.
  cfg.delay = DelaySpec::uniform(200.0, 400.0);
  cfg.max_time_ms = 1e9;
  cfg.seed = 3;
  cfg.decisions = decisions;
  cfg.engine.intra_jobs = intra_jobs;
  Controller controller{cfg};
  ArenaPeak peak;
  peak.result = controller.run();
  peak.bytes = controller.arena_high_water();
  return peak;
}

void expect_flat(std::uint32_t intra_jobs) {
  const ArenaPeak short_run = run_pbft(1000, intra_jobs);
  const ArenaPeak long_run = run_pbft(4000, intra_jobs);
  ASSERT_TRUE(short_run.result.terminated);
  ASSERT_TRUE(long_run.result.terminated);
  EXPECT_GT(short_run.bytes, 0u);
  // Bump-only, 3000 more decisions would add megabytes; recycled, the
  // peak is a few rounds of in-flight payloads either way.
  EXPECT_LE(long_run.bytes, short_run.bytes + 16 * 1024)
      << "1k decisions: " << short_run.bytes
      << " B, 4k decisions: " << long_run.bytes << " B";
  if (intra_jobs > 1) {
    EXPECT_GT(long_run.result.profile.windows_parallel, 0u);
  }
}

TEST(MemoryBound, SerialPbftArenaPeakIsFlatInRunLength) { expect_flat(1); }

TEST(MemoryBound, WindowedPbftArenaPeakIsFlatInRunLength) { expect_flat(2); }

}  // namespace
}  // namespace bftsim
