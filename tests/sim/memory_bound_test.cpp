// Long runs keep bounded payload memory: the run arenas recycle released
// payload blocks (core/arena.hpp), so a pbft run's peak live arena bytes
// follow the messages in flight, not the number of decisions. Checked on
// the serial engine and on two lanes, where payloads allocated on one
// lane are released on the other and handed back at the window barrier.
//
// Wide runs keep bounded queue memory: the event queue's run chunks
// (core/event_queue.hpp) follow the copies still queued, not the sizes of
// the broadcasts they came from.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "core/config.hpp"
#include "core/event_queue.hpp"
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

/// At the peak of each lane's run storage, the chunks its queued runs held
/// take at most 8 bytes per queued copy plus one chunk per run: a chunk
/// goes back to the free list as its last entry pops, so no run keeps the
/// copies it already delivered.
void expect_run_chunks_follow_copies(std::uint32_t intra_jobs) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 512;  // runs of 511 copies (255 per lane): eight (four) chunks
  cfg.delay = DelaySpec::uniform(200.0, 400.0);
  cfg.seed = 5;
  cfg.decisions = 1;
  cfg.engine.intra_jobs = intra_jobs;
  Controller controller{cfg};
  const RunResult result = controller.run();
  ASSERT_TRUE(result.terminated);
  const EventQueue::RunMemory peak = controller.queue_run_peak();
  // Most of a decision's ~n^2 copies are queued at once.
  EXPECT_GT(peak.copies, std::size_t{cfg.n} * cfg.n / 4);
  EXPECT_LE(peak.bytes, sizeof(RunEntry) * peak.copies +
                            sizeof(EventQueue::Chunk) * peak.runs)
      << peak.copies << " copies in " << peak.runs << " runs";
  if (intra_jobs > 1) {
    EXPECT_GT(result.profile.windows_parallel, 0u);
  }
}

// Named to match the lane suites' sanitizer filter (Windowed...).
TEST(MemoryBound, WindowedOffRunChunksFollowQueuedCopies) {
  expect_run_chunks_follow_copies(1);
}

TEST(MemoryBound, WindowedTwoLanesRunChunksFollowQueuedCopies) {
  expect_run_chunks_follow_copies(2);
}

}  // namespace
}  // namespace bftsim
