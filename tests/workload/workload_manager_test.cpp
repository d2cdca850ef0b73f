// WorkloadManager unit tests, driven directly (no simulation): arrival
// stream determinism off the dedicated RNG, open-loop materialization,
// batch formation (max_batch cap, max_wait_ms holdback), closed-loop
// windows and resubmission, the conservation identity, and the bookkeeping
// for duplicate / unmatched decides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "workload/workload_manager.hpp"
#include "workload/workload_spec.hpp"

namespace bftsim {
namespace {

WorkloadSpec open_spec(double rate_rps, std::uint32_t max_batch = 256) {
  WorkloadSpec spec;
  spec.rate_rps = rate_rps;
  spec.max_batch = max_batch;
  return spec;
}

WorkloadSpec closed_spec(std::uint64_t clients, std::uint32_t window,
                         double think_ms = 0.0) {
  WorkloadSpec spec;
  spec.mode = WorkloadSpec::Mode::kClosed;
  spec.clients = clients;
  spec.window = window;
  spec.think_ms = think_ms;
  return spec;
}

constexpr Value kFresh = 0x0123456789abcdefULL;

// ---------------------------------------------------------------------------
// Arrival streams
// ---------------------------------------------------------------------------

TEST(WorkloadManagerTest, PoissonArrivalStreamIsDeterministic) {
  WorkloadManager a(open_spec(500.0), 4, Rng(42));
  WorkloadManager b(open_spec(500.0), 4, Rng(42));
  for (int step = 1; step <= 8; ++step) {
    const Time now = from_ms(100.0 * step);
    for (NodeId node = 0; node < 4; ++node) {
      const ProposalBatch pa = a.on_propose(node, step, kFresh, now);
      const ProposalBatch pb = b.on_propose(node, step, kFresh, now);
      EXPECT_EQ(pa.value, pb.value);
      EXPECT_EQ(pa.requests, pb.requests);
      EXPECT_EQ(pa.body_bytes, pb.body_bytes);
    }
  }
}

TEST(WorkloadManagerTest, DifferentSeedsDiverge) {
  WorkloadManager a(open_spec(500.0), 4, Rng(1));
  WorkloadManager b(open_spec(500.0), 4, Rng(2));
  std::uint64_t taken_a = 0;
  std::uint64_t taken_b = 0;
  for (NodeId node = 0; node < 4; ++node) {
    taken_a += a.on_propose(node, 1, kFresh, from_ms(500)).requests;
    taken_b += b.on_propose(node, 1, kFresh, from_ms(500)).requests;
  }
  // Same expected count (~250 per manager), essentially never equal across
  // all four Poisson streams.
  EXPECT_NE(taken_a, taken_b);
}

TEST(WorkloadManagerTest, NoArrivalsAtTimeZero) {
  WorkloadManager m(open_spec(1000.0), 2, Rng(7));
  const ProposalBatch batch = m.on_propose(0, 1, kFresh, 0);
  // Nothing ready: the protocol's own fresh value is passed through.
  EXPECT_EQ(batch.value, kFresh);
  EXPECT_EQ(batch.requests, 0u);
  EXPECT_EQ(batch.body_bytes, 0u);
  const WorkloadStats stats = m.finalize(0);
  EXPECT_EQ(stats.empty_proposals, 1u);
  EXPECT_EQ(stats.batches, 0u);
}

TEST(WorkloadManagerTest, FixedArrivalsAreRegular) {
  // n=1 at 1000 rps fixed: exactly one arrival per millisecond.
  WorkloadSpec spec = open_spec(1000.0);
  spec.arrival = WorkloadSpec::Arrival::kFixed;
  WorkloadManager m(spec, 1, Rng(3));
  const ProposalBatch batch = m.on_propose(0, 1, kFresh, from_ms(10));
  EXPECT_EQ(batch.requests, 10u);
  EXPECT_NE(batch.value, kFresh);  // a real batch gets a minted digest
}

// ---------------------------------------------------------------------------
// Batch formation
// ---------------------------------------------------------------------------

TEST(WorkloadManagerTest, BatchCapsAtMaxBatch) {
  WorkloadSpec spec = open_spec(1000.0, /*max_batch=*/5);
  spec.arrival = WorkloadSpec::Arrival::kFixed;
  spec.request_bytes = 100;
  WorkloadManager m(spec, 1, Rng(3));
  const ProposalBatch first = m.on_propose(0, 1, kFresh, from_ms(12));
  EXPECT_EQ(first.requests, 5u);
  EXPECT_EQ(first.body_bytes, 500u);
  // The remainder stays queued for the next proposal.
  const ProposalBatch second = m.on_propose(0, 2, kFresh, from_ms(12));
  EXPECT_EQ(second.requests, 5u);
  const ProposalBatch third = m.on_propose(0, 3, kFresh, from_ms(12));
  EXPECT_EQ(third.requests, 2u);
}

TEST(WorkloadManagerTest, DistinctBatchesGetDistinctValues) {
  WorkloadSpec spec = open_spec(1000.0, 5);
  spec.arrival = WorkloadSpec::Arrival::kFixed;
  WorkloadManager m(spec, 1, Rng(3));
  const ProposalBatch first = m.on_propose(0, 1, kFresh, from_ms(12));
  const ProposalBatch second = m.on_propose(0, 1, kFresh, from_ms(12));
  EXPECT_NE(first.value, second.value);
}

TEST(WorkloadManagerTest, MaxWaitHoldsPartialBatches) {
  // One arrival per 100 ms; max_batch 8 with a 500 ms batching timeout.
  WorkloadSpec spec = open_spec(10.0, /*max_batch=*/8);
  spec.arrival = WorkloadSpec::Arrival::kFixed;
  spec.max_wait_ms = 500.0;
  WorkloadManager m(spec, 1, Rng(3));
  // Two arrivals exist (200 ms), oldest is younger than max_wait: hold.
  const ProposalBatch early = m.on_propose(0, 1, kFresh, from_ms(250));
  EXPECT_EQ(early.requests, 0u);
  EXPECT_EQ(early.value, kFresh);
  // Oldest arrival (100 ms) has now waited 550 ms: the partial ships.
  const ProposalBatch late = m.on_propose(0, 2, kFresh, from_ms(650));
  EXPECT_GT(late.requests, 0u);
}

TEST(WorkloadManagerTest, FullBatchShipsDespiteMaxWait) {
  // 1 arrival/ms, max_batch 4: a full batch never waits for the timeout.
  WorkloadSpec spec = open_spec(1000.0, /*max_batch=*/4);
  spec.arrival = WorkloadSpec::Arrival::kFixed;
  spec.max_wait_ms = 10'000.0;
  WorkloadManager m(spec, 1, Rng(3));
  const ProposalBatch batch = m.on_propose(0, 1, kFresh, from_ms(6));
  EXPECT_EQ(batch.requests, 4u);
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

TEST(WorkloadManagerTest, ClosedLoopSubmitsClientsTimesWindow) {
  WorkloadManager m(closed_spec(100, 3), 4, Rng(9));
  EXPECT_TRUE(m.serial_only());
  const WorkloadStats stats = m.finalize(from_ms(1));
  EXPECT_EQ(stats.submitted, 300u);
  EXPECT_EQ(stats.pending_end, 300u);
  EXPECT_EQ(stats.max_in_flight, 300u);
}

TEST(WorkloadManagerTest, ClosedLoopScalesToMillionsOfClients) {
  // Run-length-encoded pending groups: 10M clients cost O(nodes), so this
  // constructs and finalizes instantly.
  WorkloadManager m(closed_spec(10'000'000, 1), 4, Rng(9));
  const WorkloadStats stats = m.finalize(0);
  EXPECT_EQ(stats.submitted, 10'000'000u);
  EXPECT_EQ(stats.max_in_flight, 10'000'000u);
}

TEST(WorkloadManagerTest, ClosedLoopResubmitsAfterDecide) {
  // 8 clients on 1 node, window 1, no think time: deciding the batch puts
  // all 8 straight back into the pending queue.
  WorkloadManager m(closed_spec(8, 1), 1, Rng(9));
  const ProposalBatch batch = m.on_propose(0, 1, kFresh, from_ms(5));
  ASSERT_EQ(batch.requests, 8u);
  m.on_decide(batch.value, from_ms(20));
  const WorkloadStats stats = m.finalize(from_ms(20));
  EXPECT_EQ(stats.decided, 8u);
  EXPECT_EQ(stats.submitted, 16u);  // initial window + one resubmission
  EXPECT_EQ(stats.pending_end, 8u);
  EXPECT_EQ(stats.max_in_flight, 8u);  // in-flight never exceeds the window
}

TEST(WorkloadManagerTest, OpenLoopReportsNoInFlightBound) {
  WorkloadManager m(open_spec(100.0), 2, Rng(5));
  const WorkloadStats stats = m.finalize(from_ms(100));
  EXPECT_EQ(stats.max_in_flight, 0u);
}

// ---------------------------------------------------------------------------
// Decide bookkeeping and conservation
// ---------------------------------------------------------------------------

TEST(WorkloadManagerTest, DuplicateDecideCountedOnce) {
  WorkloadManager m(closed_spec(4, 1), 1, Rng(9));
  const ProposalBatch batch = m.on_propose(0, 1, kFresh, from_ms(5));
  m.on_decide(batch.value, from_ms(10));
  m.on_decide(batch.value, from_ms(11));
  const WorkloadStats stats = m.finalize(from_ms(11));
  EXPECT_EQ(stats.decided, 4u);  // requests counted once
  EXPECT_EQ(stats.duplicate_decides, 1u);
}

TEST(WorkloadManagerTest, UnmatchedDecideCountsAsEmptyDecision) {
  WorkloadManager m(open_spec(100.0), 2, Rng(5));
  m.on_decide(0xdeadbeefULL, from_ms(10));
  const WorkloadStats stats = m.finalize(from_ms(10));
  EXPECT_EQ(stats.empty_decisions, 1u);
  EXPECT_EQ(stats.decided, 0u);
}

TEST(WorkloadManagerTest, ConservationHoldsUnderMixedTraffic) {
  WorkloadSpec spec = open_spec(2000.0, /*max_batch=*/16);
  WorkloadManager m(spec, 4, Rng(11));
  std::uint64_t decided_batches = 0;
  for (int step = 1; step <= 10; ++step) {
    const Time now = from_ms(50.0 * step);
    for (NodeId node = 0; node < 4; ++node) {
      const ProposalBatch batch = m.on_propose(node, step, kFresh, now);
      // Decide roughly half the formed batches; the rest stay orphaned.
      if (batch.requests > 0 && (node + step) % 2 == 0) {
        m.on_decide(batch.value, now + from_ms(25));
        ++decided_batches;
      }
    }
  }
  ASSERT_GT(decided_batches, 0u);
  const WorkloadStats stats = m.finalize(from_ms(600));
  EXPECT_GT(stats.decided, 0u);
  EXPECT_GT(stats.batched_undecided, 0u);
  EXPECT_EQ(stats.submitted,
            stats.decided + stats.pending_end + stats.batched_undecided);
}

TEST(WorkloadManagerTest, LatencyReportIsOrderedAndPositive) {
  WorkloadSpec spec = open_spec(1000.0, 8);
  spec.arrival = WorkloadSpec::Arrival::kFixed;
  WorkloadManager m(spec, 1, Rng(13));
  for (int step = 1; step <= 6; ++step) {
    const Time now = from_ms(20.0 * step);
    const ProposalBatch batch = m.on_propose(0, step, kFresh, now);
    if (batch.requests > 0) m.on_decide(batch.value, now + from_ms(30));
  }
  const WorkloadStats stats = m.finalize(from_ms(200));
  ASSERT_GT(stats.decided, 0u);
  EXPECT_GT(stats.latency_min_ms, 0.0);
  EXPECT_LE(stats.latency_min_ms, stats.latency_p50_ms);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p99_ms);
  EXPECT_LE(stats.latency_p99_ms, stats.latency_p999_ms);
  EXPECT_LE(stats.latency_p999_ms, stats.latency_max_ms);
  EXPECT_GT(stats.requests_per_sec, 0.0);
}

TEST(WorkloadManagerTest, FinalizeCountsArrivalsUpToEnd) {
  // Conservation must include arrivals the run never proposed: finalize
  // advances every stream to `end` before counting pending.
  WorkloadSpec spec = open_spec(1000.0);
  spec.arrival = WorkloadSpec::Arrival::kFixed;
  WorkloadManager m(spec, 1, Rng(17));
  const WorkloadStats stats = m.finalize(from_ms(50));
  EXPECT_EQ(stats.submitted, 50u);
  EXPECT_EQ(stats.pending_end, 50u);
}

TEST(WorkloadManagerTest, FinalizeCountsUnproposedStreamsLikeMaterializing) {
  // Only node 0 proposes (every 50 ms up to 1 s, max_wait 0, every other
  // batch decided). The reference materializes every node's arrivals as
  // births from the documented stream: one fork of the workload RNG per
  // node in node order, a mean interarrival of n / rate, rounded to whole
  // Time units and at least one.
  constexpr std::uint32_t kNodes = 5;
  constexpr std::uint32_t kMaxBatch = 8;
  constexpr Time kLastPropose = from_ms(1000);
  for (const auto arrival :
       {WorkloadSpec::Arrival::kPoisson, WorkloadSpec::Arrival::kFixed}) {
    for (const Time end : {kLastPropose, from_ms(1000.5), from_ms(2500),
                           from_ms(10000)}) {
      WorkloadSpec spec = open_spec(2000.0, kMaxBatch);
      spec.arrival = arrival;
      WorkloadManager m(spec, kNodes, Rng(23));

      Rng seed(23);
      const double mean_us = kNodes * 1e6 / spec.rate_rps;
      struct Stream {
        Rng rng;
        Time next = 0;
        std::deque<Time> births;
      };
      std::vector<Stream> streams;
      const auto step = [&](Stream& st) {
        const double sample = arrival == WorkloadSpec::Arrival::kPoisson
                                  ? st.rng.exponential(mean_us)
                                  : mean_us;
        return std::max<Time>(1, static_cast<Time>(std::llround(sample)));
      };
      std::uint64_t want_submitted = 0;
      const auto materialize = [&](Stream& st, Time upto) {
        for (; st.next <= upto; st.next += step(st)) {
          st.births.push_back(st.next);
          ++want_submitted;
        }
      };
      for (NodeId i = 0; i < kNodes; ++i) {
        streams.push_back(Stream{seed.fork(i), 0, {}});
        streams.back().next = step(streams.back());
      }

      std::uint64_t want_batched_undecided = 0;
      bool decide = false;
      for (Time now = from_ms(50); now <= kLastPropose; now += from_ms(50)) {
        const ProposalBatch b = m.on_propose(0, 1, kFresh, now);
        materialize(streams[0], now);
        const std::size_t take =
            std::min<std::size_t>(streams[0].births.size(), kMaxBatch);
        streams[0].births.erase(streams[0].births.begin(),
                                streams[0].births.begin() +
                                    static_cast<std::ptrdiff_t>(take));
        ASSERT_EQ(b.requests, take);
        if (take == 0) continue;
        if (decide) {
          m.on_decide(b.value, now);
        } else {
          want_batched_undecided += take;
        }
        decide = !decide;
      }
      const WorkloadStats got = m.finalize(end);

      std::uint64_t want_pending = 0;
      for (Stream& st : streams) {
        materialize(st, end);
        want_pending += st.births.size();
      }
      SCOPED_TRACE(testing::Message()
                   << (arrival == WorkloadSpec::Arrival::kPoisson ? "poisson"
                                                                  : "fixed")
                   << " end=" << end);
      EXPECT_EQ(got.submitted, want_submitted);
      EXPECT_EQ(got.pending_end, want_pending);
      EXPECT_EQ(got.batched_undecided, want_batched_undecided);
      EXPECT_GT(got.batched, 0u);
      EXPECT_GT(want_pending, streams[0].births.size());  // others' streams
    }
  }
}

}  // namespace
}  // namespace bftsim
