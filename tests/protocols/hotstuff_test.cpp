#include "protocols/hotstuff/hotstuff_ns.hpp"

#include <gtest/gtest.h>

#include "common/hotstuff_blocks.hpp"
#include "protocols/hotstuff/core.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

using bftsim::testing::store_block;

SimConfig hs_config(std::uint32_t n = 16, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.protocol = "hotstuff-ns";
  cfg.n = n;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = seed;
  cfg.decisions = 10;
  cfg.max_time_ms = 600'000;
  return cfg;
}

TEST(HotStuffCoreTest, GenesisBootstraps) {
  hotstuff::Core core{0};
  EXPECT_TRUE(core.has(hotstuff::kGenesisId));
  EXPECT_EQ(core.high_qc().view(), 0u);
  EXPECT_EQ(core.high_qc().block(), hotstuff::kGenesisId);
  EXPECT_EQ(core.high_qc().digest(), QuorumCert::genesis().digest());
  EXPECT_EQ(core.locked_qc().view(), 0u);
  EXPECT_EQ(core.committed_height(), 0u);
}

TEST(HotStuffCoreTest, SafeToVoteRules) {
  hotstuff::Core core{0};
  hotstuff::Block b;
  b.id = 1;
  b.parent = hotstuff::kGenesisId;
  b.view = 1;
  b.height = 1;
  b.justify = QuorumCert::genesis();
  store_block(core, b);
  // Extends the locked (genesis) block: safe.
  EXPECT_TRUE(core.safe_to_vote(b));

  hotstuff::Block orphan;
  orphan.id = 2;
  orphan.parent = 999;  // unknown parent, does not extend the lock
  orphan.view = 1;
  orphan.justify = QuorumCert{0, 999};
  store_block(core, orphan);
  EXPECT_FALSE(core.safe_to_vote(orphan));
}

TEST(HotStuffCoreTest, VoteAggregationFormsQuorumCertOnce) {
  // A standalone check of add_vote needs a Context; run it through the
  // simulation instead: 10 decisions require QCs to form continuously,
  // asserted by the integration tests below. Here check missing_ancestor.
  hotstuff::Core core{0};
  hotstuff::Block child;
  child.id = 10;
  child.parent = 5;  // unknown
  child.view = 2;
  child.height = 2;
  store_block(core, child);
  EXPECT_TRUE(core.missing_ancestor(child));
}

TEST(HotStuffNsTest, PipelineDecidesTenValues) {
  const RunResult result = run_simulation(hs_config());
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
  // Pipelining: ~one decision per view after warm-up; per-decision latency
  // clearly below PBFT's three-phase time.
  EXPECT_LT(result.per_decision_latency_ms(), 1000);
}

TEST(HotStuffNsTest, LinearMessageComplexity) {
  const RunResult small = run_simulation(hs_config(8));
  const RunResult large = run_simulation(hs_config(16));
  const double ratio = static_cast<double>(large.messages_sent) /
                       static_cast<double>(small.messages_sent);
  // Proposal broadcast + one vote per node: linear in n (ratio ~2, not ~4).
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.8);
}

TEST(HotStuffNsTest, DecisionHeightsAreSequential) {
  const RunResult result = run_simulation(hs_config(7));
  ASSERT_TRUE(result.terminated);
  for (const NodeId node : result.honest) {
    std::uint64_t next = 0;
    for (const Decision& d : result.decisions) {
      if (d.node == node) {
        EXPECT_EQ(d.height, next++);
      }
    }
    EXPECT_GE(next, 10u);
  }
}

TEST(HotStuffNsTest, ToleratesFailstops) {
  SimConfig cfg = hs_config();
  cfg.honest = 12;
  cfg.decisions = 3;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
}

TEST(HotStuffNsTest, ViewsAreRecorded) {
  const RunResult result = run_simulation(hs_config(4));
  ASSERT_FALSE(result.views.empty());
  // Views per node are non-decreasing.
  std::map<NodeId, View> last;
  for (const ViewRecord& v : result.views) {
    const auto it = last.find(v.node);
    if (it != last.end()) {
      EXPECT_GE(v.view, it->second);
    }
    last[v.node] = v.view;
  }
}

TEST(HotStuffNsTest, UnderestimatedLambdaDegradesButStaysSafe) {
  SimConfig good = hs_config(16, 5);
  SimConfig bad = hs_config(16, 5);
  bad.lambda_ms = 150;
  const RunResult g = run_simulation(good);
  const RunResult b = run_simulation(bad);
  ASSERT_TRUE(g.terminated);
  ASSERT_TRUE(b.terminated);
  EXPECT_TRUE(b.decisions_consistent());
  // More timer churn under the underestimated timeout.
  EXPECT_GT(b.timers_fired, g.timers_fired);
}

class HotStuffSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(HotStuffSweep, AgreementAndTermination) {
  const auto [n, seed] = GetParam();
  SimConfig cfg = hs_config(n, seed);
  cfg.decisions = 5;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HotStuffSweep,
    ::testing::Combine(::testing::Values(4u, 7u, 16u, 32u),
                       ::testing::Values(1ull, 2ull, 3ull)));

}  // namespace
}  // namespace bftsim
