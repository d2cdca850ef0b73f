#include "protocols/librabft/librabft.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hpp"

namespace bftsim {
namespace {

SimConfig libra_config(std::uint32_t n = 16, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.protocol = "librabft";
  cfg.n = n;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = seed;
  cfg.decisions = 10;
  cfg.max_time_ms = 600'000;
  return cfg;
}

TEST(LibraBftTest, PipelineDecidesTenValues) {
  const RunResult result = run_simulation(libra_config());
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
  EXPECT_LT(result.per_decision_latency_ms(), 1000);
}

TEST(LibraBftTest, HappyPathMatchesHotStuffShape) {
  // Without timeouts LibraBFT and HotStuff+NS run the same chained core;
  // message counts per decision should be nearly identical.
  SimConfig hs = libra_config();
  hs.protocol = "hotstuff-ns";
  const RunResult libra = run_simulation(libra_config());
  const RunResult hotstuff = run_simulation(hs);
  ASSERT_TRUE(libra.terminated);
  ASSERT_TRUE(hotstuff.terminated);
  EXPECT_NEAR(libra.per_decision_messages(), hotstuff.per_decision_messages(),
              hotstuff.per_decision_messages() * 0.25);
}

TEST(LibraBftTest, UnderestimatedLambdaStaysStable) {
  // The TC pacemaker re-synchronizes views with messages: per-decision
  // latency under λ = 150 stays within ~2.5x of the well-configured run
  // (this is Fig. 5's LibraBFT line being flat).
  SimConfig good = libra_config(16, 3);
  SimConfig bad = libra_config(16, 3);
  bad.lambda_ms = 150;
  const RunResult g = run_simulation(good);
  const RunResult b = run_simulation(bad);
  ASSERT_TRUE(g.terminated);
  ASSERT_TRUE(b.terminated);
  EXPECT_LT(b.per_decision_latency_ms(), 2.5 * g.per_decision_latency_ms());
  // ...but it pays for stability with extra timeout/TC messages.
  EXPECT_GT(b.messages_sent, g.messages_sent);
}

TEST(LibraBftTest, TimeoutCertificatesFormUnderFailstops) {
  SimConfig cfg = libra_config(16, 2);
  cfg.honest = 11;
  cfg.decisions = 3;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
  // Dead leaders force timeouts; timeout messages must appear.
  EXPECT_GT(result.messages_sent, 0u);
}

TEST(LibraBftTest, TimeoutCertRequiresQuorum) {
  Arena arena;
  std::vector<NodeId> signers;
  for (NodeId i = 0; i < 10; ++i) signers.push_back(i);
  EXPECT_FALSE(TimeoutCert(arena, 4, signers).valid(11));
  signers.push_back(10);
  EXPECT_TRUE(TimeoutCert(arena, 4, signers).valid(11));
}

class LibraSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(LibraSweep, AgreementAndTermination) {
  const auto [n, seed] = GetParam();
  SimConfig cfg = libra_config(n, seed);
  cfg.decisions = 5;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LibraSweep,
    ::testing::Combine(::testing::Values(4u, 7u, 16u, 32u),
                       ::testing::Values(1ull, 2ull, 3ull)));

}  // namespace
}  // namespace bftsim
