// White-box unit tests of the LibraBFT pacemaker: timeout broadcasting,
// TC formation and certificate-driven view jumps — the behaviours that
// differentiate it from HotStuff+NS in Figs. 5 and 6.
#include "protocols/librabft/librabft.hpp"

#include <gtest/gtest.h>

#include "common/mock_context.hpp"

namespace bftsim::librabft {
namespace {

using bftsim::testing::MockContext;
using hotstuff::Proposal;
using hotstuff::Vote;

constexpr std::uint32_t kN = 4;  // f = 1, quorum = 3
constexpr Time kLambda = from_ms(1000);

SimConfig config() {
  SimConfig cfg;
  cfg.protocol = "librabft";
  cfg.n = kN;
  cfg.lambda_ms = 1000;
  return cfg;
}

std::shared_ptr<const TimeoutMsg> timeout_from(const MockContext& ctx, NodeId src,
                                               View view) {
  return std::make_shared<const TimeoutMsg>(
      view, ctx.signer().sign(src, hash_words({0x544fULL, view})));
}

TEST(LibraUnitTest, LocalTimeoutBroadcastsTimeoutMessage) {
  MockContext ctx(3, kN, 1, kLambda);
  LibraBftNode node(3, config());
  node.on_start(ctx);
  ASSERT_FALSE(ctx.timers.empty());
  EXPECT_EQ(ctx.timers[0].delay, LibraBftNode::kBaseFactor * kLambda);
  ctx.advance_to(ctx.timers[0].delay);
  ctx.fire(node, ctx.timers[0]);
  const auto timeouts = ctx.sent_of<TimeoutMsg>();
  ASSERT_EQ(timeouts.size(), 1u);
  EXPECT_EQ(timeouts[0]->view, 1u);
}

TEST(LibraUnitTest, BackoffDoublesUpToCap) {
  MockContext ctx(3, kN, 1, kLambda);
  LibraBftNode node(3, config());
  node.on_start(ctx);
  // Fire the view timer repeatedly; each rearm doubles until the cap.
  std::vector<Time> delays{ctx.timers[0].delay};
  for (int i = 0; i < 4; ++i) {
    const auto timer = ctx.timers.back();
    ctx.advance_to(ctx.now() + timer.delay);
    ctx.fire(node, timer);
    delays.push_back(ctx.timers.back().delay);
  }
  EXPECT_EQ(delays[0], 2 * kLambda);
  EXPECT_EQ(delays[1], 4 * kLambda);
  EXPECT_EQ(delays[2], 8 * kLambda);
  EXPECT_EQ(delays[3], 8 * kLambda);  // capped at kMaxBackoff = 2 doublings
  EXPECT_EQ(delays[4], 8 * kLambda);
}

TEST(LibraUnitTest, TimeoutQuorumFormsTcAndAdvances) {
  MockContext ctx(3, kN, 1, kLambda);
  LibraBftNode node(3, config());
  node.on_start(ctx);
  ctx.clear_sent();
  ctx.deliver(node, 0, timeout_from(ctx, 0, 1));
  ctx.deliver(node, 1, timeout_from(ctx, 1, 1));
  EXPECT_TRUE(ctx.sent_of<TcMsg>().empty());
  ctx.deliver(node, 2, timeout_from(ctx, 2, 1));  // quorum n - f = 3
  const auto tcs = ctx.sent_of<TcMsg>();
  ASSERT_EQ(tcs.size(), 1u);
  EXPECT_EQ(tcs[0]->tc.view(), 1u);
  EXPECT_TRUE(tcs[0]->tc.valid(3));
  // The rebroadcast carries the body built from the tracker: ascending.
  ASSERT_EQ(tcs[0]->tc.signers().size(), 3u);
  EXPECT_EQ(tcs[0]->tc.signers()[0], 0u);
  EXPECT_EQ(tcs[0]->tc.signers()[2], 2u);
  // The node itself advanced to view 2 (recorded).
  ASSERT_GE(ctx.views.size(), 2u);
  EXPECT_EQ(ctx.views.back(), 2u);
}

TEST(LibraUnitTest, ReceivedTcJumpsStragglerForward) {
  MockContext ctx(3, kN, 1, kLambda);
  LibraBftNode node(3, config());
  node.on_start(ctx);
  const TimeoutCert tc(ctx.arena(), 7, {0, 1, 2});
  ctx.deliver(node, 0, std::make_shared<const TcMsg>(tc));
  EXPECT_EQ(ctx.views.back(), 8u);  // jumped straight past views 2..7
}

TEST(LibraUnitTest, InvalidTcIsIgnored)
{
  MockContext ctx(3, kN, 1, kLambda);
  LibraBftNode node(3, config());
  node.on_start(ctx);
  const TimeoutCert tc(ctx.arena(), 7, {0, 0, 1});  // duplicate signers
  ctx.deliver(node, 0, std::make_shared<const TcMsg>(tc));
  EXPECT_EQ(ctx.views.back(), 1u);  // unmoved
}

TEST(LibraUnitTest, StaleTimeoutsAreIgnored) {
  MockContext ctx(3, kN, 1, kLambda);
  LibraBftNode node(3, config());
  node.on_start(ctx);
  const TimeoutCert tc(ctx.arena(), 4, {0, 1, 2});
  ctx.deliver(node, 0, std::make_shared<const TcMsg>(tc));  // now in view 5
  ctx.clear_sent();
  // Timeouts for view 1 can no longer form anything relevant.
  ctx.deliver(node, 0, timeout_from(ctx, 0, 1));
  ctx.deliver(node, 1, timeout_from(ctx, 1, 1));
  ctx.deliver(node, 2, timeout_from(ctx, 2, 1));
  EXPECT_TRUE(ctx.sent_of<TcMsg>().empty());
  EXPECT_EQ(ctx.views.back(), 5u);
}

TEST(LibraUnitTest, LeaderOfNewViewProposesAfterTc) {
  MockContext ctx(2, kN, 1, kLambda);  // leader(view 2) = 2
  LibraBftNode node(2, config());
  node.on_start(ctx);
  ctx.clear_sent();
  const TimeoutCert tc(ctx.arena(), 1, {0, 1, 3});
  ctx.deliver(node, 0, std::make_shared<const TcMsg>(tc));
  const auto proposals = ctx.sent_of<Proposal>();
  ASSERT_EQ(proposals.size(), 1u);
  EXPECT_EQ(proposals[0]->block.view, 2u);
}

}  // namespace
}  // namespace bftsim::librabft
