// White-box unit tests of Bracha async BA: reliable-broadcast thresholds
// (echo quorum, ready amplification, accept), and the three-step round
// logic including the locking and coin fallbacks.
#include "protocols/asyncba/asyncba.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/mock_context.hpp"

namespace bftsim::asyncba {
namespace {

using bftsim::testing::MockContext;

constexpr std::uint32_t kN = 7;  // f = 2: echo quorum = (7+2)/2+1 = 5,
constexpr std::uint32_t kF = 2;  // ready amplify = 3, accept = 5, step = 5
constexpr Time kLambda = from_ms(1000);

SimConfig config(const char* input = "ones") {
  SimConfig cfg;
  cfg.protocol = "asyncba";
  cfg.n = kN;
  cfg.lambda_ms = 1000;
  json::Object params;
  params["input"] = input;
  cfg.protocol_params = json::Value{std::move(params)};
  return cfg;
}

struct Fixture {
  explicit Fixture(const char* input = "ones")
      : ctx(0, kN, kF, kLambda), node(0, config(input)) {
    node.on_start(ctx);
    ctx.clear_sent();
  }

  void deliver_init(NodeId src, std::uint64_t round, std::uint8_t step, Value v) {
    ctx.deliver(node, src, std::make_shared<const BrachaInit>(round, step, v));
  }
  void deliver_echo(NodeId src, NodeId origin, Value v, std::uint64_t round = 1,
                    std::uint8_t step = 1) {
    ctx.deliver(node, src,
                std::make_shared<const BrachaEcho>(round, step, origin, v));
  }
  void deliver_ready(NodeId src, NodeId origin, Value v, std::uint64_t round = 1,
                     std::uint8_t step = 1) {
    ctx.deliver(node, src,
                std::make_shared<const BrachaReady>(round, step, origin, v));
  }

  MockContext ctx;
  AsyncBaNode node;
};

TEST(AsyncBaUnitTest, BroadcastsInitOnStart) {
  MockContext ctx(0, kN, kF, kLambda);
  AsyncBaNode node(0, config());
  node.on_start(ctx);
  const auto inits = ctx.sent_of<BrachaInit>();
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_EQ(inits[0]->round, 1u);
  EXPECT_EQ(inits[0]->step, 1u);
  EXPECT_EQ(inits[0]->value, 1u);  // "ones" input
}

TEST(AsyncBaUnitTest, InputModes) {
  MockContext ctx(3, kN, kF, kLambda);
  AsyncBaNode zeros(3, config("zeros"));
  zeros.on_start(ctx);
  EXPECT_EQ(ctx.sent_of<BrachaInit>()[0]->value, 0u);
  ctx.clear_sent();
  AsyncBaNode split(3, config("split"));
  split.on_start(ctx);
  EXPECT_EQ(ctx.sent_of<BrachaInit>()[0]->value, 1u);  // id 3 is odd
}

TEST(AsyncBaUnitTest, EchoesFirstInitOnly) {
  Fixture fx;
  fx.deliver_init(2, 1, 1, 1);
  ASSERT_EQ(fx.ctx.sent_of<BrachaEcho>().size(), 1u);
  EXPECT_EQ(fx.ctx.sent_of<BrachaEcho>()[0]->origin, 2u);
  // A conflicting second init from the same origin is not echoed.
  fx.deliver_init(2, 1, 1, 0);
  EXPECT_EQ(fx.ctx.sent_of<BrachaEcho>().size(), 1u);
}

TEST(AsyncBaUnitTest, ReadyAtEchoQuorumExactly) {
  Fixture fx;
  for (const NodeId src : {1u, 2u, 3u, 4u}) fx.deliver_echo(src, 6, 1);
  EXPECT_TRUE(fx.ctx.sent_of<BrachaReady>().empty());
  fx.deliver_echo(5, 6, 1);  // 5th distinct echo = (n+f)/2 + 1
  EXPECT_EQ(fx.ctx.sent_of<BrachaReady>().size(), 1u);
}

TEST(AsyncBaUnitTest, ReadyAmplificationAtFPlusOne) {
  Fixture fx;
  fx.deliver_ready(1, 6, 1);
  fx.deliver_ready(2, 6, 1);
  EXPECT_TRUE(fx.ctx.sent_of<BrachaReady>().empty());
  fx.deliver_ready(3, 6, 1);  // f + 1 = 3 readies: join the broadcast
  EXPECT_EQ(fx.ctx.sent_of<BrachaReady>().size(), 1u);
}

TEST(AsyncBaUnitTest, SplitEchoesNeverReachQuorum) {
  Fixture fx;
  // 4 echoes for value 1, 3 for value 0 — neither reaches 5.
  for (const NodeId src : {1u, 2u, 3u, 4u}) fx.deliver_echo(src, 6, 1);
  for (const NodeId src : {5u, 0u, 6u}) fx.deliver_echo(src, 6, 0);
  EXPECT_TRUE(fx.ctx.sent_of<BrachaReady>().empty());
}

TEST(AsyncBaUnitTest, StepAdvancesWhenEnoughOriginsAccepted) {
  Fixture fx;
  // Accept n - f = 5 distinct origins' step-1 broadcasts (2f+1 = 5 readies
  // each); the node must then process step 1 and init step 2.
  for (const NodeId origin : {0u, 1u, 2u, 3u, 4u}) {
    for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) {
      fx.deliver_ready(src, origin, 1);
    }
  }
  const auto inits = fx.ctx.sent_of<BrachaInit>();
  ASSERT_FALSE(inits.empty());
  EXPECT_EQ(inits.back()->step, 2u);
  EXPECT_EQ(inits.back()->value, 1u);  // majority of accepted values
}

TEST(AsyncBaUnitTest, DecidesInStepThreeWithStrongQuorum) {
  Fixture fx;
  // Drive steps 1 and 2 with unanimous value 1, then step 3.
  for (std::uint8_t step = 1; step <= 3; ++step) {
    for (const NodeId origin : {0u, 1u, 2u, 3u, 4u}) {
      for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) {
        fx.deliver_ready(src, origin, 1, 1, step);
      }
    }
  }
  ASSERT_EQ(fx.ctx.decisions.size(), 1u);
  EXPECT_EQ(fx.ctx.decisions[0], 1u);
  // After deciding, the node moves on to round 2 (it keeps participating).
  const auto inits = fx.ctx.sent_of<BrachaInit>();
  EXPECT_EQ(inits.back()->round, 2u);
}

TEST(AsyncBaUnitTest, BottomStep3LocksWithoutDeciding) {
  Fixture fx;
  // Steps 1-2 processed with mixed content so step 2 emits ⊥...
  for (std::uint8_t step = 1; step <= 2; ++step) {
    for (const NodeId origin : {0u, 1u, 2u, 3u, 4u}) {
      for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) {
        // step 1: 3 origins say 1, 2 say 0 -> majority 1 but no lock later
        const Value v = step == 1 ? (origin < 3 ? 1 : 0) : kBottom;
        fx.deliver_ready(src, origin, v, 1, step);
      }
    }
  }
  // Step 3 sees only f+1 = 3 non-bottom values: adopt, do not decide.
  for (const NodeId origin : {0u, 1u, 2u, 3u, 4u}) {
    const Value v = origin < 3 ? 1 : kBottom;
    for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) {
      fx.deliver_ready(src, origin, v, 1, 3);
    }
  }
  EXPECT_TRUE(fx.ctx.decisions.empty());
  const auto inits = fx.ctx.sent_of<BrachaInit>();
  ASSERT_FALSE(inits.empty());
  EXPECT_EQ(inits.back()->round, 2u);
  EXPECT_EQ(inits.back()->value, 1u);  // adopted the f+1 value
}

TEST(AsyncBaUnitTest, EchoesOfASecondValueTallySeparately) {
  Fixture fx;
  // Four echoes of 1 for origin 6, then echoes of 0 from an overlapping set:
  // each value keeps its own voters, and a repeated vote counts once.
  for (const NodeId src : {1u, 2u, 3u, 4u}) fx.deliver_echo(src, 6, 1);
  for (const NodeId src : {1u, 2u, 3u, 3u, 4u}) fx.deliver_echo(src, 6, 0);
  EXPECT_TRUE(fx.ctx.sent_of<BrachaReady>().empty());
  fx.deliver_echo(5, 6, 0);  // 5th distinct echo of 0
  ASSERT_EQ(fx.ctx.sent_of<BrachaReady>().size(), 1u);
  EXPECT_EQ(fx.ctx.sent_of<BrachaReady>()[0]->value, 0u);
  fx.deliver_echo(5, 6, 1);  // 5th echo of 1: the ready already went out
  EXPECT_EQ(fx.ctx.sent_of<BrachaReady>().size(), 1u);
}

TEST(AsyncBaUnitTest, IgnoresOriginAtOrAboveN) {
  Fixture fx;
  for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) fx.deliver_echo(src, kN, 1);
  for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) {
    fx.deliver_ready(src, kN + 5, 1);
  }
  EXPECT_TRUE(fx.ctx.sent_of<BrachaReady>().empty());
  // The last valid origin is tracked as usual.
  for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) fx.deliver_echo(src, kN - 1, 1);
  ASSERT_EQ(fx.ctx.sent_of<BrachaReady>().size(), 1u);
  EXPECT_EQ(fx.ctx.sent_of<BrachaReady>()[0]->origin, kN - 1);
}

TEST(AsyncBaUnitTest, IgnoresStepOutsideOneToThree) {
  Fixture fx;
  for (const int step : {0, 4, 255}) {
    const auto s = static_cast<std::uint8_t>(step);
    fx.deliver_init(2, 1, s, 1);
    for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) {
      fx.deliver_echo(src, 6, 1, 1, s);
    }
    for (const NodeId src : {0u, 1u, 2u}) fx.deliver_ready(src, 5, 1, 1, s);
  }
  EXPECT_TRUE(fx.ctx.sent_of<BrachaEcho>().empty());
  EXPECT_TRUE(fx.ctx.sent_of<BrachaReady>().empty());
  fx.deliver_init(2, 1, 3, 1);  // step 3 is valid
  EXPECT_EQ(fx.ctx.sent_of<BrachaEcho>().size(), 1u);
}

TEST(AsyncBaUnitTest, IgnoresRoundZero) {
  Fixture fx;
  fx.deliver_init(2, 0, 1, 1);
  for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) fx.deliver_echo(src, 6, 1, 0);
  for (const NodeId src : {0u, 1u, 2u}) fx.deliver_ready(src, 5, 1, 0);
  EXPECT_TRUE(fx.ctx.sent_of<BrachaEcho>().empty());
  EXPECT_TRUE(fx.ctx.sent_of<BrachaReady>().empty());
}

TEST(AsyncBaUnitTest, TracksAFarFutureRoundInStateOfConstantSize) {
  // A round-indexed array would need memory in proportion to 2^40 here;
  // the round is only a lookup key, so the instance is tracked as usual.
  Fixture fx;
  constexpr std::uint64_t kFar = std::uint64_t{1} << 40;
  fx.deliver_init(2, kFar, 2, 1);
  ASSERT_EQ(fx.ctx.sent_of<BrachaEcho>().size(), 1u);
  EXPECT_EQ(fx.ctx.sent_of<BrachaEcho>()[0]->round, kFar);
  for (const NodeId src : {0u, 1u, 2u, 3u, 4u}) {
    fx.deliver_echo(src, 2, 1, kFar, 2);
  }
  ASSERT_EQ(fx.ctx.sent_of<BrachaReady>().size(), 1u);
  EXPECT_EQ(fx.ctx.sent_of<BrachaReady>()[0]->round, kFar);
  EXPECT_EQ(fx.ctx.sent_of<BrachaReady>()[0]->step, 2u);
}

TEST(AsyncBaUnitTest, RetransmitTimerRebroadcastsCurrentStep) {
  Fixture fx;
  ASSERT_FALSE(fx.ctx.timers.empty());
  EXPECT_EQ(fx.ctx.timers[0].delay, AsyncBaNode::kRetransmitFactor * kLambda);
  fx.deliver_init(2, 1, 1, 1);  // we echoed origin 2
  fx.ctx.clear_sent();
  fx.ctx.advance_to(fx.ctx.timers[0].delay);
  fx.ctx.fire(fx.node, fx.ctx.timers[0]);
  EXPECT_EQ(fx.ctx.sent_of<BrachaInit>().size(), 1u);   // own init again
  EXPECT_EQ(fx.ctx.sent_of<BrachaEcho>().size(), 1u);   // echo for origin 2
  ASSERT_EQ(fx.ctx.timers.size(), 2u);                  // re-armed
}

TEST(AsyncBaUnitTest, RetransmitSendsEchoesThenReadiesInOriginOrder) {
  Fixture fx;
  fx.deliver_init(4, 1, 1, 1);
  fx.deliver_init(2, 1, 1, 0);
  for (const NodeId origin : {5u, 1u}) {
    for (const NodeId src : {0u, 1u, 2u}) fx.deliver_ready(src, origin, 1);
  }
  fx.deliver_init(3, 2, 1, 1);  // a later round is not retransmitted
  fx.ctx.clear_sent();
  fx.ctx.advance_to(fx.ctx.timers[0].delay);
  fx.ctx.fire(fx.node, fx.ctx.timers[0]);
  std::vector<std::string> sent;
  for (const MockContext::Sent& s : fx.ctx.sent) {
    std::string line(s.payload->type());
    if (const auto* e = dynamic_cast<const BrachaEcho*>(s.payload.get())) {
      line += " " + std::to_string(e->origin) + "=" + std::to_string(e->value);
    }
    if (const auto* r = dynamic_cast<const BrachaReady*>(s.payload.get())) {
      line += " " + std::to_string(r->origin) + "=" + std::to_string(r->value);
    }
    sent.push_back(line);
  }
  EXPECT_EQ(sent, (std::vector<std::string>{
                      "asyncba/init", "asyncba/echo 2=0", "asyncba/echo 4=1",
                      "asyncba/ready 1=1", "asyncba/ready 5=1"}));
}

}  // namespace
}  // namespace bftsim::asyncba
