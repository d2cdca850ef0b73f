// White-box unit tests of the PBFT node: each test drives one replica
// through a precise message schedule with MockContext and asserts the
// exact outputs — quorum edges, equivocation handling, signature checks,
// view-change triggers.
#include "protocols/pbft/pbft.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/mock_context.hpp"

namespace bftsim::pbft {
namespace {

using bftsim::testing::MockContext;

constexpr std::uint32_t kN = 4;   // f = 1, quorum = 3
constexpr std::uint32_t kF = 1;
constexpr Time kLambda = from_ms(1000);

struct Fixture {
  Fixture(NodeId id = 1) : ctx(id, kN, kF, kLambda), node(id, config()) {
    node.on_start(ctx);
  }

  static SimConfig config() {
    SimConfig cfg;
    cfg.protocol = "pbft";
    cfg.n = kN;
    cfg.lambda_ms = 1000;
    return cfg;
  }

  std::shared_ptr<const PrePrepare> pre_prepare(NodeId leader, View view,
                                                std::uint64_t seq, Value value) {
    return std::make_shared<const PrePrepare>(
        view, seq, value,
        ctx.signer().sign(leader, hash_words({0x5050ULL, view, seq, value})));
  }
  std::shared_ptr<const Prepare> prepare(NodeId voter, View view,
                                         std::uint64_t seq, Value value) {
    return std::make_shared<const Prepare>(
        view, seq, value,
        ctx.signer().sign(voter, hash_words({0x5052ULL, view, seq, value})));
  }
  std::shared_ptr<const Commit> commit(NodeId voter, View view,
                                       std::uint64_t seq, Value value) {
    return std::make_shared<const Commit>(
        view, seq, value,
        ctx.signer().sign(voter, hash_words({0x434dULL, view, seq, value})));
  }

  MockContext ctx;
  PbftNode node;
};

TEST(PbftUnitTest, FollowerEchoesPrePrepareWithPrepare) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 42));
  const auto prepares = fx.ctx.sent_of<Prepare>();
  ASSERT_EQ(prepares.size(), 1u);
  EXPECT_EQ(prepares[0]->view, 0u);
  EXPECT_EQ(prepares[0]->seq, 0u);
  EXPECT_EQ(prepares[0]->value, 42u);
}

TEST(PbftUnitTest, RejectsPrePrepareFromNonLeader) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 2, fx.pre_prepare(2, 0, 0, 42));  // leader of v0 is 0
  EXPECT_TRUE(fx.ctx.sent_of<Prepare>().empty());
}

TEST(PbftUnitTest, RejectsBadSignature) {
  Fixture fx;
  auto forged = std::make_shared<const PrePrepare>(
      0, 0, 42, Signature{0, hash_words({0x5050ULL, 0ULL, 0ULL, 42ULL}), 0xBAD});
  fx.ctx.deliver(fx.node, 0, std::move(forged));
  EXPECT_TRUE(fx.ctx.sent_of<Prepare>().empty());
}

TEST(PbftUnitTest, IgnoresEquivocatingSecondPrePrepare) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 42));
  fx.ctx.clear_sent();
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 43));  // conflicting
  EXPECT_TRUE(fx.ctx.sent_of<Prepare>().empty());
}

TEST(PbftUnitTest, CommitsExactlyAtPrepareQuorum) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 42));  // + own prepare is
  // broadcast but not self-counted by the mock, so feed three peers.
  fx.ctx.deliver(fx.node, 0, fx.prepare(0, 0, 0, 42));
  EXPECT_TRUE(fx.ctx.sent_of<Commit>().empty());
  fx.ctx.deliver(fx.node, 2, fx.prepare(2, 0, 0, 42));
  EXPECT_TRUE(fx.ctx.sent_of<Commit>().empty());  // 2 < quorum 3
  fx.ctx.deliver(fx.node, 3, fx.prepare(3, 0, 0, 42));
  EXPECT_EQ(fx.ctx.sent_of<Commit>().size(), 1u);  // exactly at the edge
}

TEST(PbftUnitTest, MixedValuePreparesDoNotReachQuorum) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 0, fx.prepare(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 2, fx.prepare(2, 0, 0, 99));  // different value
  fx.ctx.deliver(fx.node, 3, fx.prepare(3, 0, 0, 99));
  EXPECT_TRUE(fx.ctx.sent_of<Commit>().empty());
}

TEST(PbftUnitTest, DuplicatePreparesFromOneVoterCountOnce) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 0, fx.prepare(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 0, fx.prepare(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 0, fx.prepare(0, 0, 0, 42));
  EXPECT_TRUE(fx.ctx.sent_of<Commit>().empty());
}

TEST(PbftUnitTest, DecidesOnCommitQuorumAndProposesNothingAsFollower) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.commit(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 2, fx.commit(2, 0, 0, 42));
  EXPECT_TRUE(fx.ctx.decisions.empty());
  fx.ctx.deliver(fx.node, 3, fx.commit(3, 0, 0, 42));
  ASSERT_EQ(fx.ctx.decisions.size(), 1u);
  EXPECT_EQ(fx.ctx.decisions[0], 42u);
  EXPECT_TRUE(fx.ctx.sent_of<PrePrepare>().empty());  // node 1 is a follower
}

TEST(PbftUnitTest, CommitCertificateWorksAcrossViews) {
  // A laggard in view 0 accepts a 2f+1 commit certificate from view 3.
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.commit(0, 3, 0, 7));
  fx.ctx.deliver(fx.node, 2, fx.commit(2, 3, 0, 7));
  fx.ctx.deliver(fx.node, 3, fx.commit(3, 3, 0, 7));
  ASSERT_EQ(fx.ctx.decisions.size(), 1u);
  EXPECT_EQ(fx.ctx.decisions[0], 7u);
}

TEST(PbftUnitTest, LeaderProposesOnStart) {
  Fixture fx{0};  // node 0 leads view 0
  const auto proposals = fx.ctx.sent_of<PrePrepare>();
  ASSERT_EQ(proposals.size(), 1u);
  EXPECT_EQ(proposals[0]->view, 0u);
  EXPECT_EQ(proposals[0]->seq, 0u);
}

TEST(PbftUnitTest, ViewTimerTriggersViewChangeBroadcast) {
  Fixture fx;
  ASSERT_FALSE(fx.ctx.timers.empty());
  const auto timer = fx.ctx.timers.front();
  EXPECT_EQ(timer.delay, PbftNode::kTimeoutFactor * kLambda);
  fx.ctx.advance_to(timer.delay);
  fx.ctx.fire(fx.node, timer);
  const auto vcs = fx.ctx.sent_of<ViewChange>();
  ASSERT_EQ(vcs.size(), 1u);
  EXPECT_EQ(vcs[0]->new_view, 1u);
  EXPECT_FALSE(vcs[0]->has_prepared);
}

TEST(PbftUnitTest, ViewChangeCarriesPreparedValue) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 0, fx.prepare(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 2, fx.prepare(2, 0, 0, 42));
  fx.ctx.deliver(fx.node, 3, fx.prepare(3, 0, 0, 42));  // prepared now
  const auto timer = fx.ctx.timers.front();
  fx.ctx.advance_to(timer.delay);
  fx.ctx.fire(fx.node, timer);
  const auto vcs = fx.ctx.sent_of<ViewChange>();
  ASSERT_EQ(vcs.size(), 1u);
  EXPECT_TRUE(vcs[0]->has_prepared);
  EXPECT_EQ(vcs[0]->prepared_value, 42u);
}

TEST(PbftUnitTest, NewLeaderCompletesViewChangeAtQuorum) {
  Fixture fx;  // node 1 leads view 1
  auto vc = [&](NodeId from) {
    return std::make_shared<const ViewChange>(
        1, 0, false, 0, kBottom,
        fx.ctx.signer().sign(
            from, hash_words({0x5643ULL, 1ULL, 0ULL, 0ULL, 0ULL, kBottom})));
  };
  fx.ctx.deliver(fx.node, 0, vc(0));
  fx.ctx.deliver(fx.node, 2, vc(2));
  EXPECT_TRUE(fx.ctx.sent_of<NewView>().empty());
  fx.ctx.deliver(fx.node, 3, vc(3));
  EXPECT_EQ(fx.ctx.sent_of<NewView>().size(), 1u);
}

TEST(PbftUnitTest, StaleSequencesIgnoredAfterDecision) {
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.commit(0, 0, 0, 42));
  fx.ctx.deliver(fx.node, 2, fx.commit(2, 0, 0, 42));
  fx.ctx.deliver(fx.node, 3, fx.commit(3, 0, 0, 42));
  fx.ctx.clear_sent();
  // Pre-prepare for the already-decided sequence is ignored.
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 77));
  EXPECT_TRUE(fx.ctx.sent_of<Prepare>().empty());
}

// --- decided-instance retirement --------------------------------------------

TEST(PbftUnitTest, LatePrepareQuorumAfterDecisionStillSendsOwnCommit) {
  // The node decides seq 0 on 2f+1 commits before its own prepare quorum
  // forms. The prepares that complete the quorum afterwards must still make
  // it broadcast its Commit: that instance sits below the working sequence
  // but is not dead yet.
  Fixture fx;
  fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, 0, 42));
  for (const NodeId voter : {0u, 2u, 3u}) {
    fx.ctx.deliver(fx.node, voter, fx.commit(voter, 0, 0, 42));
  }
  ASSERT_EQ(fx.ctx.decisions.size(), 1u);
  EXPECT_TRUE(fx.ctx.sent_of<Commit>().empty());

  for (const NodeId voter : {0u, 2u, 3u}) {
    fx.ctx.deliver(fx.node, voter, fx.prepare(voter, 0, 0, 42));
  }
  const auto commits = fx.ctx.sent_of<Commit>();
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0]->view, 0u);
  EXPECT_EQ(commits[0]->seq, 0u);
  EXPECT_EQ(commits[0]->value, 42u);
  EXPECT_EQ(fx.ctx.decisions.size(), 1u);  // no second decision

  fx.ctx.deliver(fx.node, 2, fx.prepare(2, 0, 0, 42));  // duplicate: inert
  EXPECT_EQ(fx.ctx.sent_of<Commit>().size(), 1u);
}

TEST(PbftUnitTest, OutOfOrderCommitQuorumFlushesLowestCommittedView) {
  // Seq 1 commits in view 3 and then in view 1 before seq 0 decides. When
  // seq 0 decides, the flush decides seq 1 with the lowest committed view's
  // value. (The two values differ only so the choice is observable.)
  Fixture fx;
  for (const NodeId voter : {0u, 2u, 3u}) {
    fx.ctx.deliver(fx.node, voter, fx.commit(voter, 3, 1, 77));
  }
  for (const NodeId voter : {0u, 2u, 3u}) {
    fx.ctx.deliver(fx.node, voter, fx.commit(voter, 1, 1, 66));
  }
  for (const NodeId voter : {0u, 2u, 3u}) {
    fx.ctx.deliver(fx.node, voter, fx.commit(voter, 0, 2, 55));
  }
  EXPECT_TRUE(fx.ctx.decisions.empty());

  for (const NodeId voter : {0u, 2u, 3u}) {
    fx.ctx.deliver(fx.node, voter, fx.commit(voter, 0, 0, 42));
  }
  ASSERT_EQ(fx.ctx.decisions.size(), 3u);
  EXPECT_EQ(fx.ctx.decisions[0], 42u);
  EXPECT_EQ(fx.ctx.decisions[1], 66u);
  EXPECT_EQ(fx.ctx.decisions[2], 55u);
}

TEST(PbftUnitTest, InstanceCountStaysBoundedOverLongRuns) {
  // 500 decisions, each in the order that leaves an instance live past its
  // decision (commits before prepares), plus a stray commit for an old
  // (view, seq) that never existed. State must not grow with the run.
  Fixture fx;
  constexpr std::uint64_t kDecisions = 500;
  std::size_t max_live = 0;
  for (std::uint64_t seq = 0; seq < kDecisions; ++seq) {
    const Value value = 1000 + seq;
    fx.ctx.deliver(fx.node, 0, fx.pre_prepare(0, 0, seq, value));
    for (const NodeId voter : {0u, 2u, 3u}) {
      fx.ctx.deliver(fx.node, voter, fx.commit(voter, 0, seq, value));
    }
    for (const NodeId voter : {0u, 2u, 3u}) {
      fx.ctx.deliver(fx.node, voter, fx.prepare(voter, 0, seq, value));
    }
    fx.ctx.deliver(fx.node, 2, fx.commit(2, 1, seq, value));
    max_live = std::max(max_live, fx.node.live_instances());
  }
  ASSERT_EQ(fx.ctx.decisions.size(), kDecisions);
  EXPECT_EQ(fx.ctx.sent_of<Commit>().size(), kDecisions);
  EXPECT_LE(max_live, 2u);
}

}  // namespace
}  // namespace bftsim::pbft
