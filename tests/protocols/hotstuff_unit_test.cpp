// White-box unit tests of the chained-HotStuff core and the HotStuff+NS
// node: vote rules, QC formation edges, the three-chain commit rule, and
// catch-up, driven message by message through MockContext.
#include "protocols/hotstuff/core.hpp"

#include <gtest/gtest.h>

#include "common/hotstuff_blocks.hpp"
#include "common/mock_context.hpp"
#include "protocols/hotstuff/hotstuff_ns.hpp"

namespace bftsim::hotstuff {
namespace {

using bftsim::testing::MockContext;
using bftsim::testing::block_of;
using bftsim::testing::store_block;
using bftsim::testing::wrap_block;

constexpr std::uint32_t kN = 4;  // f = 1, QC quorum = n - f = 3
constexpr Time kLambda = from_ms(1000);

Block make_block(Value id, Value parent, View view, std::uint64_t height,
                 QuorumCert justify) {
  Block b;
  b.id = id;
  b.parent = parent;
  b.view = view;
  b.value = id * 1000;
  b.height = height;
  b.justify = std::move(justify);
  return b;
}

/// Backs the certificates the tests build by hand; it lives for the whole
/// test program, like a run arena outlives the run's certificates.
Arena& test_arena() {
  static Arena arena;
  return arena;
}

QuorumCert qc_for(View view, Value block) {
  return QuorumCert(test_arena(), view, block, {0, 1, 2});
}

TEST(BlockStoreTest, FindsEveryBlockAcrossGrowthAndKeepsTheFirstCopy) {
  BlockStore store;
  for (Value id = 1; id <= 1000; ++id) {
    store_block(store, make_block(id, id - 1, id, id, QuorumCert::genesis()));
  }
  // A second block with a stored id is ignored, as std::map::emplace would.
  store_block(store, make_block(7, 0, 99, 99, QuorumCert::genesis()));
  for (Value id = 1; id <= 1000; ++id) {
    const Block* b = store.find(id);
    ASSERT_NE(b, nullptr) << id;
    EXPECT_EQ(b->id, id);
    EXPECT_EQ(b->view, id);
  }
  EXPECT_EQ(store.find(0), nullptr);
  EXPECT_EQ(store.find(1001), nullptr);
  EXPECT_EQ(store.find(kGenesisId), nullptr);
}

TEST(BlockStoreTest, SharesTheCarriedBlockAndOutlivesTheMessage) {
  BlockStore store;
  const Block* stored = nullptr;
  {
    Message msg;
    msg.src = 1;
    msg.payload = wrap_block(make_block(5, kGenesisId, 1, 1, qc_for(0, 0)));
    store.insert(block_of(msg.payload), msg.payload);
    // The slot points into the payload, no copy, and holds a reference.
    stored = &block_of(msg.payload);
    EXPECT_EQ(store.find(5), stored);
    EXPECT_EQ(msg.payload.use_count(), 2);
  }  // the message, its payload pointer and every other reference are gone
  ASSERT_EQ(store.find(5), stored);
  EXPECT_EQ(stored->id, 5u);
  EXPECT_EQ(stored->view, 1u);
  EXPECT_EQ(stored->value, 5000u);
  EXPECT_EQ(stored->justify.signers().size(), 3u);
}

TEST(BlockStoreTest, DuplicateIdKeepsTheFirstBlockAndDropsTheSecond) {
  BlockStore store;
  const PayloadPtr first = wrap_block(make_block(7, 0, 1, 1, qc_for(0, 0)));
  const PayloadPtr second = wrap_block(make_block(7, 0, 99, 99, qc_for(0, 0)));
  store.insert(block_of(first), first);
  store.insert(block_of(second), second);
  EXPECT_EQ(store.find(7), &block_of(first));
  EXPECT_EQ(store.find(7)->view, 1u);
  EXPECT_EQ(first.use_count(), 2);
  EXPECT_EQ(second.use_count(), 1);  // the store kept no reference
}

TEST(BlockStoreTest, FoundPointersSurviveTableGrowth) {
  BlockStore store;
  store_block(store, make_block(1, kGenesisId, 1, 1, QuorumCert::genesis()));
  const Block* first = store.find(1);
  ASSERT_NE(first, nullptr);
  for (Value id = 2; id <= 1000; ++id) {  // the table doubles six times
    store_block(store, make_block(id, id - 1, id, id, QuorumCert::genesis()));
  }
  EXPECT_EQ(store.find(1), first);
  EXPECT_EQ(first->id, 1u);
  EXPECT_EQ(first->height, 1u);
}

TEST(BlockStoreTest, EachBlockOfOneResponseIsFoundOnItsOwn) {
  MockContext ctx(0, kN, 1, kLambda);
  Core core(0);
  const Block b1 = make_block(1, kGenesisId, 1, 1, QuorumCert::genesis());
  const Block b2 = make_block(2, 1, 2, 2, qc_for(1, 1));
  const Block b3 = make_block(3, 2, 3, 3, qc_for(2, 2));
  const BlockResponse* resp = nullptr;
  {
    Message response;
    response.src = 2;
    response.dst = 0;
    response.payload =
        make_payload<BlockResponse>(std::vector<Block>{b3, b2, b1});
    resp = response.as<BlockResponse>();
    EXPECT_TRUE(core.handle_catchup(response, ctx));
    // One reference per stored block, all to the one response.
    EXPECT_EQ(response.payload.use_count(), 4);
  }
  for (std::size_t i = 0; i < resp->blocks.size(); ++i) {
    const Block& carried = resp->blocks[i];
    ASSERT_EQ(core.find(carried.id), &carried) << carried.id;
    EXPECT_EQ(core.find(carried.id)->height, carried.id);
  }
}

struct ChainFixture {
  ChainFixture() : ctx(0, kN, 1, kLambda), core(0) {
    // genesis <- b1(v1) <- b2(v2) <- b3(v3)
    b1 = make_block(1, kGenesisId, 1, 1, QuorumCert::genesis());
    b2 = make_block(2, 1, 2, 2, qc_for(1, 1));
    b3 = make_block(3, 2, 3, 3, qc_for(2, 2));
    store_block(core, b1);
    store_block(core, b2);
    store_block(core, b3);
  }

  MockContext ctx;
  Core core;
  Block b1, b2, b3;
};

TEST(HotStuffCoreUnitTest, ThreeChainCommitsTheTail) {
  ChainFixture fx;
  fx.core.process_qc(qc_for(3, 3), fx.ctx);  // QC(b3): 1-2-3 consecutive
  ASSERT_EQ(fx.ctx.decisions.size(), 1u);
  EXPECT_EQ(fx.ctx.decisions[0], fx.b1.value);
  EXPECT_EQ(fx.core.committed_height(), 1u);
  EXPECT_EQ(fx.core.last_committed_view(), 1u);
}

TEST(HotStuffCoreUnitTest, NonConsecutiveViewsDoNotCommit) {
  MockContext ctx(0, kN, 1, kLambda);
  Core core(0);
  const Block b1 = make_block(1, kGenesisId, 1, 1, QuorumCert::genesis());
  const Block b2 = make_block(2, 1, 3, 2, qc_for(1, 1));  // view gap 1 -> 3
  const Block b3 = make_block(3, 2, 4, 3, qc_for(3, 2));
  store_block(core, b1);
  store_block(core, b2);
  store_block(core, b3);
  core.process_qc(qc_for(4, 3), ctx);
  EXPECT_TRUE(ctx.decisions.empty());  // 4-3 consecutive but 3-1 not
}

TEST(HotStuffCoreUnitTest, CommitReportsAncestorsInOrder) {
  ChainFixture fx;
  const Block b4 = make_block(4, 3, 4, 4, qc_for(3, 3));
  const Block b5 = make_block(5, 4, 5, 5, qc_for(4, 4));
  store_block(fx.core, b4);
  store_block(fx.core, b5);
  fx.core.process_qc(qc_for(5, 5), fx.ctx);  // commits b1, b2, b3 at once
  ASSERT_EQ(fx.ctx.decisions.size(), 3u);
  EXPECT_EQ(fx.ctx.decisions[0], fx.b1.value);
  EXPECT_EQ(fx.ctx.decisions[1], fx.b2.value);
  EXPECT_EQ(fx.ctx.decisions[2], fx.b3.value);
}

TEST(HotStuffCoreUnitTest, InvalidQcIsRejected) {
  ChainFixture fx;
  const QuorumCert duplicate(test_arena(), 3, 3, {0, 0, 1});
  EXPECT_FALSE(fx.core.process_qc(duplicate, fx.ctx));
  EXPECT_TRUE(fx.ctx.decisions.empty());
  const QuorumCert short_of_quorum(test_arena(), 3, 3, {0, 1});
  EXPECT_FALSE(fx.core.process_qc(short_of_quorum, fx.ctx));
  EXPECT_EQ(fx.core.high_qc().view(), 0u);
}

TEST(HotStuffCoreUnitTest, HighQcIsMonotone) {
  ChainFixture fx;
  EXPECT_TRUE(fx.core.process_qc(qc_for(2, 2), fx.ctx));
  EXPECT_EQ(fx.core.high_qc().view(), 2u);
  EXPECT_FALSE(fx.core.process_qc(qc_for(1, 1), fx.ctx));  // no regression
  EXPECT_EQ(fx.core.high_qc().view(), 2u);
}

TEST(HotStuffCoreUnitTest, LockFollowsTwoChain) {
  ChainFixture fx;
  fx.core.process_qc(qc_for(3, 3), fx.ctx);
  // QC(b3): b3.justify certifies b2 => locked on b2's certificate.
  EXPECT_EQ(fx.core.locked_qc().view(), 2u);
  EXPECT_EQ(fx.core.locked_qc().block(), 2u);
}

TEST(HotStuffCoreUnitTest, SafeToVoteBranches) {
  ChainFixture fx;
  fx.core.process_qc(qc_for(3, 3), fx.ctx);  // locked on b2 (view 2)

  // Safety branch: extends the locked block.
  const Block extending = make_block(9, 3, 9, 4, qc_for(2, 2));
  store_block(fx.core, extending);
  EXPECT_TRUE(fx.core.safe_to_vote(extending));

  // Liveness branch: conflicting chain but newer justify.
  const Block fork = make_block(10, kGenesisId, 10, 1, qc_for(3, 3));
  store_block(fx.core, fork);
  EXPECT_TRUE(fx.core.safe_to_vote(fork));

  // Neither: conflicting chain with an old justify.
  const Block unsafe = make_block(11, kGenesisId, 11, 1,
                                  QuorumCert::genesis());
  store_block(fx.core, unsafe);
  EXPECT_FALSE(fx.core.safe_to_vote(unsafe));
}

TEST(HotStuffCoreUnitTest, AddVoteFormsQcExactlyOnce) {
  ChainFixture fx;
  EXPECT_FALSE(fx.core.add_vote(3, 3, 0, fx.ctx).has_value());
  EXPECT_FALSE(fx.core.add_vote(3, 3, 1, fx.ctx).has_value());
  const auto qc = fx.core.add_vote(3, 3, 2, fx.ctx);  // third distinct voter
  ASSERT_TRUE(qc.has_value());
  EXPECT_EQ(qc->view(), 3u);
  EXPECT_EQ(qc->block(), 3u);
  EXPECT_TRUE(qc->valid(3));
  // The QC's body is built once, ascending, from the vote tracker.
  ASSERT_EQ(qc->signers().size(), 3u);
  EXPECT_EQ(qc->signers()[0], 0u);
  EXPECT_EQ(qc->signers()[2], 2u);
  EXPECT_EQ(qc->digest(), QuorumCert(test_arena(), 3, 3, {0, 1, 2}).digest());
  // A fourth vote does not mint a second certificate.
  EXPECT_FALSE(fx.core.add_vote(3, 3, 3, fx.ctx).has_value());
}

TEST(HotStuffCoreUnitTest, StoredCopiesShareOneSignerBody) {
  MockContext ctx(0, kN, 1, kLambda);
  Core core(0);
  (void)core.add_vote(1, kGenesisId, 0, ctx);
  (void)core.add_vote(1, kGenesisId, 1, ctx);
  const auto qc = core.add_vote(1, kGenesisId, 2, ctx);
  ASSERT_TRUE(qc.has_value());
  core.process_qc(*qc, ctx);

  // 100 blocks justified by the one QC, plus high_qc and a fresh proposal:
  // all copies point at the body add_vote built, and none allocates.
  const std::size_t arena_bytes = ctx.arena().bytes_allocated();
  for (Value id = 1; id <= 100; ++id) {
    store_block(core, make_block(id, kGenesisId, 2, 1, *qc));
  }
  for (Value id = 1; id <= 100; ++id) {
    ASSERT_NE(core.find(id), nullptr);
    EXPECT_EQ(core.find(id)->justify.body(), qc->body());
  }
  EXPECT_EQ(core.high_qc().body(), qc->body());
  EXPECT_EQ(core.make_block(2, ctx).justify.body(), qc->body());
  EXPECT_EQ(ctx.arena().bytes_allocated(), arena_bytes);
}

TEST(HotStuffCoreUnitTest, DuplicateVotesDoNotFormQc) {
  ChainFixture fx;
  EXPECT_FALSE(fx.core.add_vote(3, 3, 0, fx.ctx).has_value());
  EXPECT_FALSE(fx.core.add_vote(3, 3, 0, fx.ctx).has_value());
  EXPECT_FALSE(fx.core.add_vote(3, 3, 0, fx.ctx).has_value());
}

TEST(HotStuffCoreUnitTest, MissingAncestorDetectionAndCatchup) {
  MockContext ctx(0, kN, 1, kLambda);
  Core core(0);
  const Block b1 = make_block(1, kGenesisId, 1, 1, QuorumCert::genesis());
  const Block b2 = make_block(2, 1, 2, 2, qc_for(1, 1));
  const Block b3 = make_block(3, 2, 3, 3, qc_for(2, 2));
  store_block(core, b3);  // b1, b2 missing
  EXPECT_TRUE(core.missing_ancestor(b3));

  core.request_block(b3.parent, /*from=*/2, ctx);
  ASSERT_EQ(ctx.sent_of<BlockRequest>().size(), 1u);
  EXPECT_EQ(ctx.sent_of<BlockRequest>()[0]->block_id, 2u);
  // Requests are deduplicated.
  core.request_block(b3.parent, 2, ctx);
  EXPECT_EQ(ctx.sent_of<BlockRequest>().size(), 1u);

  // The response fills the gap and releases the pending commit.
  core.process_qc(qc_for(3, 3), ctx);  // cannot commit yet (gap)
  EXPECT_TRUE(ctx.decisions.empty());
  Message response;
  response.src = 2;
  response.dst = 0;
  response.payload = make_payload<BlockResponse>(std::vector<Block>{b2, b1});
  EXPECT_TRUE(core.handle_catchup(response, ctx));
  EXPECT_FALSE(core.missing_ancestor(b3));
  ASSERT_EQ(ctx.decisions.size(), 1u);  // b1 committed after the fill
}

TEST(HotStuffCoreUnitTest, CatchupResponderServesChain) {
  ChainFixture fx;
  Message request;
  request.src = 3;
  request.dst = 0;
  request.payload = make_payload<BlockRequest>(Value{3});
  EXPECT_TRUE(fx.core.handle_catchup(request, fx.ctx));
  const auto responses = fx.ctx.sent_of<BlockResponse>();
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0]->blocks.size(), 3u);  // b3, b2, b1 (genesis excluded)
  EXPECT_EQ(responses[0]->blocks[0].id, 3u);
  EXPECT_EQ(responses[0]->blocks[2].id, 1u);
}

// --- HotStuff+NS node-level unit tests ------------------------------------------

TEST(HotStuffNsUnitTest, LeaderOfViewOneProposesOnStart) {
  SimConfig cfg;
  cfg.protocol = "hotstuff-ns";
  cfg.n = kN;
  cfg.lambda_ms = 1000;
  MockContext ctx(1, kN, 1, kLambda);  // leader(1) = 1 % 4 = 1
  HotStuffNsNode node(1, cfg);
  node.on_start(ctx);
  ASSERT_EQ(ctx.sent_of<Proposal>().size(), 1u);
  EXPECT_EQ(ctx.sent_of<Proposal>()[0]->block.view, 1u);
  ASSERT_FALSE(ctx.timers.empty());
  EXPECT_EQ(ctx.timers[0].delay, HotStuffNsNode::kBaseFactor * kLambda);
}

TEST(HotStuffNsUnitTest, FollowerVotesToNextLeader) {
  SimConfig cfg;
  cfg.protocol = "hotstuff-ns";
  cfg.n = kN;
  cfg.lambda_ms = 1000;
  MockContext leader_ctx(1, kN, 1, kLambda);
  HotStuffNsNode leader(1, cfg);
  leader.on_start(leader_ctx);
  const auto proposal = leader_ctx.sent;  // grab the signed proposal payload

  MockContext ctx(3, kN, 1, kLambda);
  HotStuffNsNode follower(3, cfg);
  follower.on_start(ctx);
  ctx.clear_sent();
  ASSERT_FALSE(proposal.empty());
  Message msg;
  msg.src = 1;
  msg.dst = 3;
  msg.payload = proposal.front().payload;
  follower.on_message(msg, ctx);

  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].dst, 2u);  // leader(view 2) = 2
  EXPECT_NE(dynamic_cast<const Vote*>(ctx.sent[0].payload.get()), nullptr);
}

TEST(HotStuffNsUnitTest, FollowerRejectsForgedProposal) {
  SimConfig cfg;
  cfg.protocol = "hotstuff-ns";
  cfg.n = kN;
  cfg.lambda_ms = 1000;
  MockContext ctx(3, kN, 1, kLambda);
  HotStuffNsNode follower(3, cfg);
  follower.on_start(ctx);
  ctx.clear_sent();

  Block b;
  b.id = 99;
  b.parent = kGenesisId;
  b.view = 1;
  b.height = 1;
  b.justify = QuorumCert::genesis();
  Message msg;
  msg.src = 1;
  msg.dst = 3;
  msg.payload = make_payload<Proposal>(b, Signature{1, b.digest(), 0xBAD});
  follower.on_message(msg, ctx);
  EXPECT_TRUE(ctx.sent.empty());
}

}  // namespace
}  // namespace bftsim::hotstuff
