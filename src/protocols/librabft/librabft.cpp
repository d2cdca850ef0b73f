#include "protocols/librabft/librabft.hpp"

#include <algorithm>

#include "core/log.hpp"

namespace bftsim::librabft {

namespace {
constexpr std::uint64_t kViewTimerTag = 1;

using hotstuff::Proposal;
using hotstuff::Vote;
}  // namespace

LibraBftNode::LibraBftNode(NodeId id, const SimConfig& cfg) : id_(id), core_(id) {
  base_duration_ = from_ms(cfg.lambda_ms) * kBaseFactor;
}

void LibraBftNode::on_start(Context& ctx) {
  ctx.record_view(cur_view_);
  restart_timer(ctx);
  if (leader_of(cur_view_, ctx) == id_) propose(ctx);
}

void LibraBftNode::restart_timer(Context& ctx) {
  if (timer_ != 0) ctx.cancel_timer(timer_);
  const Time duration = base_duration_
                        << std::min(backoff_, kMaxBackoff);
  timer_ = ctx.set_timer(duration, kViewTimerTag);
}

void LibraBftNode::advance_to(View v, bool progress, Context& ctx) {
  if (v <= cur_view_) return;
  cur_view_ = v;
  if (progress) backoff_ = 0;
  ctx.record_view(cur_view_);
  restart_timer(ctx);
  if (leader_of(cur_view_, ctx) == id_) propose(ctx);
  pending_.erase(pending_.begin(), pending_.lower_bound(cur_view_));
  if (const auto it = pending_.find(cur_view_); it != pending_.end()) {
    const std::shared_ptr<const Block> block = std::move(it->second);
    pending_.erase(it);
    try_vote(*block, ctx);
  }
}

void LibraBftNode::try_vote(const Block& block, Context& ctx) {
  if (block.view != cur_view_ || block.view <= last_voted_) return;
  if (core_.missing_ancestor(block) || !core_.safe_to_vote(block)) return;
  last_voted_ = block.view;
  const Signature vote_sig =
      ctx.signer().sign(id_, hash_words({0x564fULL, block.view, block.id}));
  ctx.send(leader_of(block.view + 1, ctx),
           ctx.make_payload<Vote>(block.view, block.id, vote_sig));
}

void LibraBftNode::propose(Context& ctx) {
  ctx.broadcast(core_.make_proposal(core_.make_block(cur_view_, ctx), ctx));
}

void LibraBftNode::on_message(const Message& msg, Context& ctx) {
  if (core_.handle_catchup(msg, ctx)) return;
  switch (msg.type_id()) {
    case PayloadType::kHotStuffProposal: handle_proposal(msg, ctx); break;
    case PayloadType::kHotStuffVote: handle_vote(msg, ctx); break;
    case PayloadType::kLibraTimeout: handle_timeout(msg, ctx); break;
    case PayloadType::kLibraTimeoutCertificate:
      handle_tc(msg.as<TcMsg>()->tc, ctx);
      break;
    default: break;
  }
}

void LibraBftNode::handle_proposal(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<Proposal>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  if (leader_of(m.block.view, ctx) != msg.src) return;

  core_.store(m.block, msg.payload);
  if (core_.missing_ancestor(m.block)) {
    core_.request_block(m.block.parent, msg.src, ctx);
  }

  // Certificate-driven synchronization: a QC for view v moves us to v+1.
  const View justify_view = m.block.justify.view();
  core_.process_qc(m.block.justify, ctx);
  if (justify_view >= cur_view_) advance_to(justify_view + 1, /*progress=*/true, ctx);

  if (m.block.view > cur_view_) {
    // Behind (e.g. the TC that advanced the proposer is still in flight):
    // park the proposal until a certificate moves us there.
    pending_.emplace(m.block.view,
                     std::shared_ptr<const Block>(msg.payload, &m.block));
    return;
  }
  try_vote(m.block, ctx);
}

void LibraBftNode::handle_vote(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<Vote>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  if (leader_of(m.view + 1, ctx) != id_) return;

  const auto qc = core_.add_vote(m.view, m.block_id, msg.src, ctx);
  if (!qc.has_value()) return;
  core_.process_qc(*qc, ctx);
  if (qc->view() >= cur_view_) {
    advance_to(qc->view() + 1, /*progress=*/true, ctx);
  }
}

void LibraBftNode::handle_timeout(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<TimeoutMsg>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  if (m.view < cur_view_) return;
  if (!timeout_votes_.add_reaches(m.view, msg.src, Core::quorum(ctx))) return;
  if (!tc_formed_.mark(m.view)) return;

  const TimeoutCert tc(ctx.arena(), m.view, timeout_votes_.voters(m.view));
  // Rebroadcast the certificate so laggards jump with us.
  ctx.broadcast(ctx.make_payload<TcMsg>(tc), /*include_self=*/false);
  handle_tc(tc, ctx);
}

void LibraBftNode::handle_tc(const TimeoutCert& tc, Context& ctx) {
  if (!tc.valid(Core::quorum(ctx))) return;
  if (tc.view() < cur_view_) return;
  advance_to(tc.view() + 1, /*progress=*/false, ctx);
}

void LibraBftNode::on_timer(const TimerEvent& ev, Context& ctx) {
  if (ev.tag != kViewTimerTag || ev.id != timer_) return;
  ++backoff_;  // exponential back-off until a QC resets it
  restart_timer(ctx);
  const Signature sig =
      ctx.signer().sign(id_, hash_words({0x544fULL, cur_view_}));
  ctx.broadcast(ctx.make_payload<TimeoutMsg>(cur_view_, sig));
}

std::unique_ptr<Node> make_librabft_node(NodeId id, const SimConfig& cfg) {
  return std::make_unique<LibraBftNode>(id, cfg);
}

}  // namespace bftsim::librabft
