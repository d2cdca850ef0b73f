#include "protocols/hotstuff/hotstuff_ns.hpp"

#include <algorithm>

#include "core/log.hpp"

namespace bftsim::hotstuff {

namespace {
constexpr std::uint64_t kViewTimerTag = 1;
}

HotStuffNsNode::HotStuffNsNode(NodeId id, const SimConfig& cfg)
    : id_(id), core_(id) {
  base_duration_ = from_ms(cfg.lambda_ms) * kBaseFactor;
}

void HotStuffNsNode::on_start(Context& ctx) { enter_view(1, ctx); }

void HotStuffNsNode::enter_view(View v, Context& ctx) {
  cur_view_ = v;
  ctx.record_view(cur_view_);
  if (timer_ != 0) ctx.cancel_timer(timer_);
  timer_ = ctx.set_timer(duration_of(cur_view_), kViewTimerTag);
  if (leader_of(cur_view_, ctx) == id_) propose(ctx);
}

void HotStuffNsNode::propose(Context& ctx) {
  ctx.broadcast(core_.make_proposal(core_.make_block(cur_view_, ctx), ctx));
}

void HotStuffNsNode::on_message(const Message& msg, Context& ctx) {
  if (core_.handle_catchup(msg, ctx)) return;
  switch (msg.type_id()) {
    case PayloadType::kHotStuffProposal: handle_proposal(msg, ctx); break;
    case PayloadType::kHotStuffVote: handle_vote(msg, ctx); break;
    default: break;
  }
}

void HotStuffNsNode::try_vote(const Block& block, Context& ctx) {
  if (block.view != cur_view_ || block.view <= last_voted_) return;
  if (core_.missing_ancestor(block) || !core_.safe_to_vote(block)) return;
  last_voted_ = block.view;
  const Signature vote_sig =
      ctx.signer().sign(id_, hash_words({0x564fULL, block.view, block.id}));
  ctx.send(leader_of(block.view + 1, ctx),
           ctx.make_payload<Vote>(block.view, block.id, vote_sig));
}

void HotStuffNsNode::handle_proposal(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<Proposal>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  if (leader_of(m.block.view, ctx) != msg.src) return;

  core_.store(m.block, msg.payload);
  if (core_.missing_ancestor(m.block)) {
    core_.request_block(m.block.parent, msg.src, ctx);
  }

  // Process the justification first: commits apply regardless of view
  // (passive catch-up), and a QC for our current view advances us into the
  // proposal's view (optimistic responsiveness).
  const View justify_view = m.block.justify.view();
  core_.process_qc(m.block.justify, ctx);
  if (justify_view == cur_view_) enter_view(cur_view_ + 1, ctx);

  try_vote(m.block, ctx);
}

void HotStuffNsNode::handle_vote(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<Vote>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  if (leader_of(m.view + 1, ctx) != id_) return;  // votes go to the next leader

  const auto qc = core_.add_vote(m.view, m.block_id, msg.src, ctx);
  if (!qc.has_value()) return;
  core_.process_qc(*qc, ctx);
  // Advance (and propose — we lead qc.view + 1) only when the certificate
  // is for our current view; if our timer already pushed us past it the
  // certificate is wasted for liveness. This is the naive synchronizer's
  // weakness under underestimated λ.
  if (qc->view() == cur_view_) enter_view(cur_view_ + 1, ctx);
}

void HotStuffNsNode::on_timer(const TimerEvent& ev, Context& ctx) {
  if (ev.tag != kViewTimerTag || ev.id != timer_) return;
  enter_view(cur_view_ + 1, ctx);
}

std::unique_ptr<Node> make_hotstuff_ns_node(NodeId id, const SimConfig& cfg) {
  return std::make_unique<HotStuffNsNode>(id, cfg);
}

}  // namespace bftsim::hotstuff
