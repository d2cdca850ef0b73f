#include "protocols/pbft/pbft.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/log.hpp"

namespace bftsim::pbft {

namespace {
constexpr std::uint64_t kViewTimerTag = 1;

/// Deterministic proposal value for (view, seq, proposer).
[[nodiscard]] Value proposal_value(View view, std::uint64_t seq, NodeId proposer) {
  return hash_words({0x70726f70ULL, view, seq, proposer});
}
}  // namespace

PbftNode::PbftNode(NodeId id, const SimConfig& cfg, std::uint32_t quorum_slack)
    : id_(id), quorum_slack_(quorum_slack) {
  base_timeout_ = from_ms(cfg.lambda_ms) * kTimeoutFactor;
  timeout_ = base_timeout_;
  fault_catch_up_ = cfg.faults.enabled();
}

void PbftNode::on_start(Context& ctx) {
  ctx.record_view(0);
  start_view_timer(ctx);
  if (leader_of(view_, ctx) == id_) propose(ctx);
}

void PbftNode::start_view_timer(Context& ctx) {
  if (view_timer_ != 0) ctx.cancel_timer(view_timer_);
  view_timer_ = ctx.set_timer(timeout_, kViewTimerTag);
}

void PbftNode::propose(Context& ctx) {
  // Re-propose the prepared value if one exists for this sequence (we may
  // be re-proposing after a view change); otherwise mint a fresh proposal,
  // letting the workload layer batch pending client requests into it.
  Value value;
  std::uint32_t body = 0;
  if (const auto it = prepared_at_.find(working_seq_); it != prepared_at_.end()) {
    value = it->second.second;  // digest-only re-proposal: no body re-shipped
  } else {
    const ProposalBatch batch = ctx.next_proposal(
        working_seq_, proposal_value(view_, working_seq_, id_));
    value = batch.value;
    body = batch.body_bytes;
  }
  const auto payload = ctx.make_payload<PrePrepare>(
      view_, working_seq_, value,
      ctx.signer().sign(id_,
                        hash_words({0x5050ULL, view_, working_seq_, value})),
      body);
  ctx.broadcast(payload);
}

void PbftNode::on_message(const Message& msg, Context& ctx) {
  switch (msg.type_id()) {
    case PayloadType::kPbftPrePrepare: handle_pre_prepare(msg, ctx); break;
    case PayloadType::kPbftPrepare: handle_prepare(msg, ctx); break;
    case PayloadType::kPbftCommit: handle_commit(msg, ctx); break;
    case PayloadType::kPbftViewChange: handle_view_change(msg, ctx); break;
    case PayloadType::kPbftNewView: handle_new_view(msg, ctx); break;
    default: break;
  }
}

void PbftNode::handle_pre_prepare(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<PrePrepare>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  if (msg.src != leader_of(m.view, ctx)) return;
  if (m.view < view_) return;
  if (m.seq < working_seq_) return;  // already decided

  Instance& inst = instance(m.view, m.seq);
  if (inst.pre_prepared.has_value()) {
    if (*inst.pre_prepared != m.value) return;  // leader equivocation
  } else {
    inst.pre_prepared = m.value;
  }
  // Only participate when the pre-prepare is for our active view; a
  // pre-prepare that raced ahead of its new-view message is kept in the
  // instance and acted on in enter_view().
  if (m.view != view_ || in_view_change_) return;
  send_prepare(m.view, m.seq, m.value, ctx);
  maybe_prepare(m.view, m.seq, ctx);
}

void PbftNode::send_prepare(View view, std::uint64_t seq, Value value, Context& ctx) {
  Instance& inst = instance(view, seq);
  if (inst.sent_prepare) return;
  inst.sent_prepare = true;
  const auto prepare = ctx.make_payload<Prepare>(
      view, seq, value,
      ctx.signer().sign(id_, hash_words({0x5052ULL, view, seq, value})));
  ctx.broadcast(prepare);
}

void PbftNode::handle_prepare(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<Prepare>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  if (m.view < view_) return;
  // Below the working sequence a missing instance was retired, or was never
  // pre-prepared and now never can be: prepares for it are inert.
  if (retired(m.view, m.seq)) return;
  instance(m.view, m.seq).prepares.add(m.value, msg.src);
  if (m.view != view_ || in_view_change_) return;  // counted; acted on later
  maybe_prepare(m.view, m.seq, ctx);
}

void PbftNode::maybe_prepare(View view, std::uint64_t seq, Context& ctx) {
  Instance& inst = instance(view, seq);
  if (inst.prepared || !inst.pre_prepared.has_value()) return;
  const Value value = *inst.pre_prepared;
  if (!inst.prepares.reached(value, quorum(ctx))) return;
  inst.prepared = true;
  // Remember the highest view in which this sequence prepared, for VCs
  // (which only ever ask about the working sequence).
  if (seq >= working_seq_) {
    auto& slot = prepared_at_[seq];
    if (view >= slot.first) slot = {view, value};
  }

  if (!inst.sent_commit) {
    inst.sent_commit = true;
    const auto commit = ctx.make_payload<Commit>(
        view, seq, value,
        ctx.signer().sign(id_, hash_words({0x434dULL, view, seq, value})));
    ctx.broadcast(commit);
  }
  maybe_commit(view, seq, value, ctx);
}

void PbftNode::handle_commit(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<Commit>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  // Commits are accepted for any view: a 2f+1 commit certificate is final
  // regardless of the receiver's local view (this lets laggards catch up).
  // Below the working sequence a commit can only matter to send_catch_up(),
  // and not at all once the instance's committed value is logged.
  if (retired(m.view, m.seq) &&
      (!fault_catch_up_ || committed_log_.contains({m.seq, m.view}))) {
    return;
  }
  instance(m.view, m.seq).commits.add(m.value, msg.src);
  maybe_commit(m.view, m.seq, m.value, ctx);
}

void PbftNode::maybe_commit(View view, std::uint64_t seq, Value value, Context& ctx) {
  Instance& inst = instance(view, seq);
  if (inst.committed.has_value()) return;
  if (!inst.commits.reached(value, quorum(ctx))) return;
  inst.committed = value;
  try_decide(seq, value, ctx);
}

void PbftNode::try_decide(std::uint64_t seq, Value value, Context& ctx) {
  if (seq != working_seq_) return;  // decide in order; later seqs flush below
  ctx.report_decision(value);
  ++working_seq_;
  // Progress: reset the view-change back-off and re-arm the view timer.
  timeout_ = base_timeout_;
  in_view_change_ = false;
  start_view_timer(ctx);
  if (leader_of(view_, ctx) == id_) propose(ctx);
  retire_decided();

  // Flush the next sequence if it already committed out of order, taking
  // its lowest committed view.
  for (auto it = instances_.lower_bound({working_seq_, 0});
       it != instances_.end() && it->first.first == working_seq_; ++it) {
    if (it->second.committed.has_value()) {
      try_decide(working_seq_, *it->second.committed, ctx);
      break;  // the recursion may have erased *it
    }
  }
}

void PbftNode::retire_decided() {
  const auto watermark = instances_.lower_bound({working_seq_, 0});
  for (auto it = instances_.begin(); it != watermark;) {
    const auto& [key, inst] = *it;
    const bool live = inst.pre_prepared.has_value() && !inst.sent_commit &&
                      key.second >= view_;
    if (live || (fault_catch_up_ && !inst.committed.has_value())) {
      ++it;
      continue;
    }
    if (fault_catch_up_) committed_log_.emplace(key, *inst.committed);
    it = instances_.erase(it);
  }
  prepared_at_.erase(prepared_at_.begin(), prepared_at_.lower_bound(working_seq_));
}

void PbftNode::on_timer(const TimerEvent& ev, Context& ctx) {
  if (ev.tag != kViewTimerTag || ev.id != view_timer_) return;
  initiate_view_change(std::max(view_, target_view_) + 1, ctx);
}

void PbftNode::initiate_view_change(View target, Context& ctx) {
  in_view_change_ = true;
  target_view_ = target;
  // PBFT doubles its timeout on every view change, capped so view-change
  // messages keep being retransmitted at a bounded interval.
  timeout_ = std::min(timeout_ * 2, base_timeout_ << kMaxTimeoutDoublings);
  start_view_timer(ctx);

  VcInfo info;
  info.seq = working_seq_;
  if (const auto it = prepared_at_.find(working_seq_); it != prepared_at_.end()) {
    info.has_prepared = true;
    info.prepared_view = it->second.first;
    info.prepared_value = it->second.second;
  }
  const auto vc = ctx.make_payload<ViewChange>(
      target, info.seq, info.has_prepared, info.prepared_view, info.prepared_value,
      ctx.signer().sign(id_, hash_words({0x5643ULL, target, info.seq,
                                         static_cast<std::uint64_t>(info.has_prepared),
                                         info.prepared_view, info.prepared_value})));
  ctx.broadcast(vc);
}

void PbftNode::handle_view_change(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<ViewChange>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  // A view-change whose working sequence trails ours marks the sender as a
  // laggard (typically a node recovering from a crash or partition); hand
  // it the commits it slept through before the usual view bookkeeping.
  if (fault_catch_up_ && m.seq < working_seq_) send_catch_up(msg.src, m.seq, ctx);
  if (m.new_view <= view_) return;

  view_changes_[m.new_view][msg.src] =
      VcInfo{m.has_prepared, m.prepared_view, m.prepared_value, m.seq};
  latest_vc_of_[msg.src] = std::max(latest_vc_of_[msg.src], m.new_view);

  // Join rule: if f+1 nodes are trying to move past our target view, join
  // the smallest such view (keeps laggards from stalling the view change).
  const View my_target = in_view_change_ ? target_view_ : view_;
  std::vector<View> ahead;
  for (const auto& [node, v] : latest_vc_of_) {
    if (v > my_target) ahead.push_back(v);
  }
  if (ahead.size() >= ctx.f() + 1) {
    const View join = *std::min_element(ahead.begin(), ahead.end());
    if (!in_view_change_ || join > target_view_) initiate_view_change(join, ctx);
  }

  maybe_complete_view_change(m.new_view, ctx);
}

void PbftNode::send_catch_up(NodeId dst, std::uint64_t from_seq, Context& ctx) {
  // Re-send our commit for every decided sequence the laggard is missing.
  // Commit certificates are final in any view (see handle_commit), so once
  // 2f+1 peers answer, the laggard decides and flushes forward. Commits go
  // out in (view, seq) order.
  std::vector<std::tuple<View, std::uint64_t, Value>> commits;
  const std::pair<std::uint64_t, View> from{from_seq, 0};
  for (auto it = committed_log_.lower_bound(from);
       it != committed_log_.end() && it->first.first < working_seq_; ++it) {
    commits.emplace_back(it->first.second, it->first.first, it->second);
  }
  for (auto it = instances_.lower_bound(from);
       it != instances_.end() && it->first.first < working_seq_; ++it) {
    if (it->second.committed.has_value()) {
      commits.emplace_back(it->first.second, it->first.first, *it->second.committed);
    }
  }
  std::sort(commits.begin(), commits.end());
  for (const auto& [view, seq, value] : commits) {
    ctx.send(dst, ctx.make_payload<Commit>(
                      view, seq, value,
                      ctx.signer().sign(
                          id_, hash_words({0x434dULL, view, seq, value}))));
  }
}

void PbftNode::maybe_complete_view_change(View target, Context& ctx) {
  if (leader_of(target, ctx) != id_) return;
  const auto it = view_changes_.find(target);
  if (it == view_changes_.end() || it->second.size() < quorum(ctx)) return;
  if (!new_view_sent_.insert(target).second) return;

  // Choose the value prepared in the highest view among the certificates,
  // for the highest working sequence reported.
  std::uint64_t seq = working_seq_;
  for (const auto& [node, info] : it->second) seq = std::max(seq, info.seq);
  bool has_prepared = false;
  View best_view = 0;
  Value best_value = kBottom;
  for (const auto& [node, info] : it->second) {
    if (info.has_prepared && info.seq == seq &&
        (!has_prepared || info.prepared_view > best_view)) {
      has_prepared = true;
      best_view = info.prepared_view;
      best_value = info.prepared_value;
    }
  }
  const auto nv = ctx.make_payload<NewView>(
      target, seq, has_prepared, best_value,
      ctx.signer().sign(id_, hash_words({0x4e56ULL, target, seq,
                                         static_cast<std::uint64_t>(has_prepared),
                                         best_value})));
  ctx.broadcast(nv);
}

void PbftNode::handle_new_view(const Message& msg, Context& ctx) {
  const auto& m = *msg.as<NewView>();
  if (!ctx.signer().verify(m.sig) || m.sig.signer != msg.src) return;
  if (msg.src != leader_of(m.new_view, ctx)) return;
  if (m.new_view <= view_) return;
  enter_view(m.new_view, ctx);
  if (m.has_prepared && m.seq >= working_seq_) {
    prepared_at_[m.seq] = {m.new_view, m.prepared_value};
  }
  if (leader_of(view_, ctx) == id_) propose(ctx);
}

void PbftNode::enter_view(View v, Context& ctx) {
  view_ = v;
  in_view_change_ = false;
  target_view_ = std::max(target_view_, v);
  ctx.record_view(v);
  start_view_timer(ctx);
  retire_decided();
  // View-change state for views up to v is never read again.
  view_changes_.erase(view_changes_.begin(), view_changes_.upper_bound(v));
  new_view_sent_.erase(new_view_sent_.begin(), new_view_sent_.upper_bound(v));
  // Act on any pre-prepares/prepares that arrived for this view while we
  // were still completing the view change. Deciding inside the walk
  // advances working_seq_ and retires instances, so the walk re-seeks by
  // key after each step and re-checks the working sequence.
  for (auto it = instances_.lower_bound({working_seq_, v}); it != instances_.end();) {
    const auto [seq, view] = it->first;
    if (view != v || seq < working_seq_ || !it->second.pre_prepared.has_value()) {
      ++it;
      continue;
    }
    send_prepare(v, seq, *it->second.pre_prepared, ctx);
    maybe_prepare(v, seq, ctx);
    it = instances_.upper_bound({seq, v});
  }
}

std::unique_ptr<Node> make_pbft_node(NodeId id, const SimConfig& cfg) {
  return std::make_unique<PbftNode>(id, cfg);
}

}  // namespace bftsim::pbft
