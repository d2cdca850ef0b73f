// HotStuff with a Naive Synchronizer (the paper's "HotStuff+NS").
//
// Chained HotStuff whose PaceMaker is the view-doubling synchronizer of
// Naor et al. ("Cogsworth"): entirely message-free. The duration of view v
// is base * 2^(v-1) (base = 2λ) — doubling per view, never reset. A node
// advances exactly two ways:
//   - optimistically, when it learns a QC for its *current* view (from a
//     proposal's justification or by assembling votes itself), or
//   - when its view timer expires.
// Nodes never jump views and never vote outside their current view; that
// is the "naive" part, and precisely what the paper studies: views only
// re-align because exponentially growing durations eventually dominate any
// offset. When λ underestimates the real delay the system repeatedly
// desynchronizes and pays multi-second stalls (Figs. 5 and 9); after a
// partition it must wait out a doubled view duration before progressing
// again (Fig. 6). A replica stuck behind still learns committed values
// passively from received proposals (certified three-chains commit
// regardless of the local view), so termination does not require it to
// climb back.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "protocols/hotstuff/core.hpp"
#include "protocols/node.hpp"

namespace bftsim::hotstuff {

class HotStuffNsNode final : public Node {
 public:
  HotStuffNsNode(NodeId id, const SimConfig& cfg);

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

  /// Base view duration as a multiple of λ (one proposal + one vote hop).
  static constexpr int kBaseFactor = 2;
  /// Cap on the doubling exponent (max dwell 2^4 * base = 32λ). Without a
  /// cap, a stretch of crashed leaders inflates view durations past any
  /// horizon; the cap preserves the pacemaker's doubling behaviour at the
  /// time scales the experiments exercise.
  static constexpr int kMaxDoubling = 4;

 private:
  [[nodiscard]] NodeId leader_of(View v, Context& ctx) const noexcept {
    return static_cast<NodeId>(v % ctx.n());
  }
  /// Exponential back-off anchored at the newest QC this replica knows:
  /// the view duration doubles for every view entered without progress and
  /// snaps back to the base when a certificate lands. In a well-configured
  /// network the base never binds; with underestimated λ the base is
  /// smaller than a view actually needs, so every reset causes fresh
  /// timeouts — the oscillation behind Figs. 5 and 9 — and after an outage
  /// the accumulated doubling must be waited out (Fig. 6).
  [[nodiscard]] Time duration_of(View v) const noexcept {
    const View anchor = core_.high_qc().view();
    const View since = v > anchor + 1 ? v - 1 - anchor : 0;
    return base_duration_ << std::min<View>(since, kMaxDoubling);
  }

  void enter_view(View v, Context& ctx);
  void propose(Context& ctx);
  void try_vote(const Block& block, Context& ctx);
  void handle_proposal(const Message& msg, Context& ctx);
  void handle_vote(const Message& msg, Context& ctx);

  NodeId id_;
  Core core_;
  View cur_view_ = 1;
  View last_voted_ = 0;
  Time base_duration_ = 0;
  TimerId timer_ = 0;
};

[[nodiscard]] std::unique_ptr<Node> make_hotstuff_ns_node(NodeId id,
                                                          const SimConfig& cfg);

}  // namespace bftsim::hotstuff
