// LibraBFT (the Libra/Diem consensus protocol).
//
// Chained HotStuff with a message-driven PaceMaker: when a node's view
// timer expires it broadcasts a timeout message; on collecting a quorum of
// timeouts for a view it forms a TimeoutCertificate (TC), rebroadcasts it,
// and every node that sees the TC advances — so views re-synchronize
// within one message delay after GST. This is the difference the paper
// highlights against HotStuff+NS: LibraBFT guarantees a time bound on
// termination after GST and recovers quickly from partitions and
// underestimated timeouts (Figs. 5 and 6).
#pragma once

#include <map>
#include <memory>

#include "core/config.hpp"
#include "protocols/hotstuff/core.hpp"
#include "protocols/node.hpp"

namespace bftsim::librabft {

using hotstuff::Block;
using hotstuff::Core;

struct TimeoutMsg final : Payload {
  static constexpr PayloadType kType = PayloadType::kLibraTimeout;
  View view = 0;
  Signature sig;

  TimeoutMsg(View v, Signature s) : Payload(kType), view(v), sig(s) {}
  std::string_view type() const noexcept override { return "librabft/timeout"; }
  std::uint64_t digest() const noexcept override {
    return hash_words({0x544fULL, view});
  }
  std::size_t wire_size() const noexcept override { return 96; }
};

struct TcMsg final : Payload {
  static constexpr PayloadType kType = PayloadType::kLibraTimeoutCertificate;
  TimeoutCert tc;

  explicit TcMsg(TimeoutCert t) : Payload(kType), tc(std::move(t)) {}
  std::string_view type() const noexcept override { return "librabft/tc"; }
  std::uint64_t digest() const noexcept override { return tc.digest(); }
  std::size_t wire_size() const noexcept override { return 256; }
};

class LibraBftNode final : public Node {
 public:
  LibraBftNode(NodeId id, const SimConfig& cfg);

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

  /// Base view duration as a multiple of λ.
  static constexpr int kBaseFactor = 2;
  /// Cap on the local back-off exponent: bounded retry intervals keep
  /// timeout messages flowing, so views re-synchronize within seconds of a
  /// partition healing (the contrast with HotStuff+NS in Fig. 6).
  static constexpr int kMaxBackoff = 2;

 private:
  [[nodiscard]] NodeId leader_of(View v, Context& ctx) const noexcept {
    return static_cast<NodeId>(v % ctx.n());
  }

  void restart_timer(Context& ctx);
  void advance_to(View v, bool progress, Context& ctx);
  void propose(Context& ctx);
  void try_vote(const Block& block, Context& ctx);
  void handle_proposal(const Message& msg, Context& ctx);
  void handle_vote(const Message& msg, Context& ctx);
  void handle_timeout(const Message& msg, Context& ctx);
  void handle_tc(const TimeoutCert& tc, Context& ctx);

  NodeId id_;
  Core core_;
  View cur_view_ = 1;
  View last_voted_ = 0;
  Time base_duration_ = 0;
  int backoff_ = 0;  ///< consecutive local timeouts without progress
  TimerId timer_ = 0;
  QuorumTracker<View> timeout_votes_;
  OnceSet<View> tc_formed_;
  /// Proposals for views we have not entered yet (a TC/QC that lets us
  /// enter may still be in flight): each block aliases, and keeps alive,
  /// the proposal payload that carried it.
  std::map<View, std::shared_ptr<const Block>> pending_;
};

[[nodiscard]] std::unique_ptr<Node> make_librabft_node(NodeId id,
                                                       const SimConfig& cfg);

}  // namespace bftsim::librabft
