// The protocol-author API (the consensus module of §III-A3).
//
// To simulate a custom protocol a user implements one class deriving from
// Node, overriding the paper's three entry points:
//   - on_message  (the paper's onMsgEvent),
//   - on_timer    (the paper's onTimeEvent),
//   - and reports results via Context::report_decision (reportToSystem).
//
// The Context is the node's handle to the simulator: sending/broadcasting
// messages through the network module, registering time events with the
// controller, reading protocol parameters (n, f, lambda) and run services
// (per-node RNG stream, the VRF, the signing oracle).
#pragma once

#include <memory>
#include <utility>

#include "core/arena.hpp"
#include "core/event.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "crypto/signature.hpp"
#include "crypto/vrf.hpp"
#include "net/message.hpp"
#include "workload/proposal_batch.hpp"

namespace bftsim {

/// Per-node simulator handle, implemented by the controller.
class Context {
 public:
  virtual ~Context() = default;

  // --- identity and parameters -------------------------------------------
  [[nodiscard]] virtual NodeId id() const noexcept = 0;
  [[nodiscard]] virtual std::uint32_t n() const noexcept = 0;
  /// The fault threshold the protocol was configured with (derived from n
  /// per protocol family; see protocol headers).
  [[nodiscard]] virtual std::uint32_t f() const noexcept = 0;
  /// The protocol's configured network-delay bound λ.
  [[nodiscard]] virtual Time lambda() const noexcept = 0;
  [[nodiscard]] virtual Time now() const noexcept = 0;

  // --- communication ------------------------------------------------------
  /// Sends `payload` to `dst` through the network module.
  virtual void send(NodeId dst, PayloadPtr payload) = 0;
  /// Sends `payload` to every node (including self iff `include_self`).
  /// Self-delivery is immediate and does not count as a network message.
  virtual void broadcast(PayloadPtr payload, bool include_self = true) = 0;

  // --- time events ---------------------------------------------------------
  /// Registers a timer firing `delay` from now; `tag` is returned in the
  /// TimerEvent so the protocol can multiplex timers.
  virtual TimerId set_timer(Time delay, std::uint64_t tag) = 0;
  /// Cancels a pending timer (no-op if already fired or unknown).
  virtual void cancel_timer(TimerId id) = 0;

  // --- reporting -----------------------------------------------------------
  /// Asks the workload layer what to put in this node's next *fresh*
  /// proposal for `slot` (sequence number / height / iteration). With a
  /// client workload configured, returns a batch of this node's pending
  /// requests (value = batch digest, body_bytes the batch's wire weight);
  /// otherwise — or when no request is ready — returns the protocol's own
  /// minted `fresh` value with an empty body. Protocols call this only
  /// when minting a fresh value, never when re-proposing a prepared or
  /// locked one.
  [[nodiscard]] virtual ProposalBatch next_proposal(std::uint64_t /*slot*/,
                                                    Value fresh) {
    return ProposalBatch{fresh, 0, 0};
  }

  /// Reports that this node decided `value` (next height). The controller
  /// stops the run once every live honest node reported the configured
  /// number of decisions.
  virtual void report_decision(Value value) = 0;
  /// Records that this node entered `view` (view-synchronization analysis).
  virtual void record_view(View view) = 0;

  // --- run services ----------------------------------------------------------
  [[nodiscard]] virtual Rng& rng() noexcept = 0;
  [[nodiscard]] virtual const Vrf& vrf() const noexcept = 0;
  [[nodiscard]] virtual const Signer& signer() const noexcept = 0;
  /// Run-scoped arena: a raw Arena::allocate() block lives until the run's
  /// controller is destroyed. Protocol code normally reaches it through
  /// make_payload() below rather than directly.
  [[nodiscard]] virtual Arena& arena() noexcept = 0;

  /// Constructs a payload of type T in the run arena. One arena block
  /// covers the payload and its shared_ptr control block, and returns to
  /// the arena's free list when the last reference drops; broadcast
  /// fan-out shares that single block across all n-1 recipients. Prefer
  /// this over the free make_payload() wherever a Context is in reach.
  template <typename T, typename... Args>
  [[nodiscard]] PayloadPtr make_payload(Args&&... args) {
    return std::allocate_shared<T>(ArenaAllocator<T>(&arena()),
                                   std::forward<Args>(args)...);
  }
};

/// Base class for protocol node implementations.
class Node {
 public:
  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;

  /// Called once at simulated time 0, before any message/timer.
  virtual void on_start(Context& ctx) = 0;
  /// Called when a message addressed to this node is delivered.
  virtual void on_message(const Message& msg, Context& ctx) = 0;
  /// Called when a timer registered by this node fires.
  virtual void on_timer(const TimerEvent& ev, Context& ctx) = 0;
};

}  // namespace bftsim
