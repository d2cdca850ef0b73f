// Bracha's asynchronous Byzantine agreement (Information & Computation '87).
//
// Binary consensus for f < n/3 in a fully asynchronous network. Every
// value exchanged is disseminated via Bracha's reliable broadcast
// (init / echo / ready with amplification), which prevents equivocation;
// rounds consist of three steps (value, lock, decide) and the decide step
// falls back to a local coin, yielding probabilistic termination (the FLP
// result rules out deterministic termination).
//
// The protocol ignores λ entirely — there are no timers — which is why its
// performance is unaffected by timeout configuration in Figs. 4 and 5.
//
// State layout: one StepState per (round, step) holds that step's n
// reliable-broadcast instances in a flat array indexed by origin (sent and
// accepted flags, the echoed, readied and accepted values, and the echo
// and ready tallies), the count of accepted origins and a processed flag.
// A message costs one lookup by (round, step) and O(1) work on its
// origin's slot; retransmission and step processing walk origins in
// ascending order. Inputs from the wire are validated first: a message
// whose round is 0, whose step is outside 1..3 or whose origin (or sender)
// is not below n is ignored. Well-formed far-future rounds are tracked
// like any other; a record's size depends on n only, never on its round.
//
// Workload note: asyncba decides single bits, not proposer-minted values,
// so it never calls Context::next_proposal — a configured client workload
// runs its arrival streams but every decision counts as an empty decision
// (requests stay pending; see docs/WORKLOADS.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "net/message.hpp"
#include "protocols/common/quorum.hpp"
#include "protocols/node.hpp"

namespace bftsim::asyncba {

struct BrachaInit final : Payload {
  static constexpr PayloadType kType = PayloadType::kBrachaInit;
  std::uint64_t round = 0;
  std::uint8_t step = 1;
  Value value = 0;

  BrachaInit(std::uint64_t r, std::uint8_t s, Value v)
      : Payload(kType), round(r), step(s), value(v) {}
  std::string_view type() const noexcept override { return "asyncba/init"; }
  std::uint64_t digest() const noexcept override {
    return hash_words({0x494eULL, round, step, value});
  }
  std::size_t wire_size() const noexcept override { return 80; }
};

struct BrachaEcho final : Payload {
  static constexpr PayloadType kType = PayloadType::kBrachaEcho;
  std::uint64_t round = 0;
  std::uint8_t step = 1;
  NodeId origin = kNoNode;
  Value value = 0;

  BrachaEcho(std::uint64_t r, std::uint8_t s, NodeId o, Value v)
      : Payload(kType), round(r), step(s), origin(o), value(v) {}
  std::string_view type() const noexcept override { return "asyncba/echo"; }
  std::uint64_t digest() const noexcept override {
    return hash_words({0x4543ULL, round, step, origin, value});
  }
  std::size_t wire_size() const noexcept override { return 88; }
};

struct BrachaReady final : Payload {
  static constexpr PayloadType kType = PayloadType::kBrachaReady;
  std::uint64_t round = 0;
  std::uint8_t step = 1;
  NodeId origin = kNoNode;
  Value value = 0;

  BrachaReady(std::uint64_t r, std::uint8_t s, NodeId o, Value v)
      : Payload(kType), round(r), step(s), origin(o), value(v) {}
  std::string_view type() const noexcept override { return "asyncba/ready"; }
  std::uint64_t digest() const noexcept override {
    return hash_words({0x5244ULL, round, step, origin, value});
  }
  std::size_t wire_size() const noexcept override { return 88; }
};

class AsyncBaNode final : public Node {
 public:
  /// Inputs are configured via SimConfig::protocol_params "input":
  /// "ones" (default), "zeros", "split" (id parity), "random".
  AsyncBaNode(NodeId id, const SimConfig& cfg);

  /// Retransmission interval as a multiple of λ. The asynchronous model
  /// assumes reliable eventual delivery; over a lossy/partitioned link the
  /// standard engineering answer is periodic retransmission of the current
  /// protocol state, which is what keeps async BA live through the Fig. 6
  /// partition (λ serves only as a convenient engineering time scale —
  /// protocol logic never depends on it).
  static constexpr int kRetransmitFactor = 4;

  void on_start(Context& ctx) override;
  void on_message(const Message& msg, Context& ctx) override;
  void on_timer(const TimerEvent& ev, Context& ctx) override;

 private:
  /// Distinct voters for one value of one origin's echoes or readies.
  struct Tally {
    Value value = 0;
    std::uint32_t count = 0;  ///< 0: no vote recorded yet
  };
  /// A tally for a value other than the first one seen for its origin and
  /// kind (only an equivocating origin or a forged message produces one).
  struct ExtraTally {
    NodeId origin;
    std::uint8_t kind;
    Value value;
    VoterSet voters;
  };
  /// One origin's reliable-broadcast instance within a step.
  struct Instance {
    Value echoed = 0;    ///< what we echoed, for retransmission
    Value readied = 0;   ///< what we readied, for retransmission
    Value accepted = 0;  ///< the value this origin's broadcast delivered
    bool echo_sent = false;
    bool ready_sent = false;
    bool is_accepted = false;
    Tally tallies[2];  ///< first value's echo and ready tallies
  };
  /// All n instances of one (round, step).
  struct StepState {
    explicit StepState(std::uint32_t n)
        : instances(n), voters(std::size_t{2} * n * words_per_set()) {}
    [[nodiscard]] std::size_t words_per_set() const noexcept {
      return (instances.size() + 63) / 64;
    }

    std::vector<Instance> instances;  ///< indexed by origin
    /// Voter bits of origin o's `tallies[kind]`, words_per_set() words at
    /// (o * 2 + kind) * words_per_set().
    std::vector<std::uint64_t> voters;
    std::vector<ExtraTally> extra;
    std::uint32_t accepted_count = 0;
    bool processed = false;
  };
  static constexpr std::uint8_t kEcho = 0;
  static constexpr std::uint8_t kReady = 1;

  [[nodiscard]] std::uint32_t echo_quorum(Context& ctx) const noexcept {
    return (ctx.n() + ctx.f()) / 2 + 1;
  }

  /// The state of (round, step), or nullptr when a message naming it, its
  /// origin or its sender is malformed (the message is then ignored).
  StepState* step_state(std::uint64_t round, std::uint8_t step, NodeId origin,
                        NodeId sender, Context& ctx);
  /// Counts `voter` for `value` in origin's `kind` tallies; returns the
  /// tally's size, or 0 when `voter` was already counted there.
  std::uint32_t vote(StepState& st, NodeId origin, std::uint8_t kind,
                     Value value, NodeId voter);

  void rbc_broadcast(Context& ctx);  ///< RBCs `value_` for (round_, step_)
  void retransmit(Context& ctx);
  void try_accept(StepState& st, NodeId origin, Value value, Context& ctx);
  void try_process(Context& ctx);
  void process_step(const StepState& st, Context& ctx);

  NodeId id_;
  Value input_ = 1;
  Value value_ = 1;           ///< current working value (kBottom = ⊥)
  std::uint64_t round_ = 1;
  std::uint8_t step_ = 1;
  bool decided_ = false;

  std::map<std::pair<std::uint64_t, std::uint8_t>, StepState> steps_;
};

[[nodiscard]] std::unique_ptr<Node> make_asyncba_node(NodeId id, const SimConfig& cfg);

}  // namespace bftsim::asyncba
