#include "protocols/asyncba/asyncba.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/log.hpp"

namespace bftsim::asyncba {

AsyncBaNode::AsyncBaNode(NodeId id, const SimConfig& cfg) : id_(id) {
  std::string mode = "ones";
  if (cfg.protocol_params.is_object()) {
    mode = cfg.protocol_params.get_string("input", mode);
  }
  if (mode == "zeros") {
    input_ = 0;
  } else if (mode == "split") {
    input_ = id % 2;
  } else if (mode == "random") {
    input_ = kBottom;  // resolved from the node's RNG stream in on_start
  } else {
    input_ = 1;
  }
}

void AsyncBaNode::on_start(Context& ctx) {
  if (input_ == kBottom) input_ = ctx.rng().next_bool() ? 1 : 0;
  value_ = input_;
  ctx.record_view(round_);
  rbc_broadcast(ctx);
  ctx.set_timer(kRetransmitFactor * ctx.lambda(), 0);
}

void AsyncBaNode::rbc_broadcast(Context& ctx) {
  ctx.broadcast(ctx.make_payload<BrachaInit>(round_, step_, value_));
}

AsyncBaNode::StepState* AsyncBaNode::step_state(std::uint64_t round,
                                                std::uint8_t step,
                                                NodeId origin, NodeId sender,
                                                Context& ctx) {
  const std::uint32_t n = ctx.n();
  if (round == 0 || step < 1 || step > 3 || origin >= n || sender >= n) {
    return nullptr;
  }
  return &steps_.try_emplace({round, step}, n).first->second;
}

std::uint32_t AsyncBaNode::vote(StepState& st, NodeId origin,
                                std::uint8_t kind, Value value, NodeId voter) {
  Tally& tally = st.instances[origin].tallies[kind];
  if (tally.count != 0 && tally.value != value) {
    auto it = std::find_if(
        st.extra.begin(), st.extra.end(), [&](const ExtraTally& e) {
          return e.origin == origin && e.kind == kind && e.value == value;
        });
    if (it == st.extra.end()) {
      it = st.extra.insert(it, ExtraTally{origin, kind, value, {}});
    }
    if (!it->voters.insert(voter)) return 0;
    return static_cast<std::uint32_t>(it->voters.size());
  }
  const std::size_t set = std::size_t{origin} * 2 + kind;
  std::uint64_t& word = st.voters[set * st.words_per_set() + (voter >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (voter & 63);
  if ((word & bit) != 0) return 0;
  word |= bit;
  tally.value = value;
  return ++tally.count;
}

void AsyncBaNode::on_message(const Message& msg, Context& ctx) {
  switch (msg.type_id()) {
    case PayloadType::kBrachaInit: {
      const auto* init = msg.as<BrachaInit>();
      StepState* st =
          step_state(init->round, init->step, msg.src, msg.src, ctx);
      if (st == nullptr) break;
      // Echo the originator's value (first value only: conflicting inits from
      // an equivocating origin are ignored, which is RBC's whole point).
      Instance& inst = st->instances[msg.src];
      if (!inst.echo_sent) {
        inst.echo_sent = true;
        inst.echoed = init->value;
        ctx.broadcast(ctx.make_payload<BrachaEcho>(init->round, init->step,
                                                   msg.src, init->value));
      }
      break;
    }
    case PayloadType::kBrachaEcho: {
      const auto* echo = msg.as<BrachaEcho>();
      StepState* st =
          step_state(echo->round, echo->step, echo->origin, msg.src, ctx);
      if (st == nullptr) break;
      Instance& inst = st->instances[echo->origin];
      if (vote(*st, echo->origin, kEcho, echo->value, msg.src) ==
              echo_quorum(ctx) &&
          !inst.ready_sent) {
        inst.ready_sent = true;
        inst.readied = echo->value;
        ctx.broadcast(ctx.make_payload<BrachaReady>(echo->round, echo->step,
                                                    echo->origin, echo->value));
      }
      break;
    }
    case PayloadType::kBrachaReady: {
      const auto* ready = msg.as<BrachaReady>();
      StepState* st =
          step_state(ready->round, ready->step, ready->origin, msg.src, ctx);
      if (st == nullptr) break;
      const std::uint32_t count =
          vote(*st, ready->origin, kReady, ready->value, msg.src);
      if (count == 0) break;  // a duplicate: its thresholds were seen before
      // Amplification: f+1 readies are proof enough to join the broadcast.
      Instance& inst = st->instances[ready->origin];
      if (count >= ctx.f() + 1 && !inst.ready_sent) {
        inst.ready_sent = true;
        inst.readied = ready->value;
        ctx.broadcast(ctx.make_payload<BrachaReady>(
            ready->round, ready->step, ready->origin, ready->value));
      }
      if (count >= 2 * ctx.f() + 1) {
        try_accept(*st, ready->origin, ready->value, ctx);
      }
      break;
    }
    default: break;
  }
}

void AsyncBaNode::try_accept(StepState& st, NodeId origin, Value value,
                             Context& ctx) {
  Instance& inst = st.instances[origin];
  if (inst.is_accepted) return;
  inst.is_accepted = true;
  inst.accepted = value;
  ++st.accepted_count;
  try_process(ctx);
}

void AsyncBaNode::try_process(Context& ctx) {
  // Process as many of our own pending steps as have enough accepted RBCs.
  while (true) {
    const auto it = steps_.find({round_, step_});
    if (it == steps_.end() || it->second.processed ||
        it->second.accepted_count < ctx.n() - ctx.f()) {
      return;
    }
    it->second.processed = true;
    process_step(it->second, ctx);
  }
}

void AsyncBaNode::process_step(const StepState& st, Context& ctx) {
  const std::uint32_t n = ctx.n();
  const std::uint32_t f = ctx.f();

  // (value, count) over the accepted origins, ascending by value.
  std::vector<std::pair<Value, std::uint32_t>> tally;
  for (const Instance& inst : st.instances) {
    if (!inst.is_accepted) continue;
    auto t = std::lower_bound(tally.begin(), tally.end(),
                              std::pair{inst.accepted, 0u});
    if (t == tally.end() || t->first != inst.accepted) {
      t = tally.insert(t, {inst.accepted, 0u});
    }
    ++t->second;
  }
  const auto count_of = [&](Value v) {
    for (const auto& [value, count] : tally) {
      if (value == v) return count;
    }
    return 0u;
  };

  switch (step_) {
    case 1: {
      // Majority of the accepted values (ties broken toward 1).
      value_ = count_of(1) >= count_of(0) ? 1 : 0;
      step_ = 2;
      break;
    }
    case 2: {
      // Lock a value seen in a strict majority of all n nodes, else ⊥.
      value_ = kBottom;
      for (const auto& [v, c] : tally) {
        if (v != kBottom && c > n / 2) value_ = v;
      }
      step_ = 3;
      break;
    }
    case 3: {
      Value locked = kBottom;
      std::uint32_t locked_count = 0;
      for (const auto& [v, c] : tally) {
        if (v != kBottom && c > locked_count) {
          locked = v;
          locked_count = c;
        }
      }
      if (locked != kBottom && locked_count >= 2 * f + 1) {
        value_ = locked;
        if (!decided_) {
          decided_ = true;
          ctx.report_decision(value_);
        }
      } else if (locked != kBottom && locked_count >= f + 1) {
        value_ = locked;
      } else {
        value_ = ctx.rng().next_bool() ? 1 : 0;  // Bracha's local coin
      }
      step_ = 1;
      ++round_;
      ctx.record_view(round_);
      break;
    }
    default: break;
  }
  rbc_broadcast(ctx);
}

void AsyncBaNode::retransmit(Context& ctx) {
  // Re-broadcast everything we have said about the step we are stuck on;
  // duplicate receptions are idempotent (vote trackers are per-sender).
  ctx.broadcast(ctx.make_payload<BrachaInit>(round_, step_, value_));
  const auto it = steps_.find({round_, step_});
  if (it == steps_.end()) return;
  const std::vector<Instance>& instances = it->second.instances;
  for (NodeId origin = 0; origin < instances.size(); ++origin) {
    if (instances[origin].echo_sent) {
      ctx.broadcast(ctx.make_payload<BrachaEcho>(round_, step_, origin,
                                                 instances[origin].echoed));
    }
  }
  for (NodeId origin = 0; origin < instances.size(); ++origin) {
    if (instances[origin].ready_sent) {
      ctx.broadcast(ctx.make_payload<BrachaReady>(round_, step_, origin,
                                                  instances[origin].readied));
    }
  }
}

void AsyncBaNode::on_timer(const TimerEvent&, Context& ctx) {
  // The protocol logic is purely asynchronous (no timeouts); this timer
  // only drives retransmission, which the "reliable eventual delivery"
  // assumption otherwise provides for free.
  if (!decided_) retransmit(ctx);
  ctx.set_timer(kRetransmitFactor * ctx.lambda(), 0);
}

std::unique_ptr<Node> make_asyncba_node(NodeId id, const SimConfig& cfg) {
  return std::make_unique<AsyncBaNode>(id, cfg);
}

}  // namespace bftsim::asyncba
