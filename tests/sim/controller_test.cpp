// Controller / engine tests, exercised through small purpose-built test
// protocols registered via the public registry — the same path a user of
// the simulator takes to add a custom protocol (§III-A3).
#include "sim/controller.hpp"

#include <gtest/gtest.h>

#include "attacker/registry.hpp"
#include "crypto/hash.hpp"
#include "protocols/registry.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

// --- test payloads / protocols -------------------------------------------------

struct HelloPayload final : Payload {
  NodeId from;
  explicit HelloPayload(NodeId f) : from(f) {}
  std::string_view type() const noexcept override { return "test/hello"; }
  std::uint64_t digest() const noexcept override { return hash_words({from}); }
};

/// Every node broadcasts hello; a node decides once it heard from everyone
/// else (including fail-stopped peers never happens; so quorum is n-f-1).
class HelloNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    ctx.broadcast(make_payload<HelloPayload>(ctx.id()), /*include_self=*/false);
  }
  void on_message(const Message& msg, Context& ctx) override {
    if (msg.as<HelloPayload>() == nullptr) return;
    if (++heard_ >= ctx.n() - ctx.f() - 1 && !decided_) {
      decided_ = true;
      ctx.report_decision(42);
    }
  }
  void on_timer(const TimerEvent&, Context&) override {}

 private:
  std::uint32_t heard_ = 0;
  bool decided_ = false;
};

/// Decides when a 100 ms timer fires; also sets a second timer and cancels
/// it, so exactly one timer per node must fire.
class TimerNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    (void)ctx.set_timer(from_ms(100), 1);
    const TimerId cancelled = ctx.set_timer(from_ms(50), 2);
    ctx.cancel_timer(cancelled);
  }
  void on_message(const Message&, Context&) override {}
  void on_timer(const TimerEvent& ev, Context& ctx) override {
    EXPECT_EQ(ev.tag, 1u) << "cancelled timer fired";
    ctx.report_decision(ev.tag);
  }
};

/// Never decides; never sends. Exercises the horizon stop.
class SilentNode final : public Node {
 public:
  void on_start(Context&) override {}
  void on_message(const Message&, Context&) override {}
  void on_timer(const TimerEvent&, Context&) override {}
};

/// Nodes 0 and 1 ping-pong forever; exercises the event budget guard.
class PingPongNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    if (ctx.id() == 0) ctx.send(1, make_payload<HelloPayload>(ctx.id()));
  }
  void on_message(const Message& msg, Context& ctx) override {
    ctx.send(msg.src, make_payload<HelloPayload>(ctx.id()));
  }
  void on_timer(const TimerEvent&, Context&) override {}
};

/// Decides with a value encoding the context parameters, to verify the
/// controller exposes the right identity/config through Context.
class ProbeNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    ctx.record_view(ctx.id() + 100);
    ctx.report_decision(hash_words(
        {ctx.id(), ctx.n(), ctx.f(), static_cast<std::uint64_t>(ctx.lambda())}));
  }
  void on_message(const Message&, Context&) override {}
  void on_timer(const TimerEvent&, Context&) override {}
};

/// Sends one self-message; decides on receiving it. Self-messages must not
/// count as network traffic.
class SelfNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    ctx.send(ctx.id(), make_payload<HelloPayload>(ctx.id()));
  }
  void on_message(const Message& msg, Context& ctx) override {
    EXPECT_EQ(msg.src, ctx.id());
    ctx.report_decision(1);
  }
  void on_timer(const TimerEvent&, Context&) override {}
};

/// Node 0 arms a timer due at the instant node 1's broadcast reaches it
/// (run with a constant delay of the same length). The timer is scheduled
/// first, so the serial engine must fire it first: a broadcast copy takes
/// its queue position when sent, like any other event. Earlier timers
/// put the queue's sequence numbers ahead of message ids, so keying
/// copies by message id would flip the order. Node 0 decides 1 when the
/// timer came first and 2 when the message did.
class TieNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    if (ctx.id() == 0) {
      for (int i = 0; i < 3; ++i) (void)ctx.set_timer(from_ms(500), 0);
      (void)ctx.set_timer(from_ms(10), 1);
    } else if (ctx.id() == 1) {
      ctx.broadcast(make_payload<HelloPayload>(ctx.id()),
                    /*include_self=*/false);
    }
  }
  void on_message(const Message&, Context& ctx) override {
    if (ctx.id() == 0) ctx.report_decision(timer_fired_ ? 1 : 2);
  }
  void on_timer(const TimerEvent& ev, Context&) override {
    if (ev.tag == 1) timer_fired_ = true;
  }

 private:
  bool timer_fired_ = false;
};

/// Reroutes every intercepted message to the next node without touching
/// payload or delay: pins the attacker_modified contract (rerouting counts
/// as modification just like payload replacement).
class ReroutingAttacker final : public Attacker {
 public:
  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override {
    in_flight.msg.dst = (in_flight.msg.dst + 1) % ctx.n();
    return Disposition::kDeliver;
  }
};

/// Greedy corruption attack: tries to corrupt every node at start; the
/// budget must cap it at f (minus fail-stopped nodes).
class GreedyCorruptor final : public Attacker {
 public:
  void on_start(AttackerContext& ctx) override {
    for (NodeId i = 0; i < ctx.n(); ++i) (void)ctx.corrupt(i);
  }
  Disposition attack(MessageInFlight& in_flight, AttackerContext& ctx) override {
    return ctx.is_corrupt(in_flight.msg.src) ? Disposition::kDrop
                                             : Disposition::kDeliver;
  }
};

void register_test_protocols() {
  static const bool done = [] {
    auto& reg = ProtocolRegistry::instance();
    const auto simple = [](auto make) {
      return [make](NodeId, const SimConfig&) -> std::unique_ptr<Node> {
        return make();
      };
    };
    reg.add({"test-hello", NetModel::kAsync, byzantine_third, 1,
             simple([] { return std::make_unique<HelloNode>(); })});
    reg.add({"test-timer", NetModel::kAsync, byzantine_third, 1,
             simple([] { return std::make_unique<TimerNode>(); })});
    reg.add({"test-silent", NetModel::kAsync, byzantine_third, 1,
             simple([] { return std::make_unique<SilentNode>(); })});
    reg.add({"test-pingpong", NetModel::kAsync, byzantine_third, 1,
             simple([] { return std::make_unique<PingPongNode>(); })});
    reg.add({"test-probe", NetModel::kAsync, byzantine_third, 1,
             simple([] { return std::make_unique<ProbeNode>(); })});
    reg.add({"test-self", NetModel::kAsync, byzantine_third, 1,
             simple([] { return std::make_unique<SelfNode>(); })});
    reg.add({"test-tie", NetModel::kAsync, byzantine_third, 1,
             simple([] { return std::make_unique<TieNode>(); })});
    AttackRegistry::instance().add("test-greedy", [](const SimConfig&) {
      return std::make_unique<GreedyCorruptor>();
    });
    AttackRegistry::instance().add("test-reroute", [](const SimConfig&) {
      return std::make_unique<ReroutingAttacker>();
    });
    return true;
  }();
  (void)done;
}

SimConfig test_config(const std::string& protocol, std::uint32_t n = 8) {
  register_test_protocols();
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = 1;
  cfg.max_time_ms = 10'000;
  return cfg;
}

// --- tests ---------------------------------------------------------------------

TEST(ControllerTest, HelloProtocolTerminates) {
  const RunResult result = run_simulation(test_config("test-hello"));
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.decisions.size(), 8u);
  for (const Decision& d : result.decisions) EXPECT_EQ(d.value, 42u);
  EXPECT_GT(result.termination_time, 0);
}

TEST(ControllerTest, BroadcastCountsFanOutOnly) {
  const RunResult result = run_simulation(test_config("test-hello"));
  // 8 nodes broadcast to 7 peers each; no other traffic.
  EXPECT_EQ(result.messages_sent, 8u * 7u);
  EXPECT_EQ(result.messages_dropped, 0u);
  // Termination cuts delivery of some messages, but never inflates it.
  EXPECT_LE(result.messages_delivered, result.messages_sent);
}

TEST(ControllerTest, SelfMessagesAreFreeAndDelivered) {
  const RunResult result = run_simulation(test_config("test-self"));
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.messages_sent, 0u);       // self traffic is not network traffic
  EXPECT_EQ(result.termination_time, 0);     // delivered at the same instant
}

TEST(ControllerTest, TimersFireAtTheRightTimeAndCancelWorks) {
  const RunResult result = run_simulation(test_config("test-timer"));
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.termination_time, from_ms(100));
  EXPECT_EQ(result.timers_fired, 8u);  // one per node; cancelled ones skipped
}

TEST(ControllerTest, BroadcastCopyTyingAnEarlierTimerPopsAfterIt) {
  SimConfig cfg = test_config("test-tie", 4);
  cfg.delay = DelaySpec::constant(10);
  const RunResult result = run_simulation(cfg);
  ASSERT_EQ(result.decisions.size(), 1u);
  EXPECT_EQ(result.decisions.front().node, 0u);
  EXPECT_EQ(result.decisions.front().value, 1u);
}

TEST(ControllerTest, HorizonStopsNonTerminatingRuns) {
  SimConfig cfg = test_config("test-silent");
  cfg.max_time_ms = 500;
  const RunResult result = run_simulation(cfg);
  EXPECT_FALSE(result.terminated);
  EXPECT_EQ(result.termination_time, kNoTime);
  EXPECT_LT(result.latency_ms(), 0.0);
}

TEST(ControllerTest, EventBudgetStopsRunaways) {
  SimConfig cfg = test_config("test-pingpong");
  cfg.max_events = 1000;
  cfg.max_time_ms = 1e9;
  const RunResult result = run_simulation(cfg);
  EXPECT_FALSE(result.terminated);
  EXPECT_LE(result.events_processed, 1001u);
}

TEST(ControllerTest, ContextExposesConfig) {
  SimConfig cfg = test_config("test-probe", 10);
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  for (const Decision& d : result.decisions) {
    EXPECT_EQ(d.value, hash_words({d.node, 10ULL, 3ULL,
                                   static_cast<std::uint64_t>(from_ms(1000))}));
  }
  // record_view entries captured.
  EXPECT_EQ(result.views.size(), 10u);
}

TEST(ControllerTest, FailStopNodesNeverRun) {
  SimConfig cfg = test_config("test-hello", 9);
  cfg.honest = 7;
  const RunResult result = run_simulation(cfg);
  EXPECT_EQ(result.failstopped.size(), 2u);
  EXPECT_EQ(result.honest.size(), 7u);
  for (const Decision& d : result.decisions) {
    for (const NodeId dead : result.failstopped) EXPECT_NE(d.node, dead);
  }
}

TEST(ControllerTest, FailStopSelectionDependsOnSeed) {
  SimConfig cfg = test_config("test-hello", 12);
  cfg.honest = 8;
  const RunResult a = run_simulation(cfg);
  cfg.seed = 77;
  const RunResult b = run_simulation(cfg);
  EXPECT_NE(a.failstopped, b.failstopped);  // overwhelmingly likely
}

TEST(ControllerTest, DeterministicTracePerSeed) {
  SimConfig cfg = test_config("test-hello");
  cfg.record_trace = true;
  const RunResult a = run_simulation(cfg);
  const RunResult b = run_simulation(cfg);
  EXPECT_EQ(a.trace.fingerprint(), b.trace.fingerprint());
  EXPECT_EQ(a.termination_time, b.termination_time);

  cfg.seed = 2;
  const RunResult c = run_simulation(cfg);
  EXPECT_NE(a.trace.fingerprint(), c.trace.fingerprint());
}

TEST(ControllerTest, CorruptionBudgetIsEnforced) {
  SimConfig cfg = test_config("test-hello", 10);  // f = 3
  cfg.attack = "test-greedy";
  const RunResult result = run_simulation(cfg);
  EXPECT_EQ(result.corrupted.size(), 3u);
  EXPECT_EQ(result.honest.size(), 7u);
}

TEST(ControllerTest, CorruptionBudgetSharedWithFailstops) {
  SimConfig cfg = test_config("test-hello", 10);  // f = 3
  cfg.honest = 8;                                 // 2 fail-stopped
  cfg.attack = "test-greedy";
  const RunResult result = run_simulation(cfg);
  EXPECT_EQ(result.corrupted.size(), 1u);  // 2 + 1 <= f
}

TEST(ControllerTest, ReroutedMessagesCountAsAttackerModified) {
  // The attacker rewrites dst only — payload pointer and delay untouched —
  // so the modified counter must pick up the reroute, not stay at zero.
  SimConfig cfg = test_config("test-pingpong");
  cfg.attack = "test-reroute";
  const RunResult result = run_simulation(cfg);
  EXPECT_GT(result.attacker_modified, 0u);
  EXPECT_EQ(result.attacker_dropped, 0u);
  EXPECT_EQ(result.attacker_delayed, 0u);
  EXPECT_EQ(result.attacker_duplicated, 0u);
}

TEST(ControllerTest, RunTwiceThrows) {
  Controller controller{test_config("test-hello")};
  (void)controller.run();
  EXPECT_THROW((void)controller.run(), std::logic_error);
}

TEST(ControllerTest, UnknownProtocolThrows) {
  SimConfig cfg = test_config("test-hello");
  cfg.protocol = "no-such-protocol";
  EXPECT_THROW(Controller{cfg}, std::invalid_argument);
}

TEST(ControllerTest, UnknownAttackThrows) {
  SimConfig cfg = test_config("test-hello");
  cfg.attack = "no-such-attack";
  EXPECT_THROW(Controller{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace bftsim
