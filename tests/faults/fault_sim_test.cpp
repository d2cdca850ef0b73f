// End-to-end fault-injection tests: crash/recover liveness, corruption
// rejection, clock skew, determinism of fault runs, validator replay, and
// cross-protocol safety under a combined crash + link-flap schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "crypto/signature.hpp"
#include "faults/fault_injector.hpp"
#include "protocols/pbft/pbft.hpp"
#include "protocols/registry.hpp"
#include "sim/simulation.hpp"
#include "validator/validator.hpp"

namespace bftsim {
namespace {

SimConfig base_config(const std::string& protocol, std::uint32_t n,
                      std::uint64_t seed) {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = seed;
  cfg.decisions =
      ProtocolRegistry::instance().get(protocol).measured_decisions;
  cfg.max_time_ms = 600'000;
  return cfg;
}

// --- crash / recover -------------------------------------------------------

class CrashRecoverLiveness : public ::testing::TestWithParam<std::string> {};

TEST_P(CrashRecoverLiveness, SystemDecidesAndStaysSafe) {
  // One node is dead for an early window; the remaining n-1 ≥ quorum keep
  // deciding, and the run must terminate (every honest node, including the
  // recovered one, reaches the target) without a safety violation.
  SimConfig cfg = base_config(GetParam(), 4, 11);
  cfg.faults.crashes.push_back({1, 300.0, 2000.0});

  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated)
      << "no liveness under crash/recover: " << to_string(result.termination_reason);
  const SafetyReport safety = check_run_safety(result);
  EXPECT_TRUE(safety.ok) << safety.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(Protocols, CrashRecoverLiveness,
                         ::testing::Values("hotstuff-ns", "pbft"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CrashRecover, MessagesAreDroppedDuringWindow) {
  SimConfig cfg = base_config("pbft", 4, 3);
  cfg.faults.crashes.push_back({2, 100.0, 3000.0});

  const RunResult faulty = run_simulation(cfg);
  SimConfig clean = cfg;
  clean.faults = FaultConfig{};
  const RunResult baseline = run_simulation(clean);

  EXPECT_GT(faulty.messages_dropped, baseline.messages_dropped);
}

TEST(CrashRecover, PbftCatchesUpOnLongOutageInOrder) {
  // Node 3 sleeps through more than 50 PBFT decisions, long after its peers
  // retired those instances. On recovery its view change makes every peer
  // re-send the commits it missed; it must decide every missed sequence in
  // order, and each peer's catch-up burst must come out in (view, seq) order.
  constexpr NodeId kLaggard = 3;
  constexpr std::uint64_t kMissedAtLeast = 50;
  SimConfig cfg = base_config("pbft", 4, 41);
  cfg.decisions = 90;
  cfg.record_trace = true;
  constexpr double kCrashMs = 300.0;
  constexpr double kOutageMs = 60'000.0;
  cfg.faults.crashes.push_back({kLaggard, kCrashMs, kOutageMs});

  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated) << to_string(result.termination_reason);
  EXPECT_TRUE(check_run_safety(result).ok);

  // The laggard decides heights 0, 1, 2, ... in order, each with the value
  // the other nodes decided at that height.
  std::map<std::uint64_t, Value> decided;  // height -> value
  std::vector<Decision> laggard;
  for (const Decision& d : result.decisions) {
    if (d.node == kLaggard) {
      laggard.push_back(d);
    } else {
      decided.emplace(d.height, d.value);
    }
  }
  ASSERT_GE(laggard.size(), cfg.decisions);
  for (std::size_t i = 0; i < laggard.size(); ++i) {
    EXPECT_EQ(laggard[i].height, i);
    EXPECT_EQ(laggard[i].value, decided.at(i)) << "height " << i;
  }
  std::uint64_t missed = 0;  // heights the leader decided during the outage
  for (const Decision& d : result.decisions) {
    if (d.node == 0 && d.at < from_ms(kCrashMs + kOutageMs)) ++missed;
  }
  EXPECT_GE(missed, kMissedAtLeast);

  // Decode each commit the peers unicast to the laggard. A catch-up burst
  // is a maximal run of adjacent commit sends from one peer at one instant.
  View max_view = 0;
  for (const ViewRecord& v : result.views) max_view = std::max(max_view, v.view);
  std::map<std::uint64_t, std::pair<View, std::uint64_t>> by_digest;
  for (const auto& [height, value] : decided) {
    for (View view = 0; view <= max_view; ++view) {
      by_digest.emplace(pbft::Commit(view, height, value, Signature{}).digest(),
                        std::pair{view, height});
    }
  }
  const auto is_catch_up = [&](const TraceRecord& r) {
    return r.kind == TraceKind::kSend && r.b == kLaggard && r.type == "pbft/commit";
  };
  const std::vector<TraceRecord>& records = result.trace.records();
  std::size_t longest_burst = 0;
  for (std::size_t i = 0; i < records.size();) {
    if (!is_catch_up(records[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    std::vector<std::pair<View, std::uint64_t>> burst;
    while (j < records.size() && is_catch_up(records[j]) &&
           records[j].a == records[i].a && records[j].at == records[i].at) {
      const auto it = by_digest.find(records[j].digest);
      ASSERT_NE(it, by_digest.end()) << "commit for an undecided (view, seq)";
      burst.push_back(it->second);
      ++j;
    }
    EXPECT_TRUE(std::is_sorted(burst.begin(), burst.end()));
    EXPECT_EQ(std::adjacent_find(burst.begin(), burst.end()), burst.end());
    longest_burst = std::max(longest_burst, burst.size());
    i = j;
  }
  EXPECT_GE(longest_burst, kMissedAtLeast);
}

// --- same-instant ordering ------------------------------------------------

// A fault transition at instant t applies before any event at t, on the
// serial engine and on the lane engine alike. Constant delays put events
// exactly on the transitions: the leader's pre-prepare reaches node 1 at
// 100 ms, the instant node 1 crashes, and node 1's view timer (armed at 0
// for 6 lambda = 600 ms) is deferred to its recovery at 1100 ms.
class SameInstantFault : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SameInstantFault, TransitionAppliesBeforeEventsAtItsInstant) {
  constexpr NodeId kNode = 1;
  constexpr Time kCrashAt = 100'000;
  constexpr Time kRecoverAt = 1'100'000;
  SimConfig cfg = base_config("pbft", 4, 7);
  cfg.lambda_ms = 100;
  cfg.delay = DelaySpec::constant(100);
  cfg.decisions = 3;
  cfg.record_trace = true;
  // Re-deferring a fire to the instant it pops would spin; fail fast.
  cfg.max_events = 100'000;
  cfg.faults.crashes.push_back({kNode, to_ms(kCrashAt), 1000.0});
  if (GetParam() > 0) {  // the lane engine, on this many lanes
    cfg.engine.intra_jobs = GetParam();
    cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  }

  const RunResult result = run_simulation(cfg);
  EXPECT_TRUE(result.terminated) << to_string(result.termination_reason);
  std::uint64_t drops = 0;
  bool pre_prepare_dropped = false;
  bool view_change_sent = false;
  for (const TraceRecord& r : result.trace.records()) {
    if (r.kind == TraceKind::kDrop) ++drops;
    if (r.at == kCrashAt && r.b == kNode && r.type == "pbft/pre-prepare") {
      EXPECT_NE(r.kind, TraceKind::kDeliver) << "delivered to a crashed node";
      if (r.kind == TraceKind::kDrop) pre_prepare_dropped = true;
    }
    if (r.at == kRecoverAt && r.kind == TraceKind::kSend && r.a == kNode &&
        r.type == "pbft/view-change") {
      view_change_sent = true;
    }
  }
  EXPECT_TRUE(pre_prepare_dropped);
  EXPECT_EQ(result.messages_dropped, drops);
  // The deferred view timer ran at the recovery instant: node 1 asked for
  // a view change then.
  EXPECT_TRUE(view_change_sent);
}

INSTANTIATE_TEST_SUITE_P(Engines, SameInstantFault,
                         ::testing::Values(0u, 1u, 4u),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("serial")
                                      : "lanes" + std::to_string(info.param);
                         });

// --- link flaps ------------------------------------------------------------

TEST(LinkFlap, PairwisePartitionDropsTrafficAndHeals) {
  SimConfig cfg = base_config("pbft", 4, 5);
  // Cut node 0 off from 1 and 2 for a while; quorums still form around it.
  cfg.faults.link_flaps.push_back({0, 1, 200.0, 1500.0});
  cfg.faults.link_flaps.push_back({0, 2, 200.0, 1500.0});

  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_GT(result.messages_dropped, 0u);
  const SafetyReport safety = check_run_safety(result);
  EXPECT_TRUE(safety.ok) << safety.diagnosis;
}

// --- corruption ------------------------------------------------------------

TEST(Corruption, PerturbedDigestFailsSignatureVerification) {
  // The payload-level model mirrors what real signature checks would do:
  // a signature over the original digest must not verify against the
  // corrupted digest.
  const Signer signer{12345};
  const std::uint64_t digest = 0xfeedbeefcafe1234ull;
  Signature sig = signer.sign(0, digest);
  ASSERT_TRUE(signer.verify(sig));
  sig.digest = digest ^ CorruptedPayload::kPerturbation;
  EXPECT_FALSE(signer.verify(sig));
}

TEST(Corruption, CorruptedPayloadCarriesUnknownTagAndPerturbedDigest) {
  class Dummy final : public Payload {
   public:
    Dummy() : Payload(PayloadType::kPbftPrepare) {}
    std::string_view type() const noexcept override { return "dummy"; }
    std::uint64_t digest() const noexcept override { return 42; }
    std::size_t wire_size() const noexcept override { return 99; }
  };
  const auto wrapped = std::make_shared<const CorruptedPayload>(
      make_payload<Dummy>());
  EXPECT_EQ(wrapped->type_id(), PayloadType::kUnknown);
  EXPECT_EQ(wrapped->digest(), 42ull ^ CorruptedPayload::kPerturbation);
  EXPECT_EQ(wrapped->wire_size(), 99u);

  // The kUnknown tag means no protocol tag switch will ever dispatch it —
  // the receiver discards it exactly like a message failing verification.
  Message msg;
  msg.payload = wrapped;
  EXPECT_EQ(msg.type_id(), PayloadType::kUnknown);
  EXPECT_FALSE(msg.is(PayloadType::kPbftPrepare));
}

TEST(Corruption, ProtocolRejectsCorruptedMessagesAndStaysSafe) {
  SimConfig cfg = base_config("pbft", 4, 7);
  cfg.faults.corruption = {0.10, 0.0, 0.0};  // 10% of sends, whole run

  const RunResult result = run_simulation(cfg);
  EXPECT_GT(result.messages_corrupted, 0u);
  ASSERT_TRUE(result.terminated)
      << "corruption at 10% should only slow the run down";
  const SafetyReport safety = check_run_safety(result);
  EXPECT_TRUE(safety.ok) << safety.diagnosis;
}

// --- clock skew / drift ----------------------------------------------------

TEST(ClockSkew, SkewedTimersStaySafeAndLive) {
  SimConfig cfg = base_config("hotstuff-ns", 4, 9);
  cfg.faults.clock = {50.0, 0.05};  // ±50ms skew, ±5% drift

  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  const SafetyReport safety = check_run_safety(result);
  EXPECT_TRUE(safety.ok) << safety.diagnosis;
}

// --- determinism -----------------------------------------------------------

TEST(FaultDeterminism, SameSeedSameTrace) {
  SimConfig cfg = base_config("pbft", 4, 21);
  cfg.record_trace = true;
  cfg.faults.random_crashes = {1, 0.0, 2000.0, 500.0, 1500.0};
  cfg.faults.random_link_flaps = {2, 0.0, 3000.0, 100.0, 800.0};
  cfg.faults.corruption = {0.05, 0.0, 0.0};
  cfg.faults.clock = {10.0, 0.01};

  const RunResult a = run_simulation(cfg);
  const RunResult b = run_simulation(cfg);
  EXPECT_EQ(a.trace.fingerprint(), b.trace.fingerprint());
  EXPECT_EQ(a.termination_time, b.termination_time);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
}

TEST(FaultDeterminism, DifferentSeedDifferentFaultTimeline) {
  SimConfig cfg = base_config("pbft", 4, 22);
  cfg.record_trace = true;
  cfg.faults.random_crashes = {1, 0.0, 2000.0, 500.0, 1500.0};

  const RunResult a = run_simulation(cfg);
  SimConfig other = cfg;
  other.seed = 23;
  const RunResult b = run_simulation(other);
  EXPECT_NE(a.trace.fingerprint(), b.trace.fingerprint());
}

// --- validator replay ------------------------------------------------------

TEST(FaultReplay, ValidatorReplaysFaultRunExactly) {
  // The fault timeline is a deterministic function of (config, seed), so a
  // recorded fault run replays exactly: crash/flap drops become recorded
  // drops, corrupted payloads corrupt identically, decisions match.
  SimConfig cfg = base_config("pbft", 4, 31);
  cfg.record_trace = true;
  cfg.faults.crashes.push_back({1, 300.0, 1500.0});
  cfg.faults.link_flaps.push_back({2, 3, 500.0, 1000.0});
  cfg.faults.corruption = {0.05, 0.0, 0.0};

  const RunResult recorded = run_simulation(cfg);
  const ValidationResult validation = validate_against_trace(cfg, recorded.trace);
  EXPECT_TRUE(validation.ok) << validation.to_string();
}

// --- cross-protocol safety matrix ------------------------------------------

class FaultMatrixSafety : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultMatrixSafety, SafeUnderCrashAndLinkFlapAtFaultThreshold) {
  // The acceptance schedule: f fail-stopped nodes PLUS transient crash and
  // link-flap windows on the survivors. Safety (agreement/validity) must
  // hold unconditionally; termination is not required at this fault load.
  const std::string protocol = GetParam();
  const auto& info = ProtocolRegistry::instance().get(protocol);
  SimConfig cfg = base_config(protocol, 7, 13);
  cfg.honest = cfg.n - info.fault_threshold(cfg.n);
  cfg.max_time_ms = 120'000;  // watchdog: bound the worst case
  cfg.faults.random_crashes = {2, 0.0, 10'000.0, 500.0, 2000.0};
  cfg.faults.random_link_flaps = {3, 0.0, 10'000.0, 200.0, 1500.0};

  const RunResult result = run_simulation(cfg);
  const SafetyReport safety = check_run_safety(result);
  EXPECT_TRUE(safety.agreement) << safety.diagnosis;
  EXPECT_TRUE(safety.validity) << safety.diagnosis;
  EXPECT_TRUE(safety.ok) << safety.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(
    EightProtocols, FaultMatrixSafety,
    ::testing::Values("addv1", "addv2", "addv3", "algorand", "asyncba", "pbft",
                      "hotstuff-ns", "librabft"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace bftsim
