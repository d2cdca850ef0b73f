// Pins asyncba's exact behaviour on the paper sweep's asyncba shapes at
// n = 16 that the engine goldens do not cover (they hold only the clean
// Fig. 3 point): f = 5 fail-stopped nodes, the Fig. 6 two-subnet drop
// partition resolved at 33 s, a geo8 gossip WAN, and random inputs (a seed
// whose run needs three rounds, so step 3's lock and coin paths run). Every
// counter and every decision must replay exactly, so a rewrite of the
// protocol's bookkeeping or of gossip dedup that changes one message, one
// draw or one decision instant fails here. On a mismatch the test prints
// the observed values in the shape of the table below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/json.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

struct PinnedDecision {
  NodeId node;
  std::uint64_t height;
  Value value;
  Time at;
};

struct PinnedRun {
  const char* name;
  const char* config;  ///< JSON, as the sweep builds it
  std::uint64_t events;
  std::uint64_t sent;
  std::uint64_t delivered;
  std::uint64_t dropped;
  std::uint64_t gossip_relayed;
  std::uint64_t gossip_duplicates;
  std::vector<PinnedDecision> decisions;
};

std::string describe(const RunResult& r) {
  std::ostringstream out;
  out << r.events_processed << ", " << r.messages_sent << ", "
      << r.messages_delivered << ", " << r.messages_dropped << ", "
      << r.gossip_relayed << ", " << r.gossip_duplicates << ",\n{";
  for (const Decision& d : r.decisions) {
    out << "{" << d.node << ", " << d.height << ", " << d.value << ", " << d.at
        << "},\n";
  }
  out << "}";
  return out.str();
}

const std::vector<PinnedRun>& pinned_runs() {
  static const std::vector<PinnedRun> runs = {
      {"failstop",
       R"({"protocol": "asyncba", "n": 16, "lambda_ms": 1000, "decisions": 1,
           "delay": {"kind": "normal", "a": 250, "b": 50}, "seed": 101,
           "honest": 11})",
       12166, 11715, 7591, 3795, 0, 0,
       {
        {1, 0, 1, 3067202},
        {11, 0, 1, 3073972},
        {3, 0, 1, 3080919},
        {4, 0, 1, 3087826},
        {0, 0, 1, 3097245},
        {9, 0, 1, 3101051},
        {13, 0, 1, 3107362},
        {5, 0, 1, 3107403},
        {14, 0, 1, 3111549},
        {8, 0, 1, 3135829},
        {2, 0, 1, 3147552},
       }},
      {"partition",
       R"({"protocol": "asyncba", "n": 16, "lambda_ms": 1000, "decisions": 1,
           "delay": {"kind": "normal", "a": 250, "b": 50}, "seed": 102,
           "attack": "partition",
           "attack_params": {"resolve_ms": 33000, "mode": "drop",
                             "subnets": 2}})",
       34970, 43665, 31916, 10368, 0, 0,
       {
        {14, 0, 1, 38326045},
        {5, 0, 1, 38326993},
        {3, 0, 1, 38327135},
        {11, 0, 1, 38327300},
        {7, 0, 1, 38328335},
        {15, 0, 1, 38328800},
        {0, 0, 1, 38329268},
        {4, 0, 1, 38332703},
        {13, 0, 1, 38333242},
        {8, 0, 1, 38333852},
        {12, 0, 1, 38334587},
        {2, 0, 1, 38335250},
        {6, 0, 1, 38336135},
        {1, 0, 1, 38336904},
        {9, 0, 1, 38341043},
        {10, 0, 1, 38343440},
       }},
      {"gossip_wan",
       R"({"protocol": "asyncba", "n": 16, "lambda_ms": 1000, "decisions": 1,
           "delay": {"kind": "normal", "a": 250, "b": 50}, "seed": 103,
           "net": {"backend": "gossip", "fanout": 3, "rtt": {"matrix": "geo8"},
                   "uplink_mbps": 200, "downlink_mbps": 200}})",
       89339, 96560, 32117, 54966, 89885, 54966,
       {
        {14, 0, 1, 8921330},
        {5, 0, 1, 8953834},
        {1, 0, 1, 8969820},
        {2, 0, 1, 9023744},
        {13, 0, 1, 9058298},
        {0, 0, 1, 9060348},
        {9, 0, 1, 9083370},
        {7, 0, 1, 9122549},
        {12, 0, 1, 9141720},
        {6, 0, 1, 9198309},
        {15, 0, 1, 9202273},
        {8, 0, 1, 9326873},
        {3, 0, 1, 9338164},
        {10, 0, 1, 9351907},
        {4, 0, 1, 9388213},
        {11, 0, 1, 9467718},
       }},
      {"random_input",
       R"({"protocol": "asyncba", "n": 16, "lambda_ms": 1000, "decisions": 1,
           "delay": {"kind": "normal", "a": 250, "b": 50}, "seed": 107,
           "protocol_params": {"input": "random"}})",
       75626, 72225, 70796, 0, 0, 0,
       {
        {3, 0, 1, 7110684},
        {14, 0, 1, 7110684},
        {0, 0, 1, 7110718},
        {9, 0, 1, 7110870},
        {13, 0, 1, 7111595},
        {1, 0, 1, 7111819},
        {5, 0, 1, 7117259},
        {12, 0, 1, 7118096},
        {15, 0, 1, 7118968},
        {10, 0, 1, 7119104},
        {11, 0, 1, 7120126},
        {2, 0, 1, 7120772},
        {4, 0, 1, 7123422},
        {6, 0, 1, 7124582},
        {7, 0, 1, 7126979},
        {8, 0, 1, 7133523},
       }},
  };
  return runs;
}

class AsyncBaPinned : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AsyncBaPinned, ReplaysCountersAndDecisionsExactly) {
  const PinnedRun& pin = pinned_runs()[GetParam()];
  const RunResult r =
      run_simulation(SimConfig::from_json(json::parse(pin.config)));
  EXPECT_EQ(r.events_processed, pin.events);
  EXPECT_EQ(r.messages_sent, pin.sent);
  EXPECT_EQ(r.messages_delivered, pin.delivered);
  EXPECT_EQ(r.messages_dropped, pin.dropped);
  EXPECT_EQ(r.gossip_relayed, pin.gossip_relayed);
  EXPECT_EQ(r.gossip_duplicates, pin.gossip_duplicates);
  EXPECT_EQ(r.decisions.size(), pin.decisions.size());
  for (std::size_t i = 0;
       i < std::min(r.decisions.size(), pin.decisions.size()); ++i) {
    const Decision& d = r.decisions[i];
    const PinnedDecision& p = pin.decisions[i];
    EXPECT_EQ(d.node, p.node) << "decision " << i;
    EXPECT_EQ(d.height, p.height) << "decision " << i;
    EXPECT_EQ(d.value, p.value) << "decision " << i;
    EXPECT_EQ(d.at, p.at) << "decision " << i;
  }
  if (HasFailure()) {
    ADD_FAILURE() << pin.name << " observed:\n" << describe(r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsyncBaPinned,
    ::testing::Range<std::size_t>(0, pinned_runs().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(pinned_runs()[info.param].name);
    });

}  // namespace
}  // namespace bftsim
