// Pins the HotStuff family's exact behaviour on shapes the engine goldens
// do not cover: hotstuff-ns and librabft under the paper sweep's leader
// crash (n = 16, node 0 down from 500 to 2500 ms, so lagging replicas
// fetch missed blocks through BlockRequest / BlockResponse), both with
// f = 5 fail-stopped nodes, and hotstuff-ns at n = 256 on a clean network.
// Every counter and every decision (node, height, value, instant) must
// replay exactly, so a rewrite of the block store that changes one message,
// one draw or one decision fails here. The decisions are checked through
// their count and an order-sensitive FNV-1a digest over all four fields of
// each; the block responses delivered are counted from the run's trace. On
// a mismatch the test prints the observed values in the shape of the table
// below.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/hotstuff_blocks.hpp"
#include "core/config.hpp"
#include "core/json.hpp"
#include "sim/simulation.hpp"

namespace bftsim {
namespace {

using testing::block_responses;

struct PinnedRun {
  const char* name;
  const char* config;  ///< JSON, as the sweep builds it
  std::uint64_t events;
  std::uint64_t sent;
  std::uint64_t delivered;
  std::uint64_t dropped;
  std::uint64_t block_responses;  ///< hotstuff/block-resp deliveries
  std::size_t decisions;
  std::uint64_t decision_digest;
};

std::uint64_t decision_digest(const std::vector<Decision>& decisions) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Decision& d : decisions) {
    fold(d.node);
    fold(d.height);
    fold(d.value);
    fold(static_cast<std::uint64_t>(d.at));
  }
  return h;
}

const std::vector<PinnedRun>& pinned_runs() {
  static const std::vector<PinnedRun> runs = {
      {"hotstuff_ns_crash",
       R"({"protocol": "hotstuff-ns", "n": 16, "lambda_ms": 1000,
           "decisions": 10, "delay": {"kind": "normal", "a": 250, "b": 50},
           "seed": 201, "faults": {"crashes": [
             {"node": 0, "at_ms": 500, "duration_ms": 2000}]}})",
       533, 380, 363, 4, 1, 160, 0x3883761c0a523dabULL},
      {"librabft_crash",
       R"({"protocol": "librabft", "n": 16, "lambda_ms": 1000,
           "decisions": 10, "delay": {"kind": "normal", "a": 250, "b": 50},
           "seed": 202, "faults": {"crashes": [
             {"node": 0, "at_ms": 500, "duration_ms": 2000}]}})",
       558, 402, 384, 4, 1, 160, 0x76b887e575cd54ccULL},
      {"hotstuff_ns_failstop",
       R"({"protocol": "hotstuff-ns", "n": 16, "lambda_ms": 1000,
           "decisions": 10, "delay": {"kind": "normal", "a": 250, "b": 50},
           "seed": 203, "honest": 11})",
       767, 479, 331, 138, 0, 132, 0xa534502a21d7b9d5ULL},
      {"librabft_failstop",
       R"({"protocol": "librabft", "n": 16, "lambda_ms": 1000,
           "decisions": 10, "delay": {"kind": "normal", "a": 250, "b": 50},
           "seed": 204, "honest": 11})",
       7205, 6500, 4300, 2189, 0, 110, 0x9bb7b89aedc83d72ULL},
      {"hotstuff_ns_n256",
       R"({"protocol": "hotstuff-ns", "n": 256, "lambda_ms": 1000,
           "decisions": 10, "delay": {"kind": "normal", "a": 250, "b": 50},
           "seed": 205})",
       8736, 6630, 6405, 0, 0, 2560, 0xeb9d4830fa72d22eULL},
  };
  return runs;
}

class HotStuffPinned : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HotStuffPinned, ReplaysCountersAndDecisionsExactly) {
  const PinnedRun& pin = pinned_runs()[GetParam()];
  SimConfig cfg = SimConfig::from_json(json::parse(pin.config));
  cfg.record_trace = true;
  const RunResult r = run_simulation(cfg);
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.events_processed, pin.events);
  EXPECT_EQ(r.messages_sent, pin.sent);
  EXPECT_EQ(r.messages_delivered, pin.delivered);
  EXPECT_EQ(r.messages_dropped, pin.dropped);
  EXPECT_EQ(block_responses(r.trace), pin.block_responses);
  EXPECT_EQ(r.decisions.size(), pin.decisions);
  EXPECT_EQ(decision_digest(r.decisions), pin.decision_digest);
  if (HasFailure()) {
    std::ostringstream out;
    out << r.events_processed << ", " << r.messages_sent << ", "
        << r.messages_delivered << ", " << r.messages_dropped << ", "
        << block_responses(r.trace) << ", " << r.decisions.size() << ", 0x"
        << std::hex << decision_digest(r.decisions) << "ULL";
    ADD_FAILURE() << pin.name << " observed:\n" << out.str();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HotStuffPinned,
    ::testing::Range<std::size_t>(0, pinned_runs().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(pinned_runs()[info.param].name);
    });

}  // namespace
}  // namespace bftsim
