// WAN transport backend tests (net/wan/): $.net config parsing and its
// path-aware error battery, the WanModel building blocks (RTT matrices,
// bandwidth queues, gossip overlay), end-to-end behavior of each backend
// piece, determinism across seeds / job counts / windowed lanes, and the
// checked-in WAN golden replay (tests/data/engine_goldens.json,
// "wan_points" / "wan_single_points" — the bit-identity contract the CI
// wan-matrix job enforces). See docs/NETWORKING.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/json.hpp"
#include "net/topology.hpp"
#include "net/wan/geo.hpp"
#include "net/wan/wan_model.hpp"
#include "net/wan/wan_spec.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"

#ifndef BFTSIM_REPO_ROOT
#error "BFTSIM_REPO_ROOT must point at the repository checkout"
#endif

namespace bftsim {
namespace {

// ---------------------------------------------------------------------------
// WanSpec parsing
// ---------------------------------------------------------------------------

TEST(WanSpecTest, DefaultIsDisabled) {
  const WanSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_FALSE(spec.gossip());
  EXPECT_FALSE(spec.has_matrix());
  EXPECT_FALSE(spec.bandwidth_enabled());
  EXPECT_DOUBLE_EQ(spec.min_one_way_ms(), 0.0);
}

TEST(WanSpecTest, BundledMatrixSelectsAllRegions) {
  const WanSpec spec = WanSpec::from_json(
      json::parse(R"({"rtt": {"matrix": "geo8"}})"));
  EXPECT_TRUE(spec.enabled());
  EXPECT_TRUE(spec.has_matrix());
  EXPECT_EQ(spec.region_count(), 8u);
  EXPECT_EQ(spec.regions[0], "us-east");
  // Symmetric table, 2 ms intra-region diagonal.
  EXPECT_DOUBLE_EQ(spec.rtt(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(spec.rtt(0, 2), spec.rtt(2, 0));
  EXPECT_DOUBLE_EQ(spec.min_one_way_ms(), 1.0);  // diagonal 2 ms / 2
}

TEST(WanSpecTest, BundledMatrixSubsetKeepsRequestedOrder) {
  const WanSpec spec = WanSpec::from_json(json::parse(
      R"({"rtt": {"matrix": "geo8",
                  "regions": ["eu-west", "us-east", "ap-south"]}})"));
  ASSERT_EQ(spec.region_count(), 3u);
  EXPECT_EQ(spec.regions[0], "eu-west");
  EXPECT_EQ(spec.regions[1], "us-east");
  EXPECT_EQ(spec.regions[2], "ap-south");
  // eu-west <-> us-east is 75 ms in the bundled table.
  EXPECT_DOUBLE_EQ(spec.rtt(0, 1), 75.0);
  EXPECT_DOUBLE_EQ(spec.rtt(1, 0), 75.0);
  // eu-west <-> ap-south is 110 ms.
  EXPECT_DOUBLE_EQ(spec.rtt(0, 2), 110.0);
}

TEST(WanSpecTest, CustomMatrixRoundTripsThroughJson) {
  const WanSpec spec = WanSpec::from_json(json::parse(
      R"({"backend": "gossip", "fanout": 4,
          "uplink_mbps": 100, "downlink_mbps": 250,
          "rtt": {"regions": ["a", "b"], "rtt_ms": [[1, 30], [28, 1]]}})"));
  EXPECT_TRUE(spec.gossip());
  EXPECT_EQ(spec.fanout, 4u);
  EXPECT_DOUBLE_EQ(spec.uplink_mbps, 100.0);
  EXPECT_DOUBLE_EQ(spec.downlink_mbps, 250.0);
  EXPECT_DOUBLE_EQ(spec.rtt(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(spec.rtt(1, 0), 28.0);
  EXPECT_DOUBLE_EQ(spec.min_one_way_ms(), 0.5);

  const WanSpec back = WanSpec::from_json(spec.to_json());
  EXPECT_EQ(back.regions, spec.regions);
  EXPECT_EQ(back.rtt_ms, spec.rtt_ms);
  EXPECT_EQ(back.fanout, spec.fanout);
  EXPECT_TRUE(back.gossip());
  EXPECT_DOUBLE_EQ(back.uplink_mbps, spec.uplink_mbps);
  EXPECT_DOUBLE_EQ(back.downlink_mbps, spec.downlink_mbps);
}

TEST(WanSpecTest, RegionAssignmentIsRoundRobin) {
  WanSpec spec;
  spec.regions = {"a", "b", "c"};
  spec.rtt_ms.assign(9, 1.0);
  EXPECT_EQ(spec.region_of(0), 0u);
  EXPECT_EQ(spec.region_of(1), 1u);
  EXPECT_EQ(spec.region_of(2), 2u);
  EXPECT_EQ(spec.region_of(3), 0u);
}

// ---------------------------------------------------------------------------
// $.net config error battery: every rejection is a single-line, path-aware
// "config error at $.net..." naming the offending entry.
// ---------------------------------------------------------------------------

std::string net_error_of(const std::string& net_json) {
  try {
    (void)WanSpec::from_json(json::parse(net_json));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(WanSpecErrorTest, UnknownRegionNameInBundledMatrix) {
  const std::string err = net_error_of(
      R"({"rtt": {"matrix": "geo8", "regions": ["us-east", "atlantis"]}})");
  EXPECT_NE(err.find("config error at $.net.rtt.regions[1]"), std::string::npos)
      << err;
  EXPECT_NE(err.find("atlantis"), std::string::npos) << err;
}

TEST(WanSpecErrorTest, UnknownBundledMatrixNamesTheAlternatives) {
  const std::string err = net_error_of(R"({"rtt": {"matrix": "geo99"}})");
  EXPECT_NE(err.find("config error at $.net.rtt.matrix"), std::string::npos)
      << err;
  EXPECT_NE(err.find("geo8"), std::string::npos) << err;
}

TEST(WanSpecErrorTest, NonSquareMatrixWrongRowCount) {
  const std::string err = net_error_of(
      R"({"rtt": {"regions": ["a", "b"], "rtt_ms": [[1, 2]]}})");
  EXPECT_NE(err.find("config error at $.net.rtt.rtt_ms"), std::string::npos)
      << err;
  EXPECT_NE(err.find("square"), std::string::npos) << err;
}

TEST(WanSpecErrorTest, NonSquareMatrixRaggedRow) {
  const std::string err = net_error_of(
      R"({"rtt": {"regions": ["a", "b"], "rtt_ms": [[1, 2], [3]]}})");
  EXPECT_NE(err.find("config error at $.net.rtt.rtt_ms[1]"), std::string::npos)
      << err;
}

TEST(WanSpecErrorTest, NegativeRttEntryNamesTheCell) {
  const std::string err = net_error_of(
      R"({"rtt": {"regions": ["a", "b"], "rtt_ms": [[1, -2], [3, 1]]}})");
  EXPECT_NE(err.find("config error at $.net.rtt.rtt_ms[0][1]"),
            std::string::npos)
      << err;
}

TEST(WanSpecErrorTest, NegativeBandwidth) {
  const std::string up = net_error_of(R"({"uplink_mbps": -5})");
  EXPECT_NE(up.find("config error at $.net.uplink_mbps"), std::string::npos)
      << up;
  const std::string down = net_error_of(R"({"downlink_mbps": -0.5})");
  EXPECT_NE(down.find("config error at $.net.downlink_mbps"),
            std::string::npos)
      << down;
}

TEST(WanSpecErrorTest, GossipFanoutOfZero) {
  const std::string err = net_error_of(R"({"backend": "gossip", "fanout": 0})");
  EXPECT_NE(err.find("config error at $.net.fanout"), std::string::npos) << err;
}

TEST(WanSpecErrorTest, UnknownBackendName) {
  const std::string err = net_error_of(R"({"backend": "carrier-pigeon"})");
  EXPECT_NE(err.find("config error at $.net.backend"), std::string::npos)
      << err;
}

TEST(WanSpecErrorTest, UnknownKeyInsideNet) {
  const std::string err = net_error_of(R"({"bandwidth": 10})");
  EXPECT_NE(err.find("config error at $.net.bandwidth: unknown key"),
            std::string::npos)
      << err;
}

TEST(WanSpecErrorTest, BundledAndCustomMatrixAreExclusive) {
  const std::string err = net_error_of(
      R"({"rtt": {"matrix": "geo8", "regions": ["a"], "rtt_ms": [[1]]}})");
  EXPECT_NE(err.find("config error at $.net.rtt"), std::string::npos) << err;
}

TEST(WanSpecErrorTest, DuplicateRegionName) {
  const std::string err = net_error_of(
      R"({"rtt": {"regions": ["a", "a"], "rtt_ms": [[1, 2], [2, 1]]}})");
  EXPECT_NE(err.find("config error at $.net.rtt.regions[1]"), std::string::npos)
      << err;
}

TEST(WanSpecErrorTest, CustomTableNeedsRegionsAndMatrix) {
  const std::string err =
      net_error_of(R"({"rtt": {"regions": ["a", "b"]}})");
  EXPECT_NE(err.find("config error at $.net.rtt"), std::string::npos) << err;
}

SimConfig wan_base_config(const char* protocol = "pbft") {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 16;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(50, 10);
  cfg.seed = 1;
  cfg.max_time_ms = 120'000;
  return cfg;
}

WanSpec geo8_matrix_spec() {
  return WanSpec::from_json(json::parse(R"({"rtt": {"matrix": "geo8"}})"));
}

TEST(WanConfigTest, NetAndTopologyAreMutuallyExclusive) {
  SimConfig cfg = wan_base_config();
  cfg.net = geo8_matrix_spec();
  TopologySpec topo;
  topo.regions = 2;
  topo.cross_extra_ms = 100.0;
  cfg.topology = topo.to_json();
  try {
    cfg.validate();
    FAIL() << "expected a config error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("config error at $.net"),
              std::string::npos)
        << e.what();
  }
}

TEST(WanConfigTest, GossipRejectsParallelEngine) {
  SimConfig cfg = wan_base_config();
  cfg.net.backend = WanSpec::Backend::kGossip;
  cfg.engine.intra_jobs = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.engine.intra_jobs = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(WanConfigTest, BandwidthRejectsPerNodeRng) {
  SimConfig cfg = wan_base_config();
  cfg.net.uplink_mbps = 10.0;
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.engine.rng = EngineConfig::RngMode::kAuto;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(WanConfigTest, MatrixOnlyStaysWindowedParallelLegal) {
  SimConfig cfg = wan_base_config();
  cfg.net = geo8_matrix_spec();
  cfg.engine.intra_jobs = 4;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(WanConfigTest, GossipRejectsAttackScenarios) {
  SimConfig cfg = wan_base_config();
  cfg.net.backend = WanSpec::Backend::kGossip;
  cfg.attack = "partition";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(WanConfigTest, SimConfigJsonRoundTripKeepsTheNetBlock) {
  SimConfig cfg = wan_base_config();
  cfg.net = geo8_matrix_spec();
  cfg.net.backend = WanSpec::Backend::kGossip;
  cfg.net.fanout = 5;
  cfg.net.uplink_mbps = 40.0;
  const SimConfig back = SimConfig::from_json(cfg.to_json());
  EXPECT_TRUE(back.net.gossip());
  EXPECT_EQ(back.net.fanout, 5u);
  EXPECT_EQ(back.net.regions, cfg.net.regions);
  EXPECT_EQ(back.net.rtt_ms, cfg.net.rtt_ms);
  EXPECT_DOUBLE_EQ(back.net.uplink_mbps, 40.0);
  // The emitted form is self-contained: a second emit is byte-identical.
  EXPECT_EQ(back.to_json().dump(2), cfg.to_json().dump(2));
}

// ---------------------------------------------------------------------------
// WanModel: propagation, bandwidth queues, gossip overlay
// ---------------------------------------------------------------------------

TEST(WanModelTest, BaseDelayIsHalfTheRegionPairRtt) {
  const WanSpec spec = geo8_matrix_spec();
  WanModel model(spec, 16, Rng{1});
  // Nodes 0 and 8 both map to region 0 (us-east): intra-region 1 ms.
  EXPECT_EQ(model.base_delay(0, 8), from_ms(1.0));
  // Nodes 0 (us-east) and 2 (eu-west): 75 ms RTT -> 37.5 ms one-way.
  EXPECT_EQ(model.base_delay(0, 2), from_ms(37.5));
  EXPECT_EQ(model.base_delay(2, 0), from_ms(37.5));
  EXPECT_EQ(model.min_base_delay(), from_ms(1.0));
}

TEST(WanModelTest, DeliveryTimeWithoutBandwidthIsPurePropagation) {
  WanSpec spec;  // no bandwidth, no matrix
  WanModel model(spec, 4, Rng{1});
  EXPECT_EQ(model.delivery_time(0, 1, 1 << 20, 100, 250), 350);
}

TEST(WanModelTest, UplinkSerializesMessagesInSendOrder) {
  WanSpec spec;
  spec.uplink_mbps = 8.0;  // 8 Mb/s -> 1 us per byte
  WanModel model(spec, 4, Rng{1});
  // First message: starts at depart=0, serializes 1000 bytes in 1000 us,
  // then propagates for 500 us.
  EXPECT_EQ(model.delivery_time(0, 1, 1000, 0, 500), 1500);
  // Second message departs at the same instant but queues behind the
  // first on node 0's uplink: starts at 1000, arrives 1000+1000+500.
  EXPECT_EQ(model.delivery_time(0, 2, 1000, 0, 500), 2500);
  // A different sender's uplink is idle: no queueing.
  EXPECT_EQ(model.delivery_time(3, 1, 1000, 0, 500), 1500);
}

TEST(WanModelTest, DownlinkQueuesConcurrentArrivals) {
  WanSpec spec;
  spec.downlink_mbps = 8.0;
  WanModel model(spec, 4, Rng{1});
  // Two messages reach node 1's downlink at t=500; the second drains after
  // the first.
  EXPECT_EQ(model.delivery_time(0, 1, 1000, 0, 500), 1500);
  EXPECT_EQ(model.delivery_time(2, 1, 1000, 0, 500), 2500);
  // Node 3's downlink is independent.
  EXPECT_EQ(model.delivery_time(0, 3, 1000, 0, 500), 1500);
}

TEST(WanModelTest, UnlimitedRateChargesNoSerialization) {
  WanSpec spec;
  spec.uplink_mbps = 8.0;  // downlink stays unlimited
  WanModel model(spec, 4, Rng{1});
  // Only the uplink side charges time: 1000 us serialization + prop.
  EXPECT_EQ(model.delivery_time(0, 1, 1000, 0, 0), 1000);
}

TEST(WanModelTest, GossipOverlayHasRingEdgeAndExactFanout) {
  WanSpec spec;
  spec.backend = WanSpec::Backend::kGossip;
  spec.fanout = 3;
  const std::uint32_t n = 16;
  WanModel model(spec, n, Rng{7});
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<NodeId>& peers = model.peers_of(v);
    ASSERT_EQ(peers.size(), 3u) << "node " << v;
    // Ring successor is always the first peer: the connectivity backbone.
    EXPECT_EQ(peers[0], (v + 1) % n);
    std::set<NodeId> unique(peers.begin(), peers.end());
    EXPECT_EQ(unique.size(), peers.size()) << "duplicate peer at node " << v;
    EXPECT_EQ(unique.count(v), 0u) << "self-loop at node " << v;
  }
}

TEST(WanModelTest, GossipOverlayIsAPureFunctionOfTheSeed) {
  WanSpec spec;
  spec.backend = WanSpec::Backend::kGossip;
  spec.fanout = 4;
  WanModel a(spec, 32, Rng{42});
  WanModel b(spec, 32, Rng{42});
  WanModel c(spec, 32, Rng{43});
  bool any_difference = false;
  for (NodeId v = 0; v < 32; ++v) {
    EXPECT_EQ(a.peers_of(v), b.peers_of(v)) << "node " << v;
    if (a.peers_of(v) != c.peers_of(v)) any_difference = true;
  }
  EXPECT_TRUE(any_difference) << "overlay ignored its seed";
}

TEST(WanModelTest, SaturatedFanoutBecomesDirectBroadcast) {
  WanSpec spec;
  spec.backend = WanSpec::Backend::kGossip;
  spec.fanout = 16;  // >= n-1
  WanModel model(spec, 8, Rng{1});
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(model.peers_of(v).size(), 7u);
  }
}

// ---------------------------------------------------------------------------
// End-to-end backend behavior
// ---------------------------------------------------------------------------

TEST(WanSimTest, RttMatrixSlowsConsensusLikeTheWanItModels) {
  SimConfig lan = wan_base_config();
  SimConfig wan = wan_base_config();
  wan.net = geo8_matrix_spec();
  const RunResult local = run_simulation(lan);
  const RunResult geo = run_simulation(wan);
  ASSERT_TRUE(local.terminated);
  ASSERT_TRUE(geo.terminated);
  EXPECT_TRUE(geo.decisions_consistent());
  // A 16-node quorum spans all 8 regions; every protocol phase pays tens
  // of ms of cross-continent propagation.
  EXPECT_GT(geo.latency_ms(), local.latency_ms() + 50.0);
}

TEST(WanSimTest, TightBandwidthDelaysLargeProposals) {
  SimConfig fast = wan_base_config("hotstuff-ns");
  fast.net.uplink_mbps = 10'000.0;
  SimConfig slow = wan_base_config("hotstuff-ns");
  slow.net.uplink_mbps = 1.0;  // 8 us per byte: serialization dominates
  const RunResult unconstrained = run_simulation(fast);
  const RunResult constrained = run_simulation(slow);
  ASSERT_TRUE(unconstrained.terminated);
  ASSERT_TRUE(constrained.terminated);
  EXPECT_TRUE(constrained.decisions_consistent());
  EXPECT_GT(constrained.latency_ms(), unconstrained.latency_ms());
}

TEST(WanSimTest, GossipReachesEveryProtocolDecision) {
  for (const char* protocol :
       {"pbft", "hotstuff-ns", "librabft", "tendermint", "algorand"}) {
    SimConfig cfg = wan_base_config(protocol);
    cfg.net.backend = WanSpec::Backend::kGossip;
    cfg.net.fanout = 3;
    cfg.decisions = 1;
    const RunResult result = run_simulation(cfg);
    ASSERT_TRUE(result.terminated) << protocol;
    EXPECT_TRUE(result.decisions_consistent()) << protocol;
    // Dissemination happened over the overlay: non-origin nodes relayed,
    // and redundant copies were suppressed.
    EXPECT_GT(result.gossip_relayed, 0u) << protocol;
    EXPECT_GT(result.gossip_duplicates, 0u) << protocol;
  }
}

TEST(WanSimTest, DirectRunsNeverTouchTheGossipCounters) {
  SimConfig cfg = wan_base_config();
  cfg.net = geo8_matrix_spec();
  cfg.net.uplink_mbps = 100.0;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_EQ(result.gossip_relayed, 0u);
  EXPECT_EQ(result.gossip_duplicates, 0u);
}

TEST(WanSimTest, GossipCountersReachTheJsonExport) {
  SimConfig cfg = wan_base_config();
  cfg.net.backend = WanSpec::Backend::kGossip;
  cfg.net.fanout = 3;
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  const json::Value doc = result_to_json(result, false);
  const json::Value* gossip = doc.as_object().find("gossip");
  ASSERT_NE(gossip, nullptr);
  EXPECT_EQ(gossip->get_int("relayed", 0),
            static_cast<std::int64_t>(result.gossip_relayed));
  EXPECT_EQ(gossip->get_int("duplicates", 0),
            static_cast<std::int64_t>(result.gossip_duplicates));
}

TEST(WanSimTest, GossipSurvivesCrashFaults) {
  // A crashed relayer must not strand dissemination: the overlay's other
  // edges route around it and consensus still completes.
  SimConfig cfg = wan_base_config();
  cfg.net.backend = WanSpec::Backend::kGossip;
  cfg.net.fanout = 3;
  cfg.faults.crashes.push_back({2, 300.0, 2000.0});
  const RunResult result = run_simulation(cfg);
  ASSERT_TRUE(result.terminated);
  EXPECT_TRUE(result.decisions_consistent());
}

// ---------------------------------------------------------------------------
// Determinism: same seed, job counts, windowed lanes
// ---------------------------------------------------------------------------

SimConfig full_wan_config(std::uint64_t seed = 9) {
  SimConfig cfg = wan_base_config();
  cfg.seed = seed;
  cfg.net = WanSpec::from_json(json::parse(
      R"({"backend": "gossip", "fanout": 3,
          "uplink_mbps": 200, "downlink_mbps": 200,
          "rtt": {"matrix": "geo8"}})"));
  cfg.record_trace = true;
  return cfg;
}

TEST(WanDeterminismTest, SameSeedSameFingerprint) {
  const RunResult a = run_simulation(full_wan_config());
  const RunResult b = run_simulation(full_wan_config());
  EXPECT_EQ(a.termination_time, b.termination_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.gossip_relayed, b.gossip_relayed);
  EXPECT_EQ(a.gossip_duplicates, b.gossip_duplicates);
  EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);
}

/// Canonical report text with the one legitimately nondeterministic field
/// (wall clock) zeroed — the same normalization `equivalent()` applies.
std::string deterministic_report(const Aggregate& agg) {
  json::Value doc = aggregate_to_json(agg);
  doc.as_object()["wall_seconds_total"] = 0.0;
  return doc.dump(2);
}

TEST(WanDeterminismTest, ReportsAreByteIdenticalAcrossJobCounts) {
  // The acceptance contract for the CI wan-matrix job: gossip + bandwidth
  // + RTT-matrix aggregates must not depend on the worker count.
  SimConfig cfg = full_wan_config();
  cfg.record_trace = false;
  const Aggregate serial = run_repeated(cfg, 4);
  const Aggregate jobs2 = run_repeated(cfg, 4, 2);
  const Aggregate jobs4 = run_repeated(cfg, 4, 4);
  EXPECT_TRUE(equivalent(serial, jobs2));
  EXPECT_TRUE(equivalent(serial, jobs4));
  EXPECT_EQ(deterministic_report(serial), deterministic_report(jobs2));
  EXPECT_EQ(deterministic_report(serial), deterministic_report(jobs4));
}

TEST(WanDeterminismTest, WindowedMatrixRunsAreBitIdenticalToOneLane) {
  // RTT-matrix-only runs stay legal under the windowed-parallel engine:
  // the base delay is a pure function of the pair, so every lane count
  // must reproduce the one-lane per-node-RNG run bit for bit.
  SimConfig cfg = wan_base_config();
  cfg.net = geo8_matrix_spec();
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  cfg.record_trace = true;

  cfg.engine.intra_jobs = 1;
  const RunResult one_lane = run_simulation(cfg);
  ASSERT_TRUE(one_lane.terminated);
  for (const std::uint32_t lanes : {2u, 3u, 8u}) {
    cfg.engine.intra_jobs = lanes;
    const RunResult parallel = run_simulation(cfg);
    SCOPED_TRACE("intra_jobs=" + std::to_string(lanes));
    EXPECT_EQ(parallel.termination_time, one_lane.termination_time);
    EXPECT_EQ(parallel.events_processed, one_lane.events_processed);
    EXPECT_EQ(parallel.messages_sent, one_lane.messages_sent);
    EXPECT_EQ(parallel.messages_delivered, one_lane.messages_delivered);
    EXPECT_EQ(parallel.trace_fingerprint, one_lane.trace_fingerprint);
  }
}

// ---------------------------------------------------------------------------
// WAN golden replay: the checked-in aggregates must reproduce bit for bit.
// The CI wan-matrix job runs exactly this suite under ASan/UBSan.
// ---------------------------------------------------------------------------

const std::string kGoldensPath =
    std::string(BFTSIM_REPO_ROOT) + "/tests/data/engine_goldens.json";

TEST(WanGoldensTest, WanPointsReplayBitIdentical) {
  const json::Value doc = json::parse_file(kGoldensPath);
  const json::Array& points = doc.as_object().at("wan_points").as_array();
  ASSERT_GE(points.size(), 4u);
  for (const json::Value& point : points) {
    const json::Object& o = point.as_object();
    SCOPED_TRACE(o.at("name").as_string());
    const SimConfig cfg = SimConfig::from_json(o.at("config"));
    EXPECT_TRUE(cfg.net.enabled());
    const auto repeats = static_cast<std::size_t>(o.at("repeats").as_int());
    const Aggregate actual = run_repeated(cfg, repeats);
    // Byte-level comparison through the canonical JSON emission: any field
    // drift (including doubles) shows up as a readable diff. The recorded
    // wall clock is zeroed on both sides — it is machine time, not model
    // time.
    json::Value want = o.at("aggregate");
    want.as_object()["wall_seconds_total"] = 0.0;
    EXPECT_EQ(deterministic_report(actual), want.dump(2));
  }
}

TEST(WanGoldensTest, WanSinglePointsReplayBitIdentical) {
  const json::Value doc = json::parse_file(kGoldensPath);
  const json::Array& points =
      doc.as_object().at("wan_single_points").as_array();
  ASSERT_GE(points.size(), 1u);
  for (const json::Value& point : points) {
    const json::Object& o = point.as_object();
    SCOPED_TRACE(o.at("name").as_string());
    const SimConfig cfg = SimConfig::from_json(o.at("config"));
    const RunResult r = run_simulation(cfg);
    const json::Object& want = o.at("result").as_object();
    EXPECT_EQ(r.terminated, want.at("terminated").as_bool());
    EXPECT_EQ(static_cast<std::int64_t>(r.termination_time),
              want.at("termination_time").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.events_processed),
              want.at("events_processed").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.messages_sent),
              want.at("messages_sent").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.messages_delivered),
              want.at("messages_delivered").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.messages_dropped),
              want.at("messages_dropped").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.bytes_sent),
              want.at("bytes_sent").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.gossip_relayed),
              want.at("gossip_relayed").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.gossip_duplicates),
              want.at("gossip_duplicates").as_int());
    EXPECT_EQ(static_cast<std::int64_t>(r.decisions.size()),
              want.at("decision_count").as_int());
  }
}

}  // namespace
}  // namespace bftsim
