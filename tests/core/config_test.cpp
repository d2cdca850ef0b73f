#include "core/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace bftsim {
namespace {

TEST(DelaySpecTest, Factories) {
  EXPECT_EQ(DelaySpec::constant(10).kind, DelaySpec::Kind::kConstant);
  EXPECT_EQ(DelaySpec::uniform(1, 2).kind, DelaySpec::Kind::kUniform);
  EXPECT_EQ(DelaySpec::normal(250, 50).kind, DelaySpec::Kind::kNormal);
  EXPECT_EQ(DelaySpec::exponential(100).kind, DelaySpec::Kind::kExponential);
}

TEST(DelaySpecTest, Describe) {
  EXPECT_EQ(DelaySpec::normal(250, 50).describe(), "N(250,50)");
  EXPECT_EQ(DelaySpec::constant(5).describe(), "C(5)");
  EXPECT_EQ(DelaySpec::uniform(1, 9).describe(), "U(1,9)");
  EXPECT_EQ(DelaySpec::exponential(42).describe(), "Exp(42)");
}

TEST(DelaySpecTest, JsonRoundTrip) {
  DelaySpec spec = DelaySpec::normal(250, 50);
  spec.min_ms = 2.0;
  spec.max_ms = 1000.0;
  const DelaySpec back = DelaySpec::from_json(spec.to_json());
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_DOUBLE_EQ(back.a, spec.a);
  EXPECT_DOUBLE_EQ(back.b, spec.b);
  EXPECT_DOUBLE_EQ(back.min_ms, spec.min_ms);
  EXPECT_DOUBLE_EQ(back.max_ms, spec.max_ms);
}

TEST(DelaySpecTest, RejectsUnknownKind) {
  EXPECT_THROW((void)DelaySpec::from_json(json::parse(R"({"kind":"weird"})")),
               std::invalid_argument);
}

TEST(SimConfigTest, DefaultsAreValid) {
  SimConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.live_nodes(), cfg.n);  // honest == 0 means all live
}

TEST(SimConfigTest, LiveNodes) {
  SimConfig cfg;
  cfg.n = 16;
  cfg.honest = 11;
  EXPECT_EQ(cfg.live_nodes(), 11u);
}

TEST(SimConfigTest, ValidateRejectsBadValues) {
  SimConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig{};
  cfg.honest = cfg.n + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig{};
  cfg.lambda_ms = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig{};
  cfg.decisions = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig{};
  cfg.max_time_ms = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig{};
  cfg.protocol.clear();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig{};
  cfg.delay = DelaySpec::uniform(10, 5);  // hi < lo
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SimConfig{};
  cfg.delay.max_ms = 0.5;
  cfg.delay.min_ms = 1.0;  // max < min
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SimConfigTest, JsonRoundTrip) {
  SimConfig cfg;
  cfg.protocol = "hotstuff-ns";
  cfg.n = 32;
  cfg.honest = 27;
  cfg.lambda_ms = 500;
  cfg.delay = DelaySpec::uniform(100, 400);
  cfg.seed = 99;
  cfg.decisions = 10;
  cfg.attack = "partition";
  json::Object params;
  params["resolve_ms"] = 12000.0;
  cfg.attack_params = json::Value{std::move(params)};
  cfg.record_trace = true;

  const SimConfig back = SimConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.protocol, cfg.protocol);
  EXPECT_EQ(back.n, cfg.n);
  EXPECT_EQ(back.honest, cfg.honest);
  EXPECT_DOUBLE_EQ(back.lambda_ms, cfg.lambda_ms);
  EXPECT_EQ(back.delay.kind, cfg.delay.kind);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.decisions, cfg.decisions);
  EXPECT_EQ(back.attack, cfg.attack);
  EXPECT_DOUBLE_EQ(back.attack_params.get_number("resolve_ms", 0), 12000.0);
  EXPECT_TRUE(back.record_trace);
}

TEST(SimConfigTest, FromJsonUsesDefaultsForMissingKeys) {
  const SimConfig cfg = SimConfig::from_json(json::parse(R"({"protocol":"pbft"})"));
  EXPECT_EQ(cfg.protocol, "pbft");
  EXPECT_EQ(cfg.n, 16u);
  EXPECT_DOUBLE_EQ(cfg.lambda_ms, 1000.0);
}

TEST(SimConfigTest, FromJsonValidates) {
  EXPECT_THROW((void)SimConfig::from_json(json::parse(R"({"n": 0})")),
               std::invalid_argument);
}

// Strict parsing: malformed input produces a single-line error naming the
// exact JSON path, so a typo in a sweep file is caught immediately instead
// of being silently defaulted.

std::string error_of(const std::string& text) {
  try {
    (void)SimConfig::from_json(json::parse(text));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(StrictConfigTest, UnknownTopLevelKeyNamesPath) {
  EXPECT_EQ(error_of(R"({"protocl": "pbft"})"),
            "config error at $.protocl: unknown key");
}

TEST(StrictConfigTest, OutOfRangeValuesNamePath) {
  EXPECT_NE(error_of(R"({"n": -4})").find("config error at $.n"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"lambda_ms": 0})").find("$.lambda_ms"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"decisions": 0})").find("$.decisions"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"seed": -1})").find("$.seed"), std::string::npos);
  EXPECT_NE(error_of(R"({"max_events": 0})").find("$.max_events"),
            std::string::npos);
}

TEST(StrictConfigTest, ErrorsAreSingleLine) {
  const std::string msg = error_of(R"({"n": -4})");
  ASSERT_FALSE(msg.empty());
  EXPECT_EQ(msg.find('\n'), std::string::npos);
}

TEST(StrictConfigTest, DelaySpecRejectsUnknownAndOutOfRangeKeys) {
  EXPECT_EQ(error_of(R"({"delay": {"kinb": "normal"}})"),
            "config error at $.delay.kinb: unknown key");
  EXPECT_NE(error_of(R"({"delay": {"kind": "weird"}})").find("$.delay.kind"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"delay": {"kind": "normal", "a": -1}})")
                .find("$.delay.a"),
            std::string::npos);
}

TEST(StrictConfigTest, CostAndTopologyNamePaths) {
  EXPECT_EQ(error_of(R"({"cost": {"verify": 1}})"),
            "config error at $.cost.verify: unknown key");
  EXPECT_NE(error_of(R"({"cost": {"verify_ms": -1}})").find("$.cost.verify_ms"),
            std::string::npos);
  EXPECT_EQ(error_of(R"({"topology": {"region": 2}})"),
            "config error at $.topology.region: unknown key");
  EXPECT_NE(error_of(R"({"topology": {"regions": 0}})")
                .find("$.topology.regions"),
            std::string::npos);
}

TEST(StrictConfigTest, FaultSectionErrorsCarryFullPath) {
  EXPECT_EQ(error_of(R"({"faults": {"crashs": []}})"),
            "config error at $.faults.crashs: unknown key");
  EXPECT_NE(error_of(R"({"faults": {"corruption": {"rate": 2}}})")
                .find("$.faults.corruption.rate"),
            std::string::npos);
  EXPECT_NE(
      error_of(
          R"({"faults": {"clock": {"max_skew_ms": 1, "max_drift": 0.9}}})")
          .find("$.faults.clock.max_drift"),
      std::string::npos);
}

TEST(StrictConfigTest, FaultNodeRangeCheckedAgainstN) {
  // Structural parse succeeds; validate() then catches the out-of-range
  // node index against the run's n.
  EXPECT_NE(
      error_of(
          R"({"n": 4, "faults": {"crashes":
              [{"node": 9, "at_ms": 0, "duration_ms": 10}]}})")
          .find("$.faults.crashes[0].node"),
      std::string::npos);
}

TEST(SimConfigTest, FaultsRoundTripThroughConfigJson) {
  SimConfig cfg;
  cfg.faults.crashes.push_back({1, 100.0, 50.0});
  cfg.faults.corruption = {0.1, 0.0, 500.0};
  const SimConfig back = SimConfig::from_json(cfg.to_json());
  ASSERT_EQ(back.faults.crashes.size(), 1u);
  EXPECT_EQ(back.faults.crashes[0].node, 1u);
  EXPECT_DOUBLE_EQ(back.faults.corruption.rate, 0.1);
  EXPECT_TRUE(back.faults.enabled());
}

TEST(EngineConfigTest, DefaultsAreSerialAndOmittedFromJson) {
  const SimConfig cfg;
  EXPECT_EQ(cfg.engine.intra_jobs, 1u);
  EXPECT_EQ(cfg.engine.rng, EngineConfig::RngMode::kAuto);
  EXPECT_FALSE(cfg.engine.per_node_rng());
  EXPECT_FALSE(cfg.engine.active());
  // Inactive engine sections stay out of the emitted JSON so pre-existing
  // configs round-trip byte-identically.
  EXPECT_EQ(cfg.to_json().as_object().find("engine"), nullptr);
}

TEST(EngineConfigTest, RoundTripsThroughConfigJson) {
  SimConfig cfg;
  cfg.engine.intra_jobs = 8;
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  const SimConfig back = SimConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.engine.intra_jobs, 8u);
  EXPECT_EQ(back.engine.rng, EngineConfig::RngMode::kPerNode);
  EXPECT_TRUE(back.engine.per_node_rng());
}

TEST(EngineConfigTest, AutoModeSelectsPerNodeRngOnlyWhenParallel) {
  EngineConfig engine;
  EXPECT_FALSE(engine.per_node_rng());
  engine.intra_jobs = 2;
  EXPECT_TRUE(engine.per_node_rng());
}

TEST(StrictEngineConfigTest, UnknownKeysAndModesNamePath) {
  EXPECT_EQ(error_of(R"({"engine": {"intra_job": 2}})"),
            "config error at $.engine.intra_job: unknown key");
  EXPECT_NE(error_of(R"({"engine": {"rng": "shared"}})").find("$.engine.rng"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"engine": {"intra_jobs": 0}})")
                .find("$.engine.intra_jobs"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"engine": {"intra_jobs": 129}})")
                .find("$.engine.intra_jobs"),
            std::string::npos);
}

TEST(StrictEngineConfigTest, StreamRngNamesItsRemoval) {
  const std::string error =
      error_of(R"({"engine": {"intra_jobs": 1, "rng": "stream"}})");
  EXPECT_NE(error.find("$.engine.rng"), std::string::npos) << error;
  EXPECT_NE(error.find("removed"), std::string::npos) << error;
  EXPECT_NE(error.find("\"auto\""), std::string::npos) << error;
}

TEST(StrictEngineConfigTest, WindowedModeExcludesTimelineButNotAttacks) {
  // Attack + parallel engine is no longer a config error: the controller
  // deterministically falls back to the serial engine for such runs and
  // records an "engine-serial-fallback" warning on the RunResult (see
  // tests/sim/serial_fallback_test.cpp), so sweeps with a global
  // engine.intra_jobs survive their attack points.
  EXPECT_EQ(error_of(R"({"engine": {"intra_jobs": 4},
                          "attack": "partition"})"),
            "");
  EXPECT_EQ(error_of(R"({"engine": {"rng": "per_node"},
                          "attack": "partition"})"),
            "");
  EXPECT_NE(error_of(R"({"engine": {"intra_jobs": 4},
                          "obs": {"timeline_tick_ms": 100}})")
                .find("timeline"),
            std::string::npos);
  // Serial engine + attack stays valid, as before.
  EXPECT_EQ(error_of(R"({"attack": "partition"})"), "");
}

TEST(SimConfigTest, FromFile) {
  const std::string path = ::testing::TempDir() + "/bftsim_config_test.json";
  {
    std::ofstream out(path);
    out << R"({"protocol": "librabft", "n": 8, "lambda_ms": 750,)"
        << R"( "delay": {"kind": "exponential", "a": 200}})";
  }
  const SimConfig cfg = SimConfig::from_file(path);
  EXPECT_EQ(cfg.protocol, "librabft");
  EXPECT_EQ(cfg.n, 8u);
  EXPECT_DOUBLE_EQ(cfg.lambda_ms, 750.0);
  EXPECT_EQ(cfg.delay.kind, DelaySpec::Kind::kExponential);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bftsim
