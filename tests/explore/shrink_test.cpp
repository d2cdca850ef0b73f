// Counterexample shrinking: deterministic, budget-respecting, and free of
// the config-aliasing hazard that json::Value's shared-object copies invite.
#include "explore/shrink.hpp"

#include <gtest/gtest.h>

#include <variant>

#include "explore/canary.hpp"
#include "explore/scenario.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"

namespace bftsim::explore {
namespace {

/// A canary scenario known to violate `oracle`, capped exactly as the
/// campaign engine caps it before shrinking.
SimConfig failing_config(std::uint64_t index) {
  register_fuzz_canary();
  const Watchdog watchdog{2'000'000, 0.0};
  return watchdog.apply(generate_scenario(ScenarioSpace::canary(), 1, index).config);
}

TEST(Shrink, ReducesTheScenarioAndPreservesTheViolation) {
  const SimConfig failing = failing_config(3);  // certificate violation
  const Finding result = shrink_scenario(failing, Oracle::kCertificate);
  EXPECT_GT(result.shrink_steps, 0u);
  EXPECT_GE(result.shrink_runs, result.shrink_steps + 1);  // + the reference
  EXPECT_LT(result.config.max_time_ms, failing.max_time_ms);
  const auto& report = std::get<OracleReport>(result.evidence.verdict);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.violated, Oracle::kCertificate);

  // The shrunk config independently reproduces verdict and fingerprint.
  const RunResult rerun = run_simulation(result.config);
  const OracleReport verdict = check_oracles(result.config, rerun);
  ASSERT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.violated, Oracle::kCertificate);
  ASSERT_EQ(result.evidence.runs.size(), 1u);
  EXPECT_EQ(rerun.trace_fingerprint, result.evidence.runs[0].fingerprint);
  EXPECT_EQ(rerun.trace_records, result.evidence.runs[0].records);
}

TEST(Shrink, IsDeterministic) {
  const SimConfig failing = failing_config(3);
  const Finding a = shrink_scenario(failing, Oracle::kCertificate);
  const Finding b = shrink_scenario(failing, Oracle::kCertificate);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(Shrink, DoesNotMutateTheInputConfig) {
  // Regression: json::Value copies share their underlying object, so a
  // candidate that edited attack_params in place would silently rewrite
  // the input (and the current best) even when the candidate is rejected.
  // Scenario 28 carries a partition attack whose resolve_ms the shrinker
  // halves, which is exactly the transformation that used to alias.
  const SimConfig failing = failing_config(28);  // agreement violation
  ASSERT_EQ(failing.attack, "partition");
  const std::string before = failing.to_json().dump();
  const Finding result = shrink_scenario(failing, Oracle::kAgreement);
  EXPECT_EQ(failing.to_json().dump(), before)
      << "shrink_scenario mutated its input";
  // The accepted shrink really did halve the partition's resolve window.
  ASSERT_TRUE(result.config.attack_params.is_object());
  EXPECT_LT(result.config.attack_params.get_number("resolve_ms", 1e18),
            failing.attack_params.get_number("resolve_ms", 0.0));
}

TEST(Shrink, RespectsTheRunBudget) {
  const SimConfig failing = failing_config(3);
  const Finding result = shrink_scenario(failing, Oracle::kCertificate, 3);
  EXPECT_LE(result.shrink_runs, 3u);
  const auto& report = std::get<OracleReport>(result.evidence.verdict);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.violated, Oracle::kCertificate);
}

TEST(Shrink, NonViolatingInputThrows) {
  SimConfig healthy;
  healthy.protocol = "pbft";
  healthy.n = 4;
  healthy.lambda_ms = 1000;
  healthy.delay = DelaySpec::normal(250, 50);
  healthy.seed = 1;
  healthy.decisions = 1;
  healthy.max_time_ms = 60'000;
  healthy.record_trace = true;
  EXPECT_THROW((void)shrink_scenario(healthy, Oracle::kAgreement),
               std::invalid_argument);
}

}  // namespace
}  // namespace bftsim::explore
