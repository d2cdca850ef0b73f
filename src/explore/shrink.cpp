#include "explore/shrink.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "explore/scenario.hpp"

namespace bftsim::explore {

namespace {

/// Removes fault windows that reference nodes outside [0, cfg.n).
void prune_faults_for_n(SimConfig& cfg) {
  const std::uint32_t n = cfg.n;
  auto& crashes = cfg.faults.crashes;
  crashes.erase(std::remove_if(crashes.begin(), crashes.end(),
                               [n](const CrashWindow& w) { return w.node >= n; }),
                crashes.end());
  auto& flaps = cfg.faults.link_flaps;
  flaps.erase(std::remove_if(flaps.begin(), flaps.end(),
                             [n](const LinkFlapWindow& w) {
                               return w.a >= n || w.b >= n;
                             }),
              flaps.end());
}

/// The fixed-order candidate list for one shrinking round. Ordered from
/// most to least simplifying, so the restart-after-acceptance loop removes
/// big pieces (the whole attack, whole fault windows, excess nodes) before
/// polishing numbers.
[[nodiscard]] std::vector<SimConfig> candidates(const SimConfig& cfg,
                                                const ShrinkPolicy& policy) {
  std::vector<SimConfig> out;

  if (!policy.keep_attack && !cfg.attack.empty()) {
    SimConfig c = cfg;
    c.attack.clear();
    c.attack_params = json::Value{};
    out.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < cfg.faults.crashes.size(); ++i) {
    SimConfig c = cfg;
    c.faults.crashes.erase(c.faults.crashes.begin() +
                           static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < cfg.faults.link_flaps.size(); ++i) {
    SimConfig c = cfg;
    c.faults.link_flaps.erase(c.faults.link_flaps.begin() +
                              static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(c));
  }
  if (cfg.faults.corruption.enabled()) {
    SimConfig c = cfg;
    c.faults.corruption = CorruptionSpec{};
    out.push_back(std::move(c));
  }
  if (cfg.faults.clock.enabled()) {
    SimConfig c = cfg;
    c.faults.clock = ClockSpec{};
    out.push_back(std::move(c));
  }
  for (const std::uint32_t m : {4U, 7U, 10U}) {  // the generator's ladder
    if (m >= cfg.n) continue;
    SimConfig c = cfg;
    c.n = m;
    prune_faults_for_n(c);
    out.push_back(std::move(c));
  }
  if (cfg.decisions > 1) {
    SimConfig c = cfg;
    c.decisions = 1;
    out.push_back(std::move(c));
  }
  if (cfg.delay.kind != DelaySpec::Kind::kConstant) {
    SimConfig c = cfg;
    // Representative constant: the distribution's central value.
    const double center = cfg.delay.kind == DelaySpec::Kind::kUniform
                              ? (cfg.delay.a + cfg.delay.b) / 2.0
                              : cfg.delay.a;  // normal mu / exponential mean
    c.delay = DelaySpec::constant(quantize_eighth_ms(std::max(center, 1.0)));
    out.push_back(std::move(c));
  }
  if (cfg.attack == "partition" && cfg.attack_params.is_object()) {
    const double resolve = cfg.attack_params.get_number("resolve_ms", 0.0);
    if (resolve > 2'000.0) {
      SimConfig c = cfg;
      // json::Value copies share their underlying object, so mutating the
      // candidate through as_object() would rewrite `cfg` (and every
      // sibling candidate) too. Rebuild the params object instead.
      json::Object params;
      for (const auto& [key, value] : cfg.attack_params.as_object()) {
        params[key] = value;
      }
      params["resolve_ms"] = quantize_eighth_ms(resolve / 2.0);
      c.attack_params = json::Value{std::move(params)};
      out.push_back(std::move(c));
    }
  }
  // Halving the horizon is degenerate for liveness-style properties
  // ("still times out with less time" is always true); see the header.
  if (!policy.skip_horizon && cfg.max_time_ms > 2'000.0) {
    SimConfig c = cfg;
    c.max_time_ms = quantize_eighth_ms(cfg.max_time_ms / 2.0);
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

Finding shrink_config(Finding best, const ShrinkPredicate& interesting,
                      const ShrinkPolicy& policy) {
  bool improved = true;
  while (improved && best.shrink_runs < policy.max_runs) {
    improved = false;
    for (SimConfig& candidate : candidates(best.config, policy)) {
      if (best.shrink_runs >= policy.max_runs) break;
      try {
        candidate.validate();
      } catch (const std::exception&) {
        continue;  // transformation produced an inconsistent config
      }
      ++best.shrink_runs;
      std::optional<Evidence> accepted;
      try {
        accepted = interesting(candidate);
      } catch (const std::exception&) {
        continue;  // a crashing candidate is a different bug; keep shrinking
      }
      if (!accepted) continue;
      best.config = std::move(candidate);
      best.evidence = std::move(*accepted);
      ++best.shrink_steps;
      improved = true;
      break;  // restart from the most simplifying transformation
    }
  }
  return best;
}

Finding shrink_scenario(const SimConfig& failing, Oracle expected,
                        std::size_t max_runs) {
  // A candidate is interesting when the SAME oracle still fires.
  const auto violates = [expected](const Evidence& evidence) {
    const auto& report = std::get<OracleReport>(evidence.verdict);
    return !report.ok && report.violated == expected;
  };
  Finding start;
  start.config = failing;
  start.evidence = oracle_evidence(failing);
  start.shrink_runs = 1;  // the reference run
  if (!violates(start.evidence)) {
    throw std::invalid_argument(
        "shrink_scenario: input run does not violate the " +
        std::string(to_string(expected)) + " oracle (got: " +
        describe(start.evidence.verdict) + ")");
  }

  ShrinkPolicy policy;
  policy.keep_attack = false;
  policy.skip_horizon = expected == Oracle::kLiveness;
  policy.max_runs = max_runs;
  return shrink_config(
      std::move(start),
      [&violates](const SimConfig& candidate) -> std::optional<Evidence> {
        Evidence evidence = oracle_evidence(candidate);
        if (!violates(evidence)) return std::nullopt;
        return evidence;
      },
      policy);
}

}  // namespace bftsim::explore
