#include "explore/campaign.hpp"

#include <algorithm>
#include <utility>

#include "core/config_check.hpp"
#include "core/thread_pool.hpp"
#include "explore/canary.hpp"
#include "runner/export.hpp"
#include "sim/simulation.hpp"

namespace bftsim::explore {

CampaignOptions CampaignOptions::from_json(const json::Value& v,
                                           const std::string& path) {
  cfgcheck::require_keys(
      v, path, {"space", "seed", "scenarios", "max_events", "shrink_runs"});
  CampaignOptions options;
  if (const json::Value* space = v.as_object().find("space")) {
    options.space = ScenarioSpace::from_json(*space, path + ".space");
  }
  options.seed = static_cast<std::uint64_t>(
      cfgcheck::int_in(v, path, "seed", 1, 0, (1LL << 53)));
  options.scenario_count = static_cast<std::uint64_t>(cfgcheck::int_in(
      v, path, "scenarios", 100, kScenariosRange.lo, kScenariosRange.hi));
  options.watchdog.max_events = static_cast<std::uint64_t>(
      cfgcheck::int_in(v, path, "max_events", 2'000'000, kMaxEventsRange.lo,
                       kMaxEventsRange.hi));
  options.shrink_runs = static_cast<std::size_t>(
      cfgcheck::int_in(v, path, "shrink_runs", 200, kShrinkRunsRange.lo,
                       kShrinkRunsRange.hi));
  return options;
}

json::Value CampaignReport::to_json() const {
  json::Object o;
  o["schema"] = "bftsim-fuzz-campaign-v2";
  o["seed"] = seed;
  o["scenarios"] = scenario_count;
  o["tally"] = termination_tally_to_json(tally);
  json::Array finds;
  for (const CampaignFinding& f : findings) {
    json::Object fo;
    fo["index"] = f.index;
    fo["original_verdict"] = f.original.to_string();
    fo["finding"] = f.finding.to_json();
    finds.emplace_back(json::Value{std::move(fo)});
  }
  o["findings"] = json::Value{std::move(finds)};
  json::Array crash_list;
  for (const RunFailure& c : crashes) {
    crash_list.push_back(run_failure_to_json(c));
  }
  o["crashes"] = json::Value{std::move(crash_list)};
  return json::Value{std::move(o)};
}

CampaignReport run_campaign(const CampaignOptions& options) {
  if (std::find(options.space.protocols.begin(), options.space.protocols.end(),
                std::string(kCanaryProtocol)) != options.space.protocols.end()) {
    register_fuzz_canary();
  }

  // Scenario configs are generated up front (cheap, deterministic) with
  // the watchdog budgets baked in, so the config a finding records is the
  // config that actually ran.
  const std::uint64_t count = options.scenario_count;
  std::vector<Scenario> scenarios;
  scenarios.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Scenario s = generate_scenario(options.space, options.seed, i);
    s.config = options.watchdog.apply(std::move(s.config));
    scenarios.push_back(std::move(s));
  }

  struct Run {
    OracleReport report;
    TerminationReason reason = TerminationReason::kQueueDrained;
  };
  ThreadPool pool(options.jobs == 0 ? ThreadPool::default_workers()
                                    : options.jobs);
  std::vector<Slot<Run>> slots =
      fan_out(pool, scenarios.size(), [&scenarios](std::size_t i) {
        const RunResult result = run_simulation(scenarios[i].config);
        return Run{check_oracles(scenarios[i].config, result),
                   result.termination_reason};
      });

  CampaignReport report;
  report.seed = options.seed;
  report.scenario_count = count;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot<Run>& slot = slots[i];
    const Scenario& scenario = scenarios[i];
    if (!slot.value) {
      ++report.tally.failed;
      RunFailure failure;
      failure.point = i;
      failure.seed = scenario.config.seed;
      failure.label = scenario.id();
      failure.error = std::move(slot.error);
      failure.config = scenario.config;
      report.crashes.push_back(std::move(failure));
      continue;
    }
    switch (slot.value->reason) {
      case TerminationReason::kDecided: ++report.tally.decided; break;
      case TerminationReason::kHorizon: ++report.tally.horizon; break;
      case TerminationReason::kEventBudget: ++report.tally.event_budget; break;
      case TerminationReason::kQueueDrained: ++report.tally.queue_drained; break;
    }
    if (slot.value->report.ok) continue;

    // Shrink serially, in scenario order: shrinking re-runs simulations,
    // and doing it off the pool keeps the transformation sequence (and
    // with it the finding) deterministic.
    CampaignFinding finding;
    finding.index = scenario.index;
    finding.finding = shrink_scenario(
        scenario.config, slot.value->report.violated, options.shrink_runs);
    finding.finding.id = scenario.id();
    finding.finding.seed = scenario.campaign_seed;
    finding.original = std::move(slot.value->report);
    report.findings.push_back(std::move(finding));
  }
  return report;
}

}  // namespace bftsim::explore
