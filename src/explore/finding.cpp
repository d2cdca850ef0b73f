#include "explore/finding.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "core/config_check.hpp"
#include "explore/canary.hpp"
#include "runner/export.hpp"
#include "sim/simulation.hpp"

namespace bftsim::explore {

namespace {

[[nodiscard]] RunPrint print_of(const RunResult& result) {
  return RunPrint{result.trace_fingerprint, result.trace_records};
}

[[nodiscard]] const json::Value& field(const json::Value& v,
                                       const std::string& path,
                                       const std::string& key) {
  const json::Value* f = v.as_object().find(key);
  if (f == nullptr) cfgcheck::fail(path + "." + key, "missing");
  return *f;
}

[[nodiscard]] std::string string_at(const json::Value& v,
                                    const std::string& path,
                                    const std::string& key) {
  const json::Value& f = field(v, path, key);
  if (!f.is_string()) cfgcheck::fail(path + "." + key, "expected a string");
  return f.as_string();
}

[[nodiscard]] std::uint64_t count_at(const json::Value& v,
                                     const std::string& path,
                                     const std::string& key) {
  const json::Value& f = field(v, path, key);
  const double x = f.is_number() ? f.as_number() : -1.0;
  if (!(x >= 0.0 && x < 9007199254740992.0 && x == std::floor(x))) {
    cfgcheck::fail(path + "." + key, "expected a whole number in [0, 2^53)");
  }
  return static_cast<std::uint64_t>(x);
}

[[nodiscard]] std::uint64_t parse_hex64(const std::string& s,
                                        const std::string& path) {
  std::uint64_t value = 0;
  const char* end = s.data() + s.size();
  const auto [stop, error] = std::from_chars(s.data(), end, value, 16);
  if (s.empty() || s.size() > 16 || stop != end || error != std::errc{}) {
    cfgcheck::fail(path, "expected a hex string of 1..16 digits, got \"" +
                             s + "\"");
  }
  return value;
}

}  // namespace

Evidence oracle_evidence(const SimConfig& cfg) {
  if (cfg.protocol == kCanaryProtocol) register_fuzz_canary();
  const RunResult result = run_simulation(cfg);
  return Evidence{check_oracles(cfg, result), {print_of(result)}};
}

Evidence damage_evidence(const SimConfig& cfg) {
  const RunResult baseline = run_simulation(adversary::baseline_of(cfg));
  const RunResult attacked = run_simulation(cfg);
  return Evidence{adversary::compute_damage(cfg, baseline, attacked),
                  {print_of(attacked), print_of(baseline)}};
}

std::string describe(const Verdict& verdict) {
  if (const auto* report = std::get_if<OracleReport>(&verdict)) {
    return report->to_string();
  }
  const auto& damage = std::get<adversary::DamageReport>(verdict);
  return "score " + json::Value{damage.score}.dump() + " (" +
         damage.describe() + ")";
}

json::Value Finding::to_json() const {
  json::Object o;
  o["schema"] = kFindingSchema;
  o["id"] = id;
  o["seed"] = seed;
  json::Object verdict;
  if (const auto* report = std::get_if<OracleReport>(&evidence.verdict)) {
    verdict["oracle"] = std::string(explore::to_string(report->violated));
    verdict["diagnosis"] = report->diagnosis;
  } else {
    verdict["damage"] =
        std::get<adversary::DamageReport>(evidence.verdict).to_json();
  }
  o["verdict"] = json::Value{std::move(verdict)};
  json::Array runs;
  for (const RunPrint& run : evidence.runs) {
    json::Object r;
    r["fingerprint"] = fingerprint_to_hex(run.fingerprint);
    r["records"] = run.records;
    runs.emplace_back(json::Value{std::move(r)});
  }
  o["runs"] = json::Value{std::move(runs)};
  o["shrink_steps"] = static_cast<std::uint64_t>(shrink_steps);
  o["shrink_runs"] = static_cast<std::uint64_t>(shrink_runs);
  o["config"] = config.to_json();
  return json::Value{std::move(o)};
}

Finding Finding::from_json(const json::Value& v, const std::string& path) {
  const std::string schema = string_at(v, path, "schema");
  if (schema == "bftsim-fuzz-reproducer-v1" ||
      schema == "bftsim-adversary-reproducer-v1") {
    cfgcheck::fail(path + ".schema",
                   "\"" + schema + "\" is a v1 reproducer, which is no " +
                       "longer read; the v1 corpora were migrated once to \"" +
                       kFindingSchema + "\" (tests/data/findings/), so " +
                       "re-run `explore fuzz` or `explore search` to get one");
  }
  if (schema != kFindingSchema) {
    cfgcheck::fail(path + ".schema", "expected \"" +
                                         std::string(kFindingSchema) +
                                         "\", got \"" + schema + "\"");
  }
  cfgcheck::require_keys(v, path,
                         {"schema", "id", "seed", "verdict", "runs",
                          "shrink_steps", "shrink_runs", "config"});
  Finding finding;
  finding.id = string_at(v, path, "id");
  finding.seed = count_at(v, path, "seed");
  finding.shrink_steps = count_at(v, path, "shrink_steps");
  finding.shrink_runs = count_at(v, path, "shrink_runs");
  finding.config = SimConfig::from_json(field(v, path, "config"));

  const std::string verdict_path = path + ".verdict";
  const json::Value& verdict = field(v, path, "verdict");
  std::size_t expected_runs = 1;
  if (verdict.as_object().contains("damage")) {
    cfgcheck::require_keys(verdict, verdict_path, {"damage"});
    finding.evidence.verdict = adversary::DamageReport::from_json(
        field(verdict, verdict_path, "damage"), verdict_path + ".damage");
    expected_runs = 2;
  } else {
    cfgcheck::require_keys(verdict, verdict_path, {"oracle", "diagnosis"});
    OracleReport report;
    report.ok = false;
    const std::string name = string_at(verdict, verdict_path, "oracle");
    try {
      report.violated = oracle_from_string(name);
    } catch (const std::invalid_argument&) {
      cfgcheck::fail(verdict_path + ".oracle",
                     "unknown oracle \"" + name + "\"");
    }
    report.diagnosis = string_at(verdict, verdict_path, "diagnosis");
    finding.evidence.verdict = std::move(report);
  }

  const json::Value& runs = field(v, path, "runs");
  if (!runs.is_array() || runs.as_array().size() != expected_runs) {
    cfgcheck::fail(path + ".runs",
                   "expected " + std::to_string(expected_runs) +
                       " run(s) for this verdict");
  }
  for (std::size_t i = 0; i < expected_runs; ++i) {
    const json::Value& run = runs.as_array()[i];
    const std::string run_path = path + ".runs[" + std::to_string(i) + "]";
    cfgcheck::require_keys(run, run_path, {"fingerprint", "records"});
    finding.evidence.runs.push_back(
        RunPrint{parse_hex64(string_at(run, run_path, "fingerprint"),
                             run_path + ".fingerprint"),
                 count_at(run, run_path, "records")});
  }
  return finding;
}

Finding Finding::from_file(const std::string& file) {
  return from_json(json::parse_file(file));
}

void Finding::save(const std::string& file) const {
  std::ofstream out(file);
  if (!out) throw std::runtime_error("cannot write finding: " + file);
  out << to_json().dump(2) << '\n';
}

Replay Finding::replay() const {
  Replay replay;
  if (const auto* recorded = std::get_if<OracleReport>(&evidence.verdict)) {
    replay.evidence = oracle_evidence(config);
    const auto& now = std::get<OracleReport>(replay.evidence.verdict);
    replay.verdict_matches = !now.ok && now.violated == recorded->violated;
  } else {
    replay.evidence = damage_evidence(config);
    const auto& was = std::get<adversary::DamageReport>(evidence.verdict);
    const auto& now =
        std::get<adversary::DamageReport>(replay.evidence.verdict);
    // Exact equality is intentional: the score is deterministic double
    // arithmetic over run products, and JSON numbers round-trip bit-exactly.
    replay.verdict_matches = now.score == was.score &&
                             now.stalled == was.stalled &&
                             now.safety_violated == was.safety_violated;
  }
  replay.runs_match = replay.evidence.runs == evidence.runs;
  return replay;
}

}  // namespace bftsim::explore
