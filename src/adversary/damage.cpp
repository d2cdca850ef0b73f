#include "adversary/damage.hpp"

#include <cstdio>

#include "core/config_check.hpp"
#include "explore/oracles.hpp"

namespace bftsim::adversary {

namespace {

void append_metric(std::string& out, const char* label, double value) {
  if (value <= 0.0) return;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s +%.2f", label, value);
  if (!out.empty()) out += ", ";
  out += buf;
}

}  // namespace

std::string DamageReport::describe() const {
  std::string out;
  if (safety_violated) out += "SAFETY";
  if (stalled) {
    if (!out.empty()) out += ", ";
    out += "stall";
  }
  append_metric(out, "latency", latency_ratio);
  append_metric(out, "churn", view_churn);
  append_metric(out, "near-miss", quorum_near_miss);
  return out.empty() ? "none" : out;
}

json::Value DamageReport::to_json() const {
  json::Object o;
  o["stalled"] = stalled;
  o["safety_violated"] = safety_violated;
  o["safety_diagnosis"] = safety_diagnosis;
  o["latency_ratio"] = latency_ratio;
  o["view_churn"] = view_churn;
  o["quorum_near_miss"] = quorum_near_miss;
  o["score"] = score;
  return json::Value{std::move(o)};
}

DamageReport DamageReport::from_json(const json::Value& v,
                                     const std::string& path) {
  cfgcheck::require_keys(v, path,
                         {"stalled", "safety_violated", "safety_diagnosis",
                          "latency_ratio", "view_churn", "quorum_near_miss",
                          "score"});
  DamageReport report;
  report.stalled = v.get_bool("stalled", false);
  report.safety_violated = v.get_bool("safety_violated", false);
  report.safety_diagnosis = v.get_string("safety_diagnosis", "");
  report.latency_ratio = v.get_number("latency_ratio", 0.0);
  report.view_churn = v.get_number("view_churn", 0.0);
  report.quorum_near_miss = v.get_number("quorum_near_miss", 0.0);
  report.score = v.get_number("score", 0.0);
  return report;
}

std::optional<double> quorum_slack(const SimConfig& cfg,
                                   const RunResult& result) {
  const auto witness = explore::certificate_witness(cfg, result);
  if (!witness) return std::nullopt;
  return static_cast<double>(witness->senders) -
         static_cast<double>(witness->rule.min_senders);
}

DamageReport compute_damage(const SimConfig& attacked_cfg,
                            const RunResult& baseline,
                            const RunResult& attacked) {
  DamageReport damage;

  // Safety first: an oracle firing under attack dominates everything.
  // (The liveness oracle only applies to quiescent configs and so can
  // never fire here; stalls are scored separately below.)
  const explore::OracleReport oracles =
      explore::check_oracles(attacked_cfg, attacked);
  if (!oracles.ok) {
    damage.safety_violated = true;
    damage.safety_diagnosis = oracles.to_string();
  }

  damage.stalled = !attacked.terminated;

  if (!damage.stalled && baseline.terminated && baseline.latency_ms() > 0) {
    const double ratio = attacked.latency_ms() / baseline.latency_ms() - 1.0;
    if (ratio > 0) damage.latency_ratio = ratio;
  }

  const double churn = static_cast<double>(attacked.rounds_used()) -
                       static_cast<double>(baseline.rounds_used());
  if (churn > 0) damage.view_churn = churn;

  // Quorum near-miss only applies when the attacked run still decided —
  // a stalled run has no certificate to measure, and the stall term
  // already dominates.
  if (!damage.stalled) {
    const auto base_slack = quorum_slack(attacked_cfg, baseline);
    const auto att_slack = quorum_slack(attacked_cfg, attacked);
    if (base_slack && att_slack && *att_slack < *base_slack) {
      damage.quorum_near_miss = *base_slack - *att_slack;
    }
  }

  damage.score = (damage.safety_violated ? kSafetyWeight : 0.0) +
                 (damage.stalled ? kStallWeight : 0.0) +
                 kLatencyWeight * damage.latency_ratio +
                 kChurnWeight * damage.view_churn +
                 kNearMissWeight * damage.quorum_near_miss;
  return damage;
}

SimConfig baseline_of(SimConfig attacked_cfg) {
  attacked_cfg.attack.clear();
  attacked_cfg.attack_params = json::Value{};
  return attacked_cfg;
}

}  // namespace bftsim::adversary
