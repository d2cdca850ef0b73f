#include "explore/oracles.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "protocols/registry.hpp"
#include "validator/validator.hpp"

namespace bftsim::explore {

std::string_view to_string(Oracle oracle) noexcept {
  switch (oracle) {
    case Oracle::kAgreement: return "agreement";
    case Oracle::kValidity: return "validity";
    case Oracle::kCompleteness: return "completeness";
    case Oracle::kCertificate: return "certificate";
    case Oracle::kLiveness: return "liveness";
  }
  return "?";
}

Oracle oracle_from_string(std::string_view name) {
  for (const Oracle oracle :
       {Oracle::kAgreement, Oracle::kValidity, Oracle::kCompleteness,
        Oracle::kCertificate, Oracle::kLiveness}) {
    if (name == to_string(oracle)) return oracle;
  }
  throw std::invalid_argument("unknown oracle name: " + std::string(name));
}

std::string OracleReport::to_string() const {
  if (ok) return "ok";
  return std::string(explore::to_string(violated)) + ": " + diagnosis;
}

bool is_quiescent(const SimConfig& cfg) noexcept {
  return cfg.attack.empty() && !cfg.faults.enabled() && cfg.honest == 0;
}

std::optional<CertificateRule> certificate_rule(const std::string& protocol,
                                                std::uint32_t n) {
  const std::uint32_t f =
      ProtocolRegistry::instance().get(protocol).fault_threshold(n);
  // min_senders is the protocol's commit quorum minus the certificate
  // contributions that never cross the wire: in leader-collected protocols
  // (the HotStuff family) the leader's own vote reaches it locally, so one
  // sender fewer than the quorum is provably on the wire.
  if (protocol == "pbft" || protocol == "pbft-canary") {
    return CertificateRule{"pbft/commit", 2 * f + 1};
  }
  if (protocol == "tendermint") {
    return CertificateRule{"tendermint/precommit", 2 * f + 1};
  }
  if (protocol == "hotstuff-ns" || protocol == "librabft") {
    return CertificateRule{"hotstuff/vote", 2 * f};
  }
  if (protocol == "sync-hotstuff") {
    return CertificateRule{"sync-hs/vote", f};
  }
  return std::nullopt;  // add*/algorand/asyncba: no fixed vote quorum
}

std::optional<CertificateWitness> certificate_witness(
    const SimConfig& cfg, const RunResult& result) {
  const auto rule = certificate_rule(cfg.protocol, cfg.n);
  if (!rule || result.decisions.empty() || result.trace.empty()) {
    return std::nullopt;
  }

  const std::unordered_set<NodeId> honest(result.honest.begin(),
                                          result.honest.end());
  bool found = false;
  Time first_decide = 0;
  for (const Decision& d : result.decisions) {
    if (honest.count(d.node) == 0) continue;
    if (!found || d.at < first_decide) first_decide = d.at;
    found = true;
  }
  if (!found) return std::nullopt;

  std::unordered_set<NodeId> senders;
  for (const TraceRecord& rec : result.trace.records()) {
    if (rec.kind == TraceKind::kSend && rec.at <= first_decide &&
        rec.type == rule->vote_type) {
      senders.insert(rec.a);
    }
  }
  return CertificateWitness{*rule, first_decide, senders.size()};
}

namespace {

/// Certificate-validity check; empty string means no violation.
[[nodiscard]] std::string check_certificate(const SimConfig& cfg,
                                            const RunResult& result) {
  const auto w = certificate_witness(cfg, result);
  if (!w || w->senders >= w->rule.min_senders) return {};
  return "first decide at " + std::to_string(to_ms(w->first_decide)) +
         "ms backed by only " + std::to_string(w->senders) + " distinct " +
         w->rule.vote_type + " senders (certificate needs >= " +
         std::to_string(w->rule.min_senders) + ")";
}

}  // namespace

OracleReport check_oracles(const SimConfig& cfg, const RunResult& result) {
  OracleReport report;

  const SafetyReport safety = check_run_safety(result);
  if (!safety.agreement) {
    report.ok = false;
    report.violated = Oracle::kAgreement;
    report.diagnosis = safety.diagnosis;
    return report;
  }
  if (!safety.validity) {
    report.ok = false;
    report.violated = Oracle::kValidity;
    report.diagnosis = safety.diagnosis;
    return report;
  }
  if (!safety.complete) {
    report.ok = false;
    report.violated = Oracle::kCompleteness;
    report.diagnosis = safety.diagnosis;
    return report;
  }

  if (std::string cert = check_certificate(cfg, result); !cert.empty()) {
    report.ok = false;
    report.violated = Oracle::kCertificate;
    report.diagnosis = std::move(cert);
    return report;
  }

  if (is_quiescent(cfg) &&
      result.termination_reason != TerminationReason::kDecided) {
    report.ok = false;
    report.violated = Oracle::kLiveness;
    report.diagnosis =
        "quiescent scenario ended with \"" +
        std::string(bftsim::to_string(result.termination_reason)) +
        "\" instead of deciding";
    return report;
  }

  return report;
}

}  // namespace bftsim::explore
