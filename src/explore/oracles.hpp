// Invariant oracles: the properties every fuzzed run is checked against.
//
// Three come straight from the validator module (agreement, validity,
// completeness — see check_run_safety). Two are new here:
//
//  * liveness-under-quiescence: a scenario with no attacker and no fault
//    windows ("quiescent") must terminate with every honest node decided.
//    Protocols are only required to be live when their environment behaves,
//    so the oracle deliberately says nothing about runs with attacks,
//    crashes, flaps or corruption — those may legitimately time out.
//
//  * certificate validity: by the time the first honest node decides, the
//    protocol's quorum certificate must actually have been formed on the
//    wire — at least `min_senders` distinct nodes must appear as senders of
//    the protocol's vote-type messages in the trace. A decide backed by
//    fewer votes than any valid certificate can contain (the pbft-canary
//    bug, for instance) is flagged even when, by luck, no disagreement
//    materialized in this particular run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "sim/result.hpp"

namespace bftsim::explore {

/// The invariant a run violated. Order matters: a run is checked against
/// the oracles in enumerator order and the first violation is reported, so
/// shrinking preserves the most fundamental property broken.
enum class Oracle : std::uint8_t {
  kAgreement,    ///< two honest nodes decided different values at a height
  kValidity,     ///< a node's decision heights are not contiguous from 0
  kCompleteness, ///< run terminated but an honest node missed the target
  kCertificate,  ///< first decide happened before a full quorum hit the wire
  kLiveness,     ///< quiescent scenario failed to decide within the horizon
};

[[nodiscard]] std::string_view to_string(Oracle oracle) noexcept;

/// Inverse of to_string; throws std::invalid_argument on unknown names
/// (used when parsing recorded corpus verdicts).
[[nodiscard]] Oracle oracle_from_string(std::string_view name);

/// Verdict of checking one run against every applicable oracle.
struct OracleReport {
  bool ok = true;
  Oracle violated = Oracle::kAgreement;  ///< meaningful only when !ok
  std::string diagnosis;                 ///< empty when ok

  /// "agreement: node 1 decided ..." — the line campaign reports carry.
  [[nodiscard]] std::string to_string() const;
};

/// True when the scenario exercises no adversarial or faulty behavior at
/// all (no attacker, no fault windows, no fail-stopped nodes) — the
/// precondition of the liveness oracle.
[[nodiscard]] bool is_quiescent(const SimConfig& cfg) noexcept;

/// The certificate expectation for `protocol`: which vote-type payloads
/// form its commit certificate and how many distinct senders of them must
/// exist by the first decide. Protocols whose decide is not driven by a
/// fixed vote quorum (the ADD family, Algorand's sampled committees,
/// AsyncBA's randomized rounds) have no entry and are not checked.
struct CertificateRule {
  std::string vote_type;      ///< trace payload type tag, e.g. "pbft/commit"
  std::uint32_t min_senders;  ///< distinct kSend sources required
};

[[nodiscard]] std::optional<CertificateRule> certificate_rule(
    const std::string& protocol, std::uint32_t n);

/// What a run put on the wire for its certificate: the first honest
/// decide, and how many distinct nodes had sent the rule's vote type by
/// then. Both the certificate oracle and the adversary's quorum near-miss
/// read it.
struct CertificateWitness {
  CertificateRule rule;
  Time first_decide = 0;
  std::size_t senders = 0;
};

/// nullopt when the protocol has no certificate rule, the run recorded no
/// trace, or no honest node decided.
[[nodiscard]] std::optional<CertificateWitness> certificate_witness(
    const SimConfig& cfg, const RunResult& result);

/// Checks `result` against every applicable oracle, in enumerator order,
/// and reports the first violation. `cfg` must be the config that produced
/// the run (the oracles need the scenario's quiescence and protocol).
[[nodiscard]] OracleReport check_oracles(const SimConfig& cfg,
                                         const RunResult& result);

}  // namespace bftsim::explore
