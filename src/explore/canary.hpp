// The fuzzer's canary: a deliberately unsound PBFT variant used to prove,
// end to end, that the campaign engine can find a protocol bug and shrink
// it to a small finding.
//
// "pbft-canary" is PBFT with every 2f+1 quorum weakened to 2f (prepare,
// commit and view-change certificates). Two 2f quorums of an n = 3f+1
// system need not intersect in any node, so a network partition that lets
// both sides run view changes independently can commit conflicting values
// at the same height — exactly the class of violation the agreement and
// certificate-validity oracles exist to detect.
//
// The variant is NOT part of the builtin registry: nothing registers it
// unless register_fuzz_canary() is called, which only the fuzzer does: a
// campaign whose space contains it (`explore fuzz --canary`), or an oracle
// run or replay of a config that targets it. Production configurations can
// never select it by accident.
#pragma once

namespace bftsim::explore {

/// Registry name of the canary protocol.
inline constexpr const char* kCanaryProtocol = "pbft-canary";

/// Registers "pbft-canary" in the global ProtocolRegistry (idempotent).
void register_fuzz_canary();

}  // namespace bftsim::explore
