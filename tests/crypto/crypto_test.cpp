#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/arena.hpp"
#include "crypto/certificate.hpp"
#include "crypto/hash.hpp"
#include "crypto/signature.hpp"
#include "crypto/vrf.hpp"

namespace bftsim {
namespace {

// --- hash --------------------------------------------------------------------

TEST(HashTest, Fnv1aKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, Mix64IsBijectiveSpotCheck) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(HashTest, HashWordsOrderSensitive) {
  EXPECT_NE(hash_words({1, 2, 3}), hash_words({3, 2, 1}));
  EXPECT_NE(hash_words({1, 2}), hash_words({1, 2, 0}));
  EXPECT_EQ(hash_words({1, 2, 3}), hash_words({1, 2, 3}));
}

// --- vrf ---------------------------------------------------------------------

TEST(VrfTest, EvaluateIsDeterministic) {
  const Vrf vrf{42};
  EXPECT_EQ(vrf.evaluate(3, 7), vrf.evaluate(3, 7));
}

TEST(VrfTest, DistinctInputsDistinctOutputs) {
  const Vrf vrf{42};
  EXPECT_NE(vrf.evaluate(3, 7).value, vrf.evaluate(4, 7).value);
  EXPECT_NE(vrf.evaluate(3, 7).value, vrf.evaluate(3, 8).value);
}

TEST(VrfTest, DifferentSecretsDiffer) {
  EXPECT_NE(Vrf{1}.evaluate(0, 0).value, Vrf{2}.evaluate(0, 0).value);
}

TEST(VrfTest, VerifyAcceptsGenuineAndRejectsForged) {
  const Vrf vrf{99};
  const VrfOutput out = vrf.evaluate(5, 11);
  EXPECT_TRUE(vrf.verify(5, 11, out));
  EXPECT_FALSE(vrf.verify(6, 11, out));  // wrong claimed node
  EXPECT_FALSE(vrf.verify(5, 12, out));  // wrong round
  VrfOutput forged = out;
  forged.value ^= 1;
  EXPECT_FALSE(vrf.verify(5, 11, forged));
  forged = out;
  forged.proof ^= 1;
  EXPECT_FALSE(vrf.verify(5, 11, forged));
}

TEST(VrfTest, LeaderElectionIsRoughlyUniform) {
  // Over many rounds the minimum credential should rotate across nodes.
  const Vrf vrf{7};
  const std::uint32_t n = 16;
  std::vector<int> wins(n, 0);
  for (std::uint64_t round = 0; round < 1600; ++round) {
    NodeId winner = 0;
    std::uint64_t best = ~0ULL;
    for (NodeId i = 0; i < n; ++i) {
      const std::uint64_t v = vrf.evaluate(i, round).value;
      if (v < best) {
        best = v;
        winner = i;
      }
    }
    ++wins[winner];
  }
  for (const int w : wins) {
    EXPECT_GT(w, 50);   // expected 100 each
    EXPECT_LT(w, 180);
  }
}

// --- signatures ----------------------------------------------------------------

TEST(SignatureTest, SignVerifyRoundTrip) {
  const Signer signer{5};
  const Signature sig = signer.sign(3, 0xabcdef);
  EXPECT_TRUE(signer.verify(sig));
}

TEST(SignatureTest, RejectsTamperedFields) {
  const Signer signer{5};
  Signature sig = signer.sign(3, 0xabcdef);
  Signature bad = sig;
  bad.signer = 4;  // impersonation
  EXPECT_FALSE(signer.verify(bad));
  bad = sig;
  bad.digest ^= 1;  // different message
  EXPECT_FALSE(signer.verify(bad));
  bad = sig;
  bad.tag ^= 1;  // forged tag
  EXPECT_FALSE(signer.verify(bad));
}

TEST(SignatureTest, DifferentRunSecretsIncompatible) {
  const Signer a{1};
  const Signer b{2};
  EXPECT_FALSE(b.verify(a.sign(0, 42)));
}

// --- certificates ----------------------------------------------------------------

/// The signer list of a quorum at n = 4096 (f = 1365): every id but those
/// with id % 3 == 1, 2731 of them, ascending.
std::vector<NodeId> wide_signers() {
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < 4096; ++i) {
    if (i % 3 != 1) ids.push_back(i);
  }
  return ids;
}

TEST(CertificateTest, QuorumCertValidity) {
  Arena arena;
  const QuorumCert qc(arena, 3, 0x42, {0, 1, 2, 3, 4});
  EXPECT_TRUE(qc.valid(5));
  EXPECT_TRUE(qc.valid(4));
  EXPECT_FALSE(qc.valid(6));
}

TEST(CertificateTest, DuplicateSignersRejected) {
  Arena arena;
  const QuorumCert qc(arena, 0, 0, {0, 1, 1, 2, 3});
  EXPECT_FALSE(qc.valid(5));
  EXPECT_FALSE(qc.valid(4));  // any duplicate invalidates the certificate
}

TEST(CertificateTest, DuplicateSignersNeverSatisfyQuorum) {
  Arena arena;
  const QuorumCert qc(arena, 0, 0, {7, 7, 7, 7, 7});
  EXPECT_FALSE(qc.valid(2));
}

TEST(CertificateTest, UnsortedListsKeepTheirVerdict) {
  Arena arena;
  // Forged certificates may list signers in any order: distinct is valid,
  // a duplicate is invalid whether or not the list is sorted.
  EXPECT_TRUE(QuorumCert(arena, 1, 2, {4, 0, 3, 1}).valid(4));
  EXPECT_FALSE(QuorumCert(arena, 1, 2, {3, 0, 3, 1}).valid(3));
  EXPECT_FALSE(QuorumCert(arena, 1, 2, {0, 1, 3, 3}).valid(3));
  EXPECT_TRUE(TimeoutCert(arena, 1, {2, 0, 1}).valid(3));
  EXPECT_FALSE(TimeoutCert(arena, 1, {1, 0, 1}).valid(2));
}

TEST(CertificateTest, DigestSensitivity) {
  Arena arena;
  const QuorumCert a(arena, 1, 2, {0, 1, 2});
  const QuorumCert b = a;
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), QuorumCert(arena, 1, 2, {0, 1, 2, 3}).digest());
  EXPECT_NE(a.digest(), QuorumCert(arena, 2, 2, {0, 1, 2}).digest());
  EXPECT_NE(a.digest(), QuorumCert(arena, 1, 3, {0, 1, 2}).digest());
  EXPECT_NE(a.digest(), QuorumCert(arena, 1, 2, {0, 2, 1}).digest());
  // Signer-less certificates digest their (view, block) alone.
  EXPECT_NE(QuorumCert(1, 2).digest(), QuorumCert(2, 2).digest());
  EXPECT_EQ(QuorumCert(1, 2).digest(), QuorumCert(arena, 1, 2, {}).digest());
}

TEST(CertificateTest, DigestsMatchTheSignerListFormula) {
  // Pinned values: hash_words({view, block}) (a TC seeds with
  // {view, 0x5443}) with every signer hash_combine-d in, in list order.
  Arena arena;
  EXPECT_EQ(QuorumCert(arena, 7, 0x42, {0, 1, 2}).digest(),
            0x3eb5a2630610c8f8ULL);
  EXPECT_EQ(TimeoutCert(arena, 7, {0, 1, 2}).digest(),
            0x659cf733c885bdebULL);
  const std::vector<NodeId> wide = wide_signers();
  ASSERT_EQ(wide.size(), 2731u);
  EXPECT_EQ(QuorumCert(arena, 12, 0x626c6b, wide).digest(),
            0x9a1645e9f8388154ULL);
  EXPECT_EQ(TimeoutCert(arena, 12, wide).digest(), 0x1f2777db3c7bfbc2ULL);
}

TEST(CertificateTest, CopiesShareOneSignerBody) {
  Arena arena;
  const std::vector<NodeId> wide = wide_signers();
  const QuorumCert qc(arena, 5, 9, wide);
  const QuorumCert copy = qc;
  QuorumCert assigned;
  assigned = copy;
  EXPECT_EQ(copy.body(), qc.body());
  EXPECT_EQ(assigned.body(), qc.body());
  EXPECT_EQ(assigned.signers().data(), qc.signers().data());
  ASSERT_EQ(qc.signers().size(), wide.size());
  EXPECT_TRUE(std::equal(wide.begin(), wide.end(), qc.signers().begin()));
  EXPECT_EQ(sizeof(QuorumCert), 3 * sizeof(std::uint64_t));

  const TimeoutCert tc(arena, 5, wide);
  const TimeoutCert tc_copy = tc;
  EXPECT_EQ(tc_copy.body(), tc.body());
  EXPECT_EQ(tc_copy.digest(), tc.digest());
}

TEST(CertificateTest, SignerlessCertificatesShareTheEmptyBody) {
  Arena arena;
  EXPECT_EQ(QuorumCert{}.body(), &SignerBody::kEmpty);
  EXPECT_EQ(QuorumCert::genesis().body(), &SignerBody::kEmpty);
  EXPECT_EQ(QuorumCert(arena, 1, 2, {}).body(), &SignerBody::kEmpty);
  EXPECT_EQ(TimeoutCert(arena, 1, {}).body(), &SignerBody::kEmpty);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_TRUE(QuorumCert{}.valid(0));
  EXPECT_FALSE(QuorumCert{}.valid(1));
}

TEST(CertificateTest, TimeoutCertValidity) {
  Arena arena;
  const TimeoutCert tc(arena, 9, {0, 1, 2});
  EXPECT_EQ(tc.view(), 9u);
  EXPECT_TRUE(tc.valid(3));
  EXPECT_FALSE(tc.valid(4));
  EXPECT_FALSE(TimeoutCert(arena, 9, {0, 0, 1}).valid(3));
}

TEST(CertificateTest, GenesisCert) {
  const QuorumCert genesis = QuorumCert::genesis();
  EXPECT_EQ(genesis.view(), 0u);
  EXPECT_EQ(genesis.block(), kGenesisId);
  EXPECT_TRUE(genesis.signers().empty());
  EXPECT_FALSE(genesis.valid(1));  // only special-cased by the protocols
}

}  // namespace
}  // namespace bftsim
