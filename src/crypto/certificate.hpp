// Quorum and timeout certificates, shared by the HotStuff-family protocols.
//
// A certificate's signer list is built once, when the certificate forms,
// as an immutable SignerBody in the run arena. Every copy of the
// certificate (a block's justify, a replica's high/locked QC, a catch-up
// response, a TC rebroadcast) shares that body by pointer, and the body
// carries the list's distinctness verdict and the certificate digest
// computed at construction. Copying, validating and digesting a
// certificate therefore cost O(1) however many nodes signed it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <new>
#include <span>
#include <vector>

#include "core/arena.hpp"
#include "core/types.hpp"
#include "crypto/hash.hpp"

namespace bftsim {

/// Id of the genesis block that every HotStuff-family chain starts from.
inline constexpr Value kGenesisId = 0x67656e65736973ULL;  // "genesis"

/// The immutable signer list of one certificate, shared by all its copies.
/// The list keeps the order it was built in (ascending when it comes from a
/// VoterSet); its distinctness and the digest are computed once, here.
class SignerBody {
 public:
  /// Builds a body for `signers` in `arena`, folding them in order into
  /// `seed` for the digest. An empty list yields the shared empty body.
  template <typename Signers>
  [[nodiscard]] static const SignerBody* make(Arena& arena, std::uint64_t seed,
                                              const Signers& signers) {
    const std::size_t count = std::size(signers);
    if (count == 0) return &kEmpty;
    auto* ids = static_cast<NodeId*>(
        arena.allocate(count * sizeof(NodeId), alignof(NodeId)));
    std::copy(std::begin(signers), std::end(signers), ids);
    void* slot = arena.allocate(sizeof(SignerBody), alignof(SignerBody));
    const auto size = static_cast<std::uint32_t>(count);
    return ::new (slot) SignerBody(ids, size, seed);
  }

  /// The body of every signer-less certificate (genesis, defaults).
  static const SignerBody kEmpty;

  [[nodiscard]] std::span<const NodeId> signers() const noexcept {
    return {ids_, size_};
  }
  /// A certificate is valid when `quorum` distinct nodes signed it: the
  /// list is long enough and no signer appears twice (in any order).
  [[nodiscard]] bool valid(std::uint32_t quorum) const noexcept {
    return size_ >= quorum && distinct_;
  }

  /// The certificate digest: `seed` with every signer folded in, in list
  /// order. A non-empty body returns the fold of the seed it was built
  /// with; the empty body folds nothing, so it returns `seed` itself.
  [[nodiscard]] std::uint64_t digest(std::uint64_t seed) const noexcept {
    return size_ == 0 ? seed : digest_;
  }

 private:
  constexpr SignerBody() = default;

  SignerBody(const NodeId* ids, std::uint32_t size, std::uint64_t seed) noexcept
      : ids_(ids),
        size_(size),
        distinct_(all_distinct(ids, size)),
        digest_(seed) {
    for (const NodeId id : signers()) digest_ = hash_combine(digest_, id);
  }

  [[nodiscard]] static bool all_distinct(const NodeId* ids,
                                         std::uint32_t size) {
    // Lists built from vote trackers are ascending, so distinctness is
    // checkable in place; the copy + sort only runs for unsorted lists
    // (e.g. attacker-forged certificates).
    if (std::is_sorted(ids, ids + size)) {
      return std::adjacent_find(ids, ids + size) == ids + size;
    }
    std::vector<NodeId> sorted(ids, ids + size);
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  }

  const NodeId* ids_ = nullptr;
  std::uint32_t size_ = 0;
  bool distinct_ = true;  ///< no signer appears twice
  std::uint64_t digest_ = 0;
};

inline constexpr SignerBody SignerBody::kEmpty{};

/// A quorum certificate: proof that `quorum` distinct nodes voted for block
/// `block()` in view `view()`. The body lives in the arena of the run that
/// formed the certificate and must not outlive it.
class QuorumCert {
 public:
  /// A signer-less certificate for no block.
  QuorumCert() = default;
  /// A signer-less certificate for `block` in `view`.
  QuorumCert(View view, Value block) noexcept : view_(view), block_(block) {}
  /// A certificate signed by `signers` (any sized range of ids, or a
  /// braced list), whose body is built in `arena`.
  template <typename Signers = std::initializer_list<NodeId>>
  QuorumCert(Arena& arena, View view, Value block, const Signers& signers)
      : view_(view),
        block_(block),
        body_(SignerBody::make(arena, seed(view, block), signers)) {}

  /// The genesis certificate (view 0, genesis block) that bootstraps every
  /// chain; protocols accept it without a quorum.
  [[nodiscard]] static QuorumCert genesis() noexcept {
    return QuorumCert{0, kGenesisId};
  }

  [[nodiscard]] View view() const noexcept { return view_; }
  /// Id of the block the votes certify.
  [[nodiscard]] Value block() const noexcept { return block_; }
  [[nodiscard]] const SignerBody* body() const noexcept { return body_; }
  [[nodiscard]] std::span<const NodeId> signers() const noexcept {
    return body_->signers();
  }

  [[nodiscard]] bool valid(std::uint32_t quorum) const noexcept {
    return body_->valid(quorum);
  }
  [[nodiscard]] std::uint64_t digest() const noexcept {
    return body_->digest(seed(view_, block_));
  }

 private:
  [[nodiscard]] static std::uint64_t seed(View view, Value block) noexcept {
    return hash_words({view, block});
  }

  View view_ = 0;
  Value block_ = kBottom;
  const SignerBody* body_ = &SignerBody::kEmpty;
};

/// A timeout certificate (LibraBFT): proof that `quorum` distinct nodes
/// timed out in view `view()`. Shares QuorumCert's body lifetime rule.
class TimeoutCert {
 public:
  TimeoutCert() = default;
  /// A certificate signed by `signers` (as for QuorumCert), whose body is
  /// built in `arena`.
  template <typename Signers = std::initializer_list<NodeId>>
  TimeoutCert(Arena& arena, View view, const Signers& signers)
      : view_(view), body_(SignerBody::make(arena, seed(view), signers)) {}

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const SignerBody* body() const noexcept { return body_; }
  [[nodiscard]] std::span<const NodeId> signers() const noexcept {
    return body_->signers();
  }

  [[nodiscard]] bool valid(std::uint32_t quorum) const noexcept {
    return body_->valid(quorum);
  }
  [[nodiscard]] std::uint64_t digest() const noexcept {
    return body_->digest(seed(view_));
  }

 private:
  [[nodiscard]] static std::uint64_t seed(View view) noexcept {
    return hash_words({view, 0x5443ULL});
  }

  View view_ = 0;
  const SignerBody* body_ = &SignerBody::kEmpty;
};

}  // namespace bftsim
