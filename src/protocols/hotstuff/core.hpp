// Chained HotStuff core (Yin et al., PODC '19) — the safety machinery
// shared by HotStuff+NS and LibraBFT, which differ only in their
// PaceMaker (view-synchronization) strategy:
//
//   - block tree with quorum-certificate justifications,
//   - the voting safety rule (extends locked block, or justify newer than
//     the lock),
//   - the two-chain locking rule and three-chain (consecutive views)
//     commit rule,
//   - vote aggregation into QCs by the next leader,
//   - block catch-up for lagging replicas (request/response), so that a
//     replica that missed proposals can still learn committed values.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/certificate.hpp"
#include "crypto/signature.hpp"
#include "net/message.hpp"
#include "protocols/common/quorum.hpp"
#include "protocols/node.hpp"

namespace bftsim::hotstuff {

/// A block in the chained-HotStuff block tree.
struct Block {
  Value id = 0;
  Value parent = 0;
  View view = 0;
  Value value = 0;          ///< the decided payload
  std::uint64_t height = 0; ///< chain height (genesis = 0)
  /// Wire weight of the batched client requests the block carries
  /// (0 without a workload). Not part of the digest: the batch is
  /// identified by `value`.
  std::uint32_t body_bytes = 0;
  QuorumCert justify;       ///< QC for `parent`

  [[nodiscard]] std::uint64_t digest() const noexcept {
    return hash_words({0x424cULL, id, parent, view, value, height, justify.digest()});
  }
};

using bftsim::kGenesisId;

// --- messages ---------------------------------------------------------------

struct Proposal final : Payload {
  static constexpr PayloadType kType = PayloadType::kHotStuffProposal;
  Block block;
  Signature sig;

  Proposal(Block b, Signature s) : Payload(kType), block(b), sig(s) {}
  std::string_view type() const noexcept override { return "hotstuff/proposal"; }
  std::uint64_t digest() const noexcept override { return block.digest(); }
  std::size_t wire_size() const noexcept override {
    return 512 + block.body_bytes;
  }
};

struct Vote final : Payload {
  static constexpr PayloadType kType = PayloadType::kHotStuffVote;
  View view = 0;
  Value block_id = 0;
  Signature sig;

  Vote(View v, Value b, Signature s) : Payload(kType), view(v), block_id(b), sig(s) {}
  std::string_view type() const noexcept override { return "hotstuff/vote"; }
  std::uint64_t digest() const noexcept override {
    return hash_words({0x564fULL, view, block_id});
  }
  std::size_t wire_size() const noexcept override { return 96; }
};

/// Request for missing ancestor blocks, sent to the peer whose message
/// referenced an unknown block.
struct BlockRequest final : Payload {
  static constexpr PayloadType kType = PayloadType::kHotStuffBlockRequest;
  Value block_id = 0;

  explicit BlockRequest(Value b) : Payload(kType), block_id(b) {}
  std::string_view type() const noexcept override { return "hotstuff/block-req"; }
  std::uint64_t digest() const noexcept override {
    return hash_words({0x4252ULL, block_id});
  }
  std::size_t wire_size() const noexcept override { return 64; }
};

struct BlockResponse final : Payload {
  static constexpr PayloadType kType = PayloadType::kHotStuffBlockResponse;
  std::vector<Block> blocks;  ///< requested block and up to kChunk ancestors

  explicit BlockResponse(std::vector<Block> b) : Payload(kType), blocks(std::move(b)) {}
  std::string_view type() const noexcept override { return "hotstuff/block-resp"; }
  std::uint64_t digest() const noexcept override {
    std::uint64_t h = 0x4253ULL;
    for (const Block& b : blocks) h = hash_combine(h, b.digest());
    return h;
  }
  std::size_t wire_size() const noexcept override {
    std::size_t bodies = 0;
    for (const Block& b : blocks) bodies += b.body_bytes;
    return 128 + 256 * blocks.size() + bodies;
  }

  static constexpr std::size_t kChunk = 16;
};

// --- block store ------------------------------------------------------------

/// One replica's blocks, keyed by id and never iterated. A slot holds no
/// copy: it is a shared_ptr aliasing the payload that carried the block
/// (a proposal or a block response), so the n replicas that store one
/// proposal share its single Block, and the slot keeps that payload alive.
/// The slots form an open-addressing table, a power of two in size and at
/// most half full, probed by comparing ids through the pointers. A pointer
/// from find() stays valid for the life of the store: growth moves slots,
/// never the blocks they point at.
class BlockStore {
 public:
  BlockStore() : slots_(16) {}

  /// Adds `b`, which lives inside the payload `owner`, unless a block with
  /// its id is already stored (the first one stays). An empty `owner`
  /// stores a pointer that owns nothing, for a block of static storage.
  void insert(const Block& b, const PayloadPtr& owner);
  [[nodiscard]] const Block* find(Value id) const noexcept;

 private:
  /// The table slot holding `id`, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(Value id) const noexcept;

  std::vector<std::shared_ptr<const Block>> slots_;
  std::size_t size_ = 0;
};

// --- core -------------------------------------------------------------------

/// The chained-HotStuff replica state shared by both pacemakers. Hosted by
/// a Node implementation; all methods take the Context of that node.
class Core {
 public:
  explicit Core(NodeId id);

  [[nodiscard]] const QuorumCert& high_qc() const noexcept { return high_qc_; }
  [[nodiscard]] const QuorumCert& locked_qc() const noexcept { return locked_qc_; }
  [[nodiscard]] std::uint64_t committed_height() const noexcept {
    return last_reported_height_;
  }
  /// View of the newest block this replica has committed (0 = genesis).
  [[nodiscard]] View last_committed_view() const noexcept {
    return last_committed_view_;
  }

  /// Creates the block a leader proposes in `view`, extending high_qc.
  [[nodiscard]] Block make_block(View view, Context& ctx);

  /// Signs `b`, builds the proposal payload that carries it, stores the
  /// block inside that payload, and returns the payload to broadcast.
  [[nodiscard]] PayloadPtr make_proposal(const Block& b, Context& ctx);

  /// Stores `b`, which lives inside the payload `owner` (id-keyed;
  /// duplicates ignored): the store shares the block, it copies nothing.
  void store(const Block& b, const PayloadPtr& owner) {
    blocks_.insert(b, owner);
  }
  [[nodiscard]] bool has(Value id) const noexcept {
    return find(id) != nullptr;
  }
  /// The stored block `id`, or nullptr; valid for the life of this Core.
  [[nodiscard]] const Block* find(Value id) const noexcept {
    return blocks_.find(id);
  }

  /// Incorporates a QC: updates high-qc, the lock, and runs the commit
  /// rule (reporting any newly committed values through `ctx`). Returns
  /// true when high_qc_ advanced.
  bool process_qc(const QuorumCert& qc, Context& ctx);

  /// Safety rule: may this replica vote for `b` (justified by b.justify)?
  [[nodiscard]] bool safe_to_vote(const Block& b) const noexcept;

  /// Records `voter`'s vote for (view, block); returns the freshly formed
  /// QC when this vote completes a quorum of n-f distinct votes.
  [[nodiscard]] std::optional<QuorumCert> add_vote(View view, Value block_id,
                                                   NodeId voter, Context& ctx);

  /// True when some ancestor needed for voting/committing on `b` is
  /// missing locally.
  [[nodiscard]] bool missing_ancestor(const Block& b) const noexcept;

  /// Handles catch-up messages. Returns true if the message was consumed.
  bool handle_catchup(const Message& msg, Context& ctx);

  /// Asks `from` for the chain ending at `block_id` (deduplicated).
  void request_block(Value block_id, NodeId from, Context& ctx);

  /// Quorum size used for QCs/TCs: n - f.
  [[nodiscard]] static std::uint32_t quorum(const Context& ctx) noexcept {
    return ctx.n() - ctx.f();
  }

 private:
  /// Runs the three-chain commit rule starting from `qc` and reports any
  /// newly committed values in height order.
  void try_commit(const QuorumCert& qc, Context& ctx);

  /// True iff `descendant` has `ancestor_id` on its parent chain.
  [[nodiscard]] bool extends(const Block& descendant, Value ancestor_id) const noexcept;

  NodeId id_;
  BlockStore blocks_;
  QuorumCert high_qc_;
  QuorumCert locked_qc_;
  std::uint64_t last_reported_height_ = 0;  ///< genesis is height 0
  View last_committed_view_ = 0;
  QuorumTracker<std::pair<View, Value>> votes_;
  OnceSet<std::pair<View, Value>> qc_formed_;
  OnceSet<Value> requested_;
};

}  // namespace bftsim::hotstuff
