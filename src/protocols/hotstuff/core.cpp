#include "protocols/hotstuff/core.hpp"

#include <algorithm>

#include "core/log.hpp"

namespace bftsim::hotstuff {

namespace {

/// The genesis block every replica starts from: one object in static
/// storage, stored through a pointer that owns nothing.
const Block& genesis_block() {
  static const Block genesis{
      .id = kGenesisId, .parent = kGenesisId, .justify = QuorumCert::genesis()};
  return genesis;
}

}  // namespace

Core::Core(NodeId id) : id_(id) {
  blocks_.insert(genesis_block(), nullptr);
  high_qc_ = genesis_block().justify;
  locked_qc_ = genesis_block().justify;
}

std::size_t BlockStore::slot_of(Value id) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = mix64(id) & mask;
  while (slots_[i] != nullptr && slots_[i]->id != id) i = (i + 1) & mask;
  return i;
}

const Block* BlockStore::find(Value id) const noexcept {
  return slots_[slot_of(id)].get();
}

void BlockStore::insert(const Block& b, const PayloadPtr& owner) {
  std::size_t slot = slot_of(b.id);
  if (slots_[slot] != nullptr) return;
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<std::shared_ptr<const Block>> old(2 * slots_.size());
    old.swap(slots_);
    for (std::shared_ptr<const Block>& s : old) {
      if (s != nullptr) slots_[slot_of(s->id)] = std::move(s);
    }
    slot = slot_of(b.id);
  }
  slots_[slot] = std::shared_ptr<const Block>(owner, &b);
  ++size_;
}

PayloadPtr Core::make_proposal(const Block& b, Context& ctx) {
  const Signature sig = ctx.signer().sign(id_, b.digest());
  PayloadPtr payload = ctx.make_payload<Proposal>(b, sig);
  store(static_cast<const Proposal&>(*payload).block, payload);
  return payload;
}

Block Core::make_block(View view, Context& ctx) {
  const Block* parent = find(high_qc_.block());
  Block b;
  b.parent = high_qc_.block();
  b.view = view;
  b.height = (parent != nullptr ? parent->height : 0) + 1;
  b.justify = high_qc_;
  // Fresh mint: let the workload layer batch pending client requests into
  // the block (shared by the hotstuff-ns and librabft pacemakers).
  const ProposalBatch batch =
      ctx.next_proposal(b.height, hash_words({0x76616cULL, view, id_}));
  b.value = batch.value;
  b.body_bytes = batch.body_bytes;
  b.id = hash_words({0x626c6bULL, b.parent, b.view, b.value, b.height});
  return b;
}

bool Core::extends(const Block& descendant, Value ancestor_id) const noexcept {
  const Block* cur = &descendant;
  while (cur != nullptr) {
    if (cur->id == ancestor_id) return true;
    if (cur->id == kGenesisId) return false;
    cur = find(cur->parent);
  }
  return false;
}

bool Core::safe_to_vote(const Block& b) const noexcept {
  // Liveness branch: the proposal's justification is newer than our lock.
  if (b.justify.view() > locked_qc_.view()) return true;
  // Safety branch: the proposal extends the block we are locked on.
  return extends(b, locked_qc_.block());
}

bool Core::missing_ancestor(const Block& b) const noexcept {
  const Block* cur = find(b.parent);
  Value id = b.parent;
  while (true) {
    if (cur == nullptr) return id != kGenesisId;
    if (cur->id == kGenesisId || cur->height <= last_reported_height_) return false;
    id = cur->parent;
    cur = find(id);
  }
}

bool Core::process_qc(const QuorumCert& qc, Context& ctx) {
  const bool genesis_qc = qc.view() == 0 && qc.block() == kGenesisId;
  if (!genesis_qc && !qc.valid(quorum(ctx))) return false;

  bool advanced = false;
  if (qc.view() > high_qc_.view()) {
    high_qc_ = qc;
    advanced = true;
  }
  // Two-chain lock: lock on the parent QC of the newly certified block.
  if (const Block* b1 = find(qc.block()); b1 != nullptr) {
    if (b1->justify.view() > locked_qc_.view()) locked_qc_ = b1->justify;
  }
  try_commit(qc, ctx);
  return advanced;
}

void Core::try_commit(const QuorumCert& qc, Context& ctx) {
  // Three-chain rule: qc certifies b1; b1.justify certifies b2;
  // b2.justify certifies b3. If the three views are consecutive, b3 and
  // all its uncommitted ancestors are committed.
  const Block* b1 = find(qc.block());
  if (b1 == nullptr) return;
  const Block* b2 = find(b1->justify.block());
  if (b2 == nullptr) return;
  const Block* b3 = find(b2->justify.block());
  if (b3 == nullptr) return;
  if (b1->view != b2->view + 1 || b2->view != b3->view + 1) return;
  if (b3->height <= last_reported_height_) return;

  // Collect the chain from b3 down to the last reported height; if a block
  // is missing we cannot report contiguous heights yet (catch-up pending).
  std::vector<const Block*> chain;
  const Block* cur = b3;
  while (cur != nullptr && cur->height > last_reported_height_) {
    chain.push_back(cur);
    cur = find(cur->parent);
  }
  if (cur == nullptr) return;  // gap: wait for block responses

  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    ctx.report_decision((*it)->value);
  }
  last_reported_height_ = b3->height;
  last_committed_view_ = std::max(last_committed_view_, b3->view);
}

std::optional<QuorumCert> Core::add_vote(View view, Value block_id, NodeId voter,
                                         Context& ctx) {
  const std::pair<View, Value> key{view, block_id};
  if (qc_formed_.contains(key)) return std::nullopt;
  if (!votes_.add_reaches(key, voter, quorum(ctx))) return std::nullopt;
  qc_formed_.mark(key);
  // The QC's one signer body: every copy of it shares this allocation.
  return QuorumCert(ctx.arena(), view, block_id, votes_.voters(key));
}

void Core::request_block(Value block_id, NodeId from, Context& ctx) {
  if (from == id_ || !requested_.mark(block_id)) return;
  ctx.send(from, ctx.make_payload<BlockRequest>(block_id));
}

bool Core::handle_catchup(const Message& msg, Context& ctx) {
  if (const auto* req = msg.as<BlockRequest>()) {
    std::vector<Block> out;
    const Block* cur = find(req->block_id);
    while (cur != nullptr && cur->id != kGenesisId &&
           out.size() < BlockResponse::kChunk) {
      out.push_back(*cur);
      cur = find(cur->parent);
    }
    if (!out.empty()) ctx.send(msg.src, ctx.make_payload<BlockResponse>(std::move(out)));
    return true;
  }
  if (const auto* resp = msg.as<BlockResponse>()) {
    for (const Block& b : resp->blocks) store(b, msg.payload);
    if (!resp->blocks.empty()) {
      const Block& oldest = resp->blocks.back();
      if (oldest.height > last_reported_height_ + 1 && !has(oldest.parent)) {
        requested_ = OnceSet<Value>{};  // allow re-requesting deeper chains
        request_block(oldest.parent, msg.src, ctx);
      }
      // Re-run the commit rule; filled gaps may release pending commits.
      try_commit(high_qc_, ctx);
    }
    return true;
  }
  return false;
}

}  // namespace bftsim::hotstuff
