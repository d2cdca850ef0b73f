// HotStuff block helpers shared by the protocol and engine tests. A
// hand-built block is stored the way a replica stores a received one:
// inside a proposal payload, which the store then keeps alive. The payload
// comes from the heap, not a context's arena, so storing a block allocates
// nothing in any run arena.
#pragma once

#include <cstdint>

#include "core/trace.hpp"
#include "net/message.hpp"
#include "protocols/hotstuff/core.hpp"

namespace bftsim::testing {

/// A proposal payload carrying `b` (unsigned).
inline PayloadPtr wrap_block(const hotstuff::Block& b) {
  return make_payload<hotstuff::Proposal>(b, Signature{});
}

/// The block inside a payload made by wrap_block().
inline const hotstuff::Block& block_of(const PayloadPtr& payload) {
  return static_cast<const hotstuff::Proposal&>(*payload).block;
}

inline void store_block(hotstuff::Core& core, const hotstuff::Block& b) {
  const PayloadPtr payload = wrap_block(b);
  core.store(block_of(payload), payload);
}

inline void store_block(hotstuff::BlockStore& store,
                        const hotstuff::Block& b) {
  const PayloadPtr payload = wrap_block(b);
  store.insert(block_of(payload), payload);
}

/// Block responses delivered in a recorded run.
inline std::uint64_t block_responses(const Trace& trace) {
  std::uint64_t count = 0;
  for (const TraceRecord& rec : trace.records()) {
    if (rec.kind == TraceKind::kDeliver && rec.type == "hotstuff/block-resp") {
      ++count;
    }
  }
  return count;
}

}  // namespace bftsim::testing
