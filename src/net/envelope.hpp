// In-flight message envelopes.
//
// A scheduled delivery used to embed a full Message in its event: 40 bytes
// of header plus a shared_ptr copy (two atomic refcount operations) per
// destination, n-1 times per broadcast. At n=4096 the in-flight event
// population is the memory ceiling of a run (docs/SCALING.md). An Envelope
// intern-s the per-*transmission* state once — payload, send time, source,
// the id of the first fan-out copy — and every delivery event carries only
// an 8-byte handle {store index, destination}. Broadcast fan-out ids are
// derived from (base_id, dst) with the same arithmetic the serial send
// loop used, so materialized Messages are bit-identical to the pre-envelope
// engine.
//
// Lifetime is reference-counted by scheduled deliveries: `remaining` is the
// number of delivery events still pointing at the envelope; the release
// that drops it to zero clears the payload and makes the slot recyclable.
// Each lane of the windowed-parallel driver has its own store, and only
// that lane creates, reads and releases its envelopes (a copy for another
// lane crosses the barrier as a message or a fan-out and is interned
// there), so the count is a plain integer.
//
// The store is chunked and pointer-stable: the chunk table is reserved up
// front and never reallocates.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "net/message.hpp"

namespace bftsim {

/// One in-flight transmission (a unicast send, a self-delivery, an injected
/// message, or an entire broadcast fan-out sharing one payload).
struct Envelope {
  PayloadPtr payload;
  Time send_time = 0;
  /// Message id of the transmission; for a broadcast, the id of the first
  /// fan-out copy (destination ids are derived, see message_id()).
  std::uint64_t base_id = 0;
  NodeId src = kNoNode;
  /// True for a broadcast fan-out envelope: per-destination ids are
  /// base_id + the destination's position in the src-skipping fan-out loop.
  bool broadcast = false;
  /// Nonzero marks a gossip transmission (WAN backend): the id of the
  /// disseminated broadcast, used for duplicate suppression and relaying.
  std::uint64_t gossip_id = 0;
  /// Scheduled deliveries still referencing this envelope.
  std::int32_t remaining = 0;

  [[nodiscard]] std::uint64_t message_id(NodeId dst) const noexcept {
    return broadcast ? base_id + (dst < src ? dst : dst - 1u) : base_id;
  }
};

/// Slab of envelopes with slot recycling. Indices are dense uint32 handles;
/// the chunk table never reallocates (pointer- and table-stable), which is
/// what lets windowed-parallel lanes read published envelopes while the
/// owning lane allocates new ones.
class EnvelopeStore {
 public:
  static constexpr std::uint32_t kChunkShift = 10;  ///< 1024 envelopes/chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
  /// 16 Mi envelopes: far above any in-flight population a run can hold in
  /// memory (each live envelope anchors at least one queued event).
  static constexpr std::uint32_t kMaxChunks = 1u << 14;

  EnvelopeStore() { chunks_.reserve(kMaxChunks); }
  EnvelopeStore(const EnvelopeStore&) = delete;
  EnvelopeStore& operator=(const EnvelopeStore&) = delete;

  /// Allocates an envelope with `remaining` scheduled deliveries expected.
  [[nodiscard]] std::uint32_t create(PayloadPtr payload, Time send_time,
                                     std::uint64_t base_id, NodeId src,
                                     bool broadcast, std::int32_t remaining) {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = next_;
      if ((index >> kChunkShift) == chunks_.size()) {
        if (chunks_.size() == kMaxChunks) {
          throw std::runtime_error(
              "EnvelopeStore: more than 16Mi envelopes in flight");
        }
        chunks_.push_back(std::make_unique<Envelope[]>(kChunkSize));
      }
      ++next_;
    }
    Envelope& e = slot(index);
    e.payload = std::move(payload);
    e.send_time = send_time;
    e.base_id = base_id;
    e.src = src;
    e.broadcast = broadcast;
    e.gossip_id = 0;
    e.remaining = remaining;
    return index;
  }

  /// Allocates a single-delivery envelope for `msg`.
  [[nodiscard]] std::uint32_t intern(Message msg) {
    return create(std::move(msg.payload), msg.send_time, msg.id, msg.src,
                  false, 1);
  }

  [[nodiscard]] Envelope& get(std::uint32_t index) noexcept {
    return slot(index);
  }
  [[nodiscard]] const Envelope& get(std::uint32_t index) const noexcept {
    return const_cast<EnvelopeStore*>(this)->slot(index);
  }

  /// Rebuilds the Message a delivery event stands for.
  [[nodiscard]] Message materialize(std::uint32_t index, NodeId dst) const {
    const Envelope& e = get(index);
    Message msg;
    msg.src = e.src;
    msg.dst = dst;
    msg.send_time = e.send_time;
    msg.id = e.message_id(dst);
    msg.payload = e.payload;
    return msg;
  }

  /// Drops one delivery reference; on the last, clears the payload and
  /// recycles the slot.
  void release(std::uint32_t index) {
    Envelope& e = slot(index);
    if (--e.remaining != 0) return;
    e.payload.reset();
    free_.push_back(index);
  }

 private:
  [[nodiscard]] Envelope& slot(std::uint32_t index) noexcept {
    assert((index >> kChunkShift) < chunks_.size());
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }

  std::vector<std::unique_ptr<Envelope[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t next_ = 0;
};

}  // namespace bftsim
