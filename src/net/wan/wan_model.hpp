// Runtime state of the WAN transport backend (one instance per run).
//
// Three concerns, all deterministic:
//
//   - propagation: base_delay(src, dst) = half the configured RTT between
//     the nodes' regions, a pure function of the node pair — it consumes no
//     randomness, which is what keeps matrix-only runs valid under the
//     windowed-parallel engine's keyed draws;
//   - bandwidth: delivery_time() charges message-size serialization on the
//     sender's uplink and the receiver's downlink, each modeled as a FIFO
//     next-free-time scalar, so back-to-back sends queue behind each other
//     at message granularity (no packet events). Stateful and
//     order-dependent, hence serial-engine-only (SimConfig::validate);
//   - gossip overlay: peers_of(v) is a fixed k-regular-ish directed overlay
//     (ring edge + fanout-1 seeded random peers) built at construction as a
//     pure function of the overlay RNG stream. The ring edge guarantees
//     connectivity over live nodes, so dissemination cannot strand a node
//     by overlay bad luck.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "net/wan/wan_spec.hpp"

namespace bftsim {

class WanModel {
 public:
  /// `overlay_rng` seeds the gossip overlay; it is only drawn from when the
  /// spec selects the gossip backend, and the controller only forks it when
  /// the spec is enabled at all (golden bit-identity for classic runs).
  WanModel(const WanSpec& spec, std::uint32_t n, Rng overlay_rng);
  WanModel(const WanModel&) = delete;
  WanModel& operator=(const WanModel&) = delete;

  [[nodiscard]] const WanSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool gossip() const noexcept { return spec_.gossip(); }
  [[nodiscard]] bool bandwidth_enabled() const noexcept {
    return spec_.bandwidth_enabled();
  }

  /// One-way propagation base between the nodes' regions (rtt/2), in Time
  /// units; 0 without a matrix. Pure function of (src, dst).
  [[nodiscard]] Time base_delay(NodeId src, NodeId dst) const noexcept {
    if (base_us_.empty()) return 0;
    return base_us_[static_cast<std::size_t>(region_of(src)) * region_n_ +
                    region_of(dst)];
  }

  /// Smallest base_delay over all region pairs — the windowed lookahead's
  /// WAN term.
  [[nodiscard]] Time min_base_delay() const noexcept { return min_base_us_; }

  [[nodiscard]] std::uint32_t region_of(NodeId node) const noexcept {
    return region_n_ == 0 ? 0 : node % region_n_;
  }

  /// Absolute delivery time of a message of `bytes` wire bytes departing
  /// `src` for `dst` no earlier than `depart`, with the full propagation
  /// delay `prop` (sampled draw + base_delay, >= 0) already computed by the
  /// caller. Advances the uplink/downlink next-free scalars when bandwidth
  /// is enabled — call exactly once per scheduled transmission, in send
  /// order; without bandwidth it is the pure depart + prop.
  [[nodiscard]] Time delivery_time(NodeId src, NodeId dst, std::size_t bytes,
                                   Time depart, Time prop) noexcept;

  /// Gossip overlay out-neighbors of `v` (empty unless gossip backend).
  [[nodiscard]] const std::vector<NodeId>& peers_of(NodeId v) const noexcept {
    return peers_[v];
  }

 private:
  /// Serialization time of `bytes` at `mbps` in Time units (microseconds):
  /// bytes * 8 bits / (mbps * 1e6 bits/s) = bytes * 8 / mbps microseconds.
  [[nodiscard]] static Time serialize_time(std::size_t bytes,
                                           double mbps) noexcept {
    if (mbps <= 0.0) return 0;
    return static_cast<Time>(static_cast<double>(bytes) * 8.0 / mbps);
  }

  WanSpec spec_;
  std::uint32_t region_n_ = 0;
  std::vector<Time> base_us_;  ///< one-way per region pair, row-major
  Time min_base_us_ = 0;
  std::vector<Time> up_free_;    ///< per-node uplink next-free time
  std::vector<Time> down_free_;  ///< per-node downlink next-free time
  std::vector<std::vector<NodeId>> peers_;
};

}  // namespace bftsim
