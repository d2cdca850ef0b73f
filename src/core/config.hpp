// Simulation configuration.
//
// Mirrors the paper's usage: a user describes the network model and
// parameters, the BFT protocol, and optionally an attack scenario — either
// programmatically or as a JSON file (see examples/configs/).
#pragma once

#include <cstdint>
#include <string>

#include "core/json.hpp"
#include "core/types.hpp"
#include "faults/fault_config.hpp"
#include "net/wan/wan_spec.hpp"
#include "workload/workload_spec.hpp"
#include "obs/obs_config.hpp"

namespace bftsim {

/// Specification of the message-delay distribution (the paper's N(mu,sigma)
/// notation and friends). All parameters are in milliseconds.
struct DelaySpec {
  enum class Kind : std::uint8_t { kConstant, kUniform, kNormal, kExponential };

  Kind kind = Kind::kNormal;
  double a = 250.0;  ///< constant: value; uniform: lo; normal: mu; exp: mean
  double b = 50.0;   ///< uniform: hi; normal: sigma; otherwise unused
  double min_ms = 1.0;    ///< sampled delays are clamped below by this
  double max_ms = 0.0;    ///< optional upper clamp; 0 = unbounded

  [[nodiscard]] static DelaySpec constant(double ms) {
    return DelaySpec{Kind::kConstant, ms, 0.0, 1.0, 0.0};
  }
  [[nodiscard]] static DelaySpec uniform(double lo, double hi) {
    return DelaySpec{Kind::kUniform, lo, hi, 1.0, 0.0};
  }
  [[nodiscard]] static DelaySpec normal(double mu, double sigma) {
    return DelaySpec{Kind::kNormal, mu, sigma, 1.0, 0.0};
  }
  [[nodiscard]] static DelaySpec exponential(double mean) {
    return DelaySpec{Kind::kExponential, mean, 0.0, 1.0, 0.0};
  }

  [[nodiscard]] std::string describe() const;
  [[nodiscard]] json::Value to_json() const;
  /// Strict parse: unknown keys / out-of-range values throw a single-line
  /// error naming the JSON path (rooted at `path`).
  [[nodiscard]] static DelaySpec from_json(const json::Value& v,
                                           const std::string& path = "$.delay");
};

/// Computation-cost model (the paper's §III-A3 future-work note: estimate
/// computation time by counting computationally expensive operations such
/// as cryptography). When enabled, each node owns one simulated CPU:
/// verifying an incoming message and signing outgoing traffic occupy it,
/// so message processing serializes and throughput becomes measurable.
/// All costs in milliseconds; zero (the default) disables the model.
struct CostModel {
  double verify_ms = 0.0;  ///< per received network message
  double sign_ms = 0.0;    ///< per send/broadcast call (one signature)

  [[nodiscard]] bool enabled() const noexcept {
    return verify_ms > 0.0 || sign_ms > 0.0;
  }
  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static CostModel from_json(const json::Value& v,
                                           const std::string& path = "$.cost");
};

/// Execution-engine knobs: how a run executes, never what it computes.
/// intra_jobs > 1 selects the windowed-parallel driver (sim/windowed.cpp),
/// which partitions nodes across lanes and executes bounded-lookahead time
/// windows concurrently. Results are bit-identical for every intra_jobs
/// value >= 1 under the per-node mode; they differ from the serial
/// engine's shared streams only in how each delay and corruption coin is
/// drawn (see docs/PARALLELISM.md).
struct EngineConfig {
  /// Where network-delay / corruption draws come from.
  ///  - kAuto:    shared streams when intra_jobs == 1, keyed otherwise
  ///    (default);
  ///  - kPerNode: keyed draws, each a pure function of (seed, message id) —
  ///    the windowed algorithm even at intra_jobs == 1, giving a serial
  ///    baseline that is bit-identical to every parallel lane count.
  enum class RngMode : std::uint8_t { kAuto, kPerNode };
  static constexpr std::uint32_t kMaxIntraJobs = 128;

  std::uint32_t intra_jobs = 1;  ///< worker lanes for one run; 1 = serial
  RngMode rng = RngMode::kAuto;

  /// True when the run uses keyed draws (and thus the windowed driver),
  /// either explicitly or via kAuto + intra_jobs > 1.
  [[nodiscard]] bool per_node_rng() const noexcept {
    return rng == RngMode::kPerNode ||
           (rng == RngMode::kAuto && intra_jobs > 1);
  }
  /// True when any knob differs from the defaults (gates JSON emission).
  [[nodiscard]] bool active() const noexcept {
    return intra_jobs != 1 || rng != RngMode::kAuto;
  }

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static EngineConfig from_json(const json::Value& v,
                                              const std::string& path = "$.engine");
};

/// Full configuration of one simulation run.
struct SimConfig {
  /// Registered protocol name: "addv1", "addv2", "addv3", "algorand",
  /// "asyncba", "pbft", "hotstuff-ns", "librabft".
  std::string protocol = "pbft";

  std::uint32_t n = 16;       ///< total number of nodes the protocol assumes
  std::uint32_t honest = 0;   ///< number of live honest nodes; 0 means n.
                              ///< n - honest nodes are fail-stopped (§III-C)
  double lambda_ms = 1000.0;  ///< the protocol's configured delay bound λ
  DelaySpec delay = DelaySpec::normal(250.0, 50.0);

  std::uint64_t seed = 1;          ///< master seed; everything derives from it
  std::uint32_t decisions = 1;     ///< stop after this many decided values
  double max_time_ms = 600'000.0;  ///< simulated-time horizon (liveness guard)
  std::uint64_t max_events = 50'000'000;  ///< event-count guard

  std::string attack;         ///< "", "partition", "add-static", "add-adaptive"
  json::Value attack_params;  ///< attack-specific parameters (JSON object)
  json::Value protocol_params;  ///< protocol-specific knobs (JSON object)

  CostModel cost;             ///< optional computation-cost model
  /// Geo-distribution: regions > 1 applies cross-region delay penalties
  /// (declared in net/topology.hpp; stored as JSON here to keep layering).
  json::Value topology;

  /// Topology-aware WAN transport backend: geo RTT matrices, per-node
  /// bandwidth queues, gossip dissemination. Disabled by default; mutually
  /// exclusive with the simpler $.topology transform. See docs/NETWORKING.md.
  WanSpec net;

  /// Deterministic fault scenario (crash/recover windows, link flaps,
  /// message corruption, clock skew); disabled by default. See docs/FAULTS.md.
  FaultConfig faults;

  /// Client workload generator: open/closed-loop request arrivals batched
  /// into proposals, request-level latency percentiles. Disabled by
  /// default. See docs/WORKLOADS.md.
  WorkloadSpec workload;

  bool record_trace = false;  ///< record full message trace (validator input)
  bool record_views = true;   ///< record per-node view changes (Fig. 9)

  /// Observability: trace sink selection (memory/jsonl/binary) and the
  /// run-timeline sampler; all default-off. See docs/OBSERVABILITY.md.
  ObsConfig obs;

  /// Execution engine: intra-run parallelism and RNG layout. Changing these
  /// never changes which protocol states are reachable — see EngineConfig.
  EngineConfig engine;

  /// Number of live (non-fail-stopped) nodes.
  [[nodiscard]] std::uint32_t live_nodes() const noexcept {
    return honest == 0 ? n : honest;
  }

  /// Throws std::invalid_argument when inconsistent.
  void validate() const;

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static SimConfig from_json(const json::Value& v);
  [[nodiscard]] static SimConfig from_file(const std::string& path);
};

}  // namespace bftsim
