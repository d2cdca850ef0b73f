// The benchmark's workloads: each is a fixed batch of simulator
// configurations generated from the workload seed and handed to the
// simulator as JSON text, the way a user hands it a config file.
// README.md records why each one was chosen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  /// False: every config is one run. True: the configs are the points of
  /// one run_sweep_guarded call with `repeats` seeds each.
  bool sweep = false;
  std::vector<std::string> configs;   ///< JSON text of each config
  std::vector<std::string> labels;    ///< one per config, names failures
  std::vector<std::string> families;  ///< sweep: scenario family of each point
  std::size_t repeats = 1;            ///< sweep: seeds per point
  std::size_t jobs = 1;               ///< host threads the workload uses
  /// Timeline sampling period of the traced pass (simulated ms), sized to
  /// give about a thousand samples per run.
  double timeline_tick_ms = 1.0;
  /// >0: the traced pass also runs each config on the windowed engine
  /// with this many lanes and on one per-node lane, and demands equal
  /// results.
  std::uint32_t windowed_lanes = 0;
  /// >0: the traced pass also runs each config at this decision count, for
  /// the run-length slope.
  std::uint32_t half_decisions = 0;
};

/// Builds workload `name` from `seed`. `smoke` shrinks every run to a size
/// that finishes in well under a second; `nproc` caps the thread count.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool smoke,
                                     std::size_t nproc);

}  // namespace perfbench
