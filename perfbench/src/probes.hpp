// Layer probes: each times one public simulator component in isolation,
// at the size a workload measured, so the traced pass can split a run's
// time between the event queue, delay sampling and the rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/json.hpp"
#include "core/trace.hpp"

namespace perfbench {

/// Hold model on a public EventQueue: fill it to `depth` message
/// deliveries, then time `ops` pop+push pairs, each push landing a
/// sampled delay after the event just popped. Returns ns per pair.
[[nodiscard]] double event_queue_hold_ns(std::size_t depth, std::uint64_t seed,
                                         std::size_t ops);

/// Times `count` DelaySampler::sample draws of `spec`; ns per draw.
[[nodiscard]] double delay_sample_ns(const bftsim::DelaySpec& spec,
                                     std::uint64_t seed, std::size_t count);

struct TraceSinkProbe {
  std::uint64_t records = 0;
  double binary_ns_per_record = 0.0;
  double jsonl_ns_per_record = 0.0;
  double reader_ns_per_record = 0.0;  ///< TraceReader over the binary file
  /// Both files read back to the recorded trace's fingerprint.
  bool round_trip_ok = false;
};

/// Feeds `trace` through the binary and JSON Lines sinks into files under
/// `dir`, reads both back with TraceReader, and removes the files.
[[nodiscard]] TraceSinkProbe trace_sink_probe(const bftsim::Trace& trace,
                                              const std::string& dir);

/// nproc, CPU model, compiler and build type of this binary.
[[nodiscard]] bftsim::json::Value machine_record(std::size_t nproc);

/// Empty when this binary is fit to report; otherwise why it is not (a
/// profiling or sanitizer build times a different program).
[[nodiscard]] std::string instrumented_build_reason();

}  // namespace perfbench
