#include "probes.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "net/delay_model.hpp"
#include "obs/trace_sink.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Volatile stores keep each timed loop's result observable, so the
/// optimizer cannot drop the work being timed.
volatile std::uint64_t g_observed = 0;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

}  // namespace

double event_queue_hold_ns(std::size_t depth, std::uint64_t seed,
                           std::size_t ops) {
  bftsim::Rng rng{seed};
  bftsim::DelaySampler sampler{bftsim::DelaySpec::normal(250, 50)};
  // Delays are drawn up front so the timed loop holds only queue work.
  std::vector<bftsim::Time> delays(4096);
  for (bftsim::Time& d : delays) d = sampler.sample(rng);

  bftsim::EventQueue queue;
  queue.reserve(depth + 1);
  const auto spread = static_cast<std::uint64_t>(bftsim::from_ms(500.0));
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(static_cast<bftsim::Time>(rng.next_below(spread)),
               bftsim::MessageDelivery{static_cast<std::uint32_t>(i),
                                       static_cast<bftsim::NodeId>(i % 1024)});
  }
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const bftsim::Event ev = queue.pop();
    sink += static_cast<std::uint64_t>(ev.at);
    queue.push(ev.at + delays[i % delays.size()], ev.body);
  }
  const double ns = ns_since(start);
  g_observed = sink;
  return ops == 0 ? 0.0 : ns / static_cast<double>(ops);
}

double delay_sample_ns(const bftsim::DelaySpec& spec, std::uint64_t seed,
                       std::size_t count) {
  bftsim::Rng rng{seed};
  const bftsim::DelaySampler sampler{spec};
  bftsim::Time sum = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) sum += sampler.sample(rng);
  const double ns = ns_since(start);
  g_observed = static_cast<std::uint64_t>(sum);
  return count == 0 ? 0.0 : ns / static_cast<double>(count);
}

TraceSinkProbe trace_sink_probe(const bftsim::Trace& trace,
                                const std::string& dir) {
  TraceSinkProbe probe;
  probe.records = trace.size();
  const double records = static_cast<double>(trace.size());
  const std::uint64_t expected = trace.fingerprint();

  auto feed = [&](bftsim::obs::TraceSink& sink) {
    const auto start = Clock::now();
    for (const bftsim::TraceRecord& rec : trace.records()) sink.on_record(rec);
    sink.flush();
    return ns_since(start) / records;
  };
  auto read_back = [&](const std::string& path, double* ns_per_record) {
    const auto start = Clock::now();
    bftsim::obs::TraceReader reader{path};
    bftsim::TraceRecord rec;
    std::uint64_t fingerprint = bftsim::kTraceFingerprintSeed;
    std::uint64_t n = 0;
    while (reader.next(rec)) {
      fingerprint = bftsim::hash_combine(fingerprint, rec.fingerprint());
      ++n;
    }
    if (ns_per_record != nullptr) *ns_per_record = ns_since(start) / records;
    return fingerprint == expected && n == trace.size();
  };

  const std::string binary_path = dir + "/probe-trace.bin";
  const std::string jsonl_path = dir + "/probe-trace.jsonl";
  {
    bftsim::obs::BinaryTraceSink sink{binary_path};
    probe.binary_ns_per_record = feed(sink);
  }
  {
    bftsim::obs::JsonlTraceSink sink{jsonl_path};
    probe.jsonl_ns_per_record = feed(sink);
  }
  const bool binary_ok = read_back(binary_path, &probe.reader_ns_per_record);
  const bool jsonl_ok = read_back(jsonl_path, nullptr);
  probe.round_trip_ok = binary_ok && jsonl_ok;
  std::remove(binary_path.c_str());
  std::remove(jsonl_path.c_str());
  return probe;
}

bftsim::json::Value machine_record(std::size_t nproc) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo{"/proc/cpuinfo"};
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  bftsim::json::Object o;
  o["nproc"] = static_cast<std::int64_t>(nproc);
  o["cpu"] = cpu;
  o["compiler"] = PERFBENCH_COMPILER;
  o["build_type"] = PERFBENCH_BUILD_TYPE;
  return bftsim::json::Value{std::move(o)};
}

std::string instrumented_build_reason() {
#if defined(BFTSIM_PROFILING)
  return "built with BFTSIM_PROFILING (hot-path profiling scopes)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  return {};
#endif
}

}  // namespace perfbench
