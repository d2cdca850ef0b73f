// Shared helpers for the figure-reproduction benches: command-line / env
// parsing (repeats, --jobs, --json), the protocol list, table cells, and a
// Report that runs configurations on the parallel runner and can export
// every measurement as a machine-readable JSON file (manifest + aggregate
// per sweep point — the BENCH_*.json format, see docs/RUNNING_EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli_args.hpp"
#include "core/thread_pool.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"

namespace bftsim::bench {

/// Options every bench binary accepts:
///   [repeats]      positional integer >= 1 (default mirrors the paper's
///                  100)
///   --jobs N       worker threads for the parallel runner, 0 to 128; 0 =
///                  one per hardware core. Default: $BFTSIM_JOBS, else 1
///                  (serial).
///   --json PATH    export every measurement to PATH as JSON.
struct BenchArgs {
  std::size_t repeats = 100;
  std::size_t jobs = 1;
  std::string json_path;
};

/// Fails fast (exit 2) when PATH cannot be created, so a long bench run
/// does not abort at the very end when writing its report.
inline void require_writable(const std::string& path) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write --json path %s\n", path.c_str());
    std::exit(2);
  }
  std::fclose(f);
}

/// Parses the options above; a value that is not a whole decimal number
/// in range is a usage error (exit 2) before any run starts.
inline BenchArgs parse_args(int argc, char** argv,
                            std::size_t default_repeats = 100) {
  BenchArgs args;
  args.repeats = default_repeats;
  if (const char* env = std::getenv("BFTSIM_JOBS")) {
    args.jobs = cli::arg<std::uint64_t>(argv[0], "$BFTSIM_JOBS",
                                        env, 0, cli::kMaxJobs);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      args.jobs = cli::arg<std::uint64_t>(argv[0], "--jobs",
                                          argv[++i], 0, cli::kMaxJobs);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else {
      // Repeats, or fig9's seed: at least 1, and exact as a JSON number.
      args.repeats = cli::arg<std::uint64_t>(argv[0], "repeats",
                                             argv[i], 1, cli::kMaxSeed);
    }
  }
  require_writable(args.json_path);
  return args;
}

inline void print_title(const std::string& title, const std::string& setup) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!setup.empty()) std::printf("%s\n", setup.c_str());
}

/// All eight builtin protocols in Table I order.
inline const std::vector<std::string>& all_protocols() {
  static const std::vector<std::string> kProtocols{
      "addv1", "addv2", "addv3", "algorand",
      "asyncba", "pbft", "hotstuff-ns", "librabft"};
  return kProtocols;
}

/// Formats an aggregate latency as "mean±std s" (or TIMEOUT).
inline std::string latency_cell(const Aggregate& agg) {
  if (agg.latency_ms.count == 0) return "TIMEOUT";
  std::string cell = Table::cell(agg.per_decision_latency_ms.mean / 1e3,
                                 agg.per_decision_latency_ms.stddev / 1e3, "s");
  if (agg.timeouts > 0) cell += "*";
  return cell;
}

inline std::string message_cell(const Aggregate& agg) {
  return Table::cell(agg.per_decision_messages.mean,
                     agg.per_decision_messages.stddev, "");
}

/// Runs the bench's configurations on the parallel runner and collects
/// one {manifest, aggregate} entry per measurement; write() exports them
/// all as {"bench": ..., "jobs": ..., "results": [...]} when --json was
/// given (and is a no-op otherwise).
class Report {
 public:
  Report(std::string bench, BenchArgs args)
      : bench_(std::move(bench)), args_(std::move(args)) {}

  [[nodiscard]] const BenchArgs& args() const noexcept { return args_; }

  /// Runs `cfg` repeats times across args().jobs workers, timing the
  /// batch, and records the measurement under `label`.
  Aggregate measure(const std::string& label, const SimConfig& cfg) {
    return measure(label, cfg, args_.repeats);
  }

  Aggregate measure(const std::string& label, const SimConfig& cfg,
                    std::size_t repeats) {
    const auto start = std::chrono::steady_clock::now();
    Aggregate agg = run_repeated(cfg, repeats, args_.jobs);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    add(make_manifest(label, cfg, repeats, wall.count()), agg);
    return agg;
  }

  /// Records an externally produced measurement (e.g. the packet-level
  /// baseline engine, which the runner does not drive).
  void add(const RunManifest& manifest, const Aggregate& agg) {
    results_.push_back(experiment_to_json(manifest, agg));
  }

  /// Records a single run with its full per-run detail (view trajectories
  /// and all) — used by trace-style benches like fig9.
  void add_single(const std::string& label, const SimConfig& cfg,
                  const RunResult& result) {
    json::Object o;
    o["manifest"] = manifest_to_json(make_manifest(label, cfg, 1, result.wall_seconds));
    o["run"] = result_to_json(result, /*include_views=*/true);
    results_.push_back(json::Value{std::move(o)});
  }

  /// Records an arbitrary extra entry (speedup measurements etc.).
  void add_value(json::Value value) { results_.push_back(std::move(value)); }

  [[nodiscard]] RunManifest make_manifest(const std::string& label,
                                          const SimConfig& cfg,
                                          std::size_t repeats,
                                          double wall_seconds) const {
    RunManifest manifest;
    manifest.name = bench_ + "/" + label;
    manifest.config = cfg;
    manifest.repeats = repeats;
    manifest.jobs = args_.jobs == 0 ? ThreadPool::default_workers() : args_.jobs;
    manifest.wall_seconds = wall_seconds;
    return manifest;
  }

  /// Writes the collected entries when --json was given.
  void write() const {
    if (args_.json_path.empty()) return;
    json::Object o;
    o["bench"] = bench_;
    o["jobs"] = static_cast<std::int64_t>(args_.jobs);
    o["results"] = json::Value{results_};
    write_json_file(args_.json_path, json::Value{std::move(o)});
    std::printf("\n[%s: %zu results written to %s]\n", bench_.c_str(),
                results_.size(), args_.json_path.c_str());
  }

 private:
  std::string bench_;
  BenchArgs args_;
  json::Array results_;
};

}  // namespace bftsim::bench
