// Parallel sweep: the multi-core experiment API end to end — build a list
// of sweep points (here: PBFT vs HotStuff+NS across three delay
// environments), fan every (point, seed) run across a worker pool with
// run_sweep_guarded(), verify the aggregates match a serial rerun exactly,
// and export everything as one JSON document.
//
// Usage: parallel_sweep [repeats] [--jobs N] [--json PATH]
//   Defaults: 20 repeats, one worker per hardware core, no JSON file.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"

int main(int argc, char** argv) {
  using namespace bftsim;

  std::size_t repeats = 20;
  std::size_t jobs = ThreadPool::default_workers();
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (const long value = std::strtol(argv[i], nullptr, 10); value > 0) {
      repeats = static_cast<std::size_t>(value);
    }
  }
  if (!json_path.empty()) {
    // Fail fast instead of aborting after the sweep when the path is bad.
    std::FILE* probe = std::fopen(json_path.c_str(), "a");
    if (probe == nullptr) {
      std::fprintf(stderr, "error: cannot write --json path %s\n",
                   json_path.c_str());
      return 2;
    }
    std::fclose(probe);
  }

  const std::vector<std::string> protocols{"pbft", "hotstuff-ns"};
  const std::vector<DelaySpec> environments{DelaySpec::normal(250, 50),
                                            DelaySpec::normal(500, 100),
                                            DelaySpec::normal(1000, 300)};

  std::vector<SimConfig> points;
  std::vector<std::string> labels;
  for (const std::string& protocol : protocols) {
    for (const DelaySpec& env : environments) {
      points.push_back(experiment_config(protocol, 16, 1000, env));
      labels.push_back(protocol + "/" + env.describe());
    }
  }

  std::printf("sweeping %zu points x %zu repeats on %zu workers...\n",
              points.size(), repeats, jobs);
  const auto start = std::chrono::steady_clock::now();
  const SweepOutcome sweep =
      run_sweep_guarded(points, repeats, jobs, {}, labels);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const RunFailure& failure : sweep.failures) {
    std::fprintf(stderr, "error: %s: %s\n", failure.label.c_str(),
                 failure.error.c_str());
  }
  if (!sweep.ok()) return 1;

  Table table{{"point", "latency", "msgs/dec", "timeouts"}, 14};
  table.print_header(std::cout);
  json::Array results;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Aggregate& agg = sweep.points[i].aggregate;
    table.print_row(std::cout,
                    {labels[i],
                     Table::cell(agg.per_decision_latency_ms.mean / 1e3,
                                 agg.per_decision_latency_ms.stddev / 1e3, "s"),
                     Table::cell(agg.per_decision_messages.mean, ""),
                     std::to_string(agg.timeouts)});

    RunManifest manifest;
    manifest.name = "parallel_sweep/" + labels[i];
    manifest.config = points[i];
    manifest.repeats = repeats;
    manifest.jobs = jobs;
    manifest.wall_seconds = wall;
    results.push_back(experiment_to_json(manifest, agg));
  }
  std::printf("sweep wall-clock: %.2f s\n", wall);

  // Determinism spot check: the first point, rerun serially, must
  // aggregate to exactly the same numbers.
  if (!equivalent(sweep.points[0].aggregate,
                  run_repeated(points[0], repeats))) {
    std::printf("!! parallel aggregate differs from serial rerun\n");
    return 1;
  }
  std::printf("determinism check: parallel == serial rerun\n");

  if (!json_path.empty()) {
    json::Object doc;
    doc["bench"] = "parallel_sweep";
    doc["jobs"] = static_cast<std::int64_t>(jobs);
    doc["results"] = json::Value{std::move(results)};
    write_json_file(json_path, json::Value{std::move(doc)});
    std::printf("results written to %s\n", json_path.c_str());
  }
  return 0;
}
