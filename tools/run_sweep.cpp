// Crash-safe sweep driver for unattended scenario batches.
//
// Reads either a single simulation config or a sweep file of the form
//   {"repeats": R, "points": [<config>, <config>, ...]}
// and runs every point through run_sweep_guarded: each run executes under
// a try/catch, so one throwing configuration becomes a structured
// RunFailure record (config + seed, replayable with a single run) while
// the rest of the sweep completes. Optional watchdog budgets bound every
// run so a livelocked configuration terminates with a recorded
// termination_reason instead of hanging the batch.
//
// Usage:
//   run_sweep <config.json> [--repeats R] [--jobs J] [--intra-jobs N]
//             [--out FILE] [--max-events N] [--max-time-ms T] [--fail-fast]
//             [--zero-wall]
//
// --zero-wall zeroes every aggregate's wall_seconds_total before export.
// Wall clock is the one field `equivalent()` excludes from bit-identity;
// zeroing it makes the outcome file byte-for-byte comparable across job
// counts and machines (CI's wan-matrix job diffs --jobs 1 vs --jobs 4).
//
// Numeric flags take one whole decimal token in range (--jobs at most 128);
// anything else exits 2 before a run starts.
//
// --intra-jobs N overrides every point's engine.intra_jobs, running each
// run through the windowed-parallel driver (per-node RNG semantics; see
// docs/PARALLELISM.md). Points whose config already sets an engine section
// keep their own values unless the flag is given.
//
// The full SweepOutcome (per-point aggregates, termination tallies, and
// failure records) is written as JSON to --out, or to stdout when no
// output file is given. The exit code is nonzero only when failures
// occurred AND --fail-fast was requested; without it a partially failed
// sweep still exits 0 so batch schedulers collect the outcome file.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/json.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"

namespace {

using namespace bftsim;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <config.json> [--repeats R] [--jobs J]\n"
               "          [--intra-jobs N] [--out FILE] [--max-events N]\n"
               "          [--max-time-ms T] [--fail-fast] [--zero-wall]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string out_path;
  std::size_t repeats = 0;    // 0 = from sweep file, default 3
  std::size_t jobs = 0;       // 0 = ThreadPool default
  std::uint32_t intra_jobs = 0;  // 0 = leave each point's engine config alone
  Watchdog watchdog;
  bool fail_fast = false;
  bool zero_wall = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const auto whole = [&](std::uint64_t lo, std::uint64_t hi) {
      return cli::arg("run_sweep", arg, next(), lo, hi);
    };
    if (arg == "--repeats") {
      repeats = whole(1, 1'000'000);
    } else if (arg == "--jobs") {
      jobs = whole(0, cli::kMaxJobs);
    } else if (arg == "--intra-jobs") {
      intra_jobs = static_cast<std::uint32_t>(
          whole(1, EngineConfig::kMaxIntraJobs));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--max-events") {
      watchdog.max_events =
          whole(1, std::numeric_limits<std::int64_t>::max());
    } else if (arg == "--max-time-ms") {
      watchdog.max_time_ms = cli::arg("run_sweep", arg, next(), 1e-6, 1e12);
    } else if (arg == "--fail-fast") {
      fail_fast = true;
    } else if (arg == "--zero-wall") {
      zero_wall = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (input_path.empty()) usage(argv[0]);

  std::vector<SimConfig> points;
  try {
    const json::Value doc = json::parse_file(input_path);
    if (const json::Value* p = doc.as_object().find("points")) {
      for (const json::Value& point : p->as_array()) {
        points.push_back(SimConfig::from_json(point));
      }
      if (repeats == 0) {
        repeats = static_cast<std::size_t>(doc.get_int("repeats", 3));
      }
    } else {
      points.push_back(SimConfig::from_json(doc));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", input_path.c_str(), e.what());
    return 2;
  }
  if (repeats == 0) repeats = 3;
  if (points.empty()) {
    std::fprintf(stderr, "%s: no points to run\n", input_path.c_str());
    return 2;
  }
  if (intra_jobs > 0) {
    for (SimConfig& point : points) {
      point.engine.intra_jobs = intra_jobs;
      try {
        point.validate();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--intra-jobs %u: %s\n", intra_jobs, e.what());
        return 2;
      }
    }
  }

  SweepOutcome outcome = run_sweep_guarded(points, repeats, jobs, watchdog);
  if (zero_wall) {
    for (PointOutcome& po : outcome.points) po.aggregate.wall_seconds_total = 0.0;
  }

  for (std::size_t i = 0; i < outcome.points.size(); ++i) {
    const PointOutcome& po = outcome.points[i];
    std::fprintf(stderr,
                 "point %zu (%s, n=%u): %zu runs, %zu decided, %zu horizon, "
                 "%zu event-budget, %zu failed\n",
                 i, points[i].protocol.c_str(), points[i].n, po.aggregate.runs,
                 po.tally.decided, po.tally.horizon, po.tally.event_budget,
                 po.tally.failed);
  }
  for (const RunFailure& failure : outcome.failures) {
    std::fprintf(stderr, "FAILURE %s (seed %llu): %s\n", failure.label.c_str(),
                 static_cast<unsigned long long>(failure.seed),
                 failure.error.c_str());
  }

  const json::Value report = sweep_outcome_to_json(outcome);
  if (out_path.empty()) {
    std::printf("%s\n", report.dump(2).c_str());
  } else {
    write_json_file(out_path, report);
    std::fprintf(stderr, "outcome written to %s\n", out_path.c_str());
  }

  return (!outcome.ok() && fail_fast) ? 1 : 0;
}
