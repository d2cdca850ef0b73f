// Repeated-trial experiment driver: runs a configuration R times with
// derived seeds, aggregates the paper's metrics (mean and standard
// deviation of time usage and message usage, §IV), and prints aligned
// tables for the figure-reproduction benches.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/stats.hpp"
#include "sim/result.hpp"

namespace bftsim {

/// Aggregated outcome of repeated runs of one configuration.
///
/// Timed-out runs (those that hit the horizon without reaching the decision
/// target) count toward `runs` and `timeouts` and are included in the raw
/// volume summaries (`messages`, `events`) — the work they generated is
/// real. They are excluded from every per-decision and latency summary
/// (`latency_ms`, `per_decision_latency_ms`, `per_decision_messages`): a
/// run that never reached its target has no meaningful per-decision rate.
/// `timeouts > 0` therefore flags that the raw and per-decision summaries
/// cover different run subsets (their `count` fields show which).
struct Aggregate {
  std::size_t runs = 0;
  std::size_t timeouts = 0;  ///< runs that hit the horizon without deciding

  Summary latency_ms;               ///< time to full termination
  Summary per_decision_latency_ms;  ///< termination time / decisions target
  Summary messages;                 ///< total protocol messages
  Summary per_decision_messages;
  Summary events;
  double wall_seconds_total = 0.0;

  /// Request-level workload aggregates, populated only when runs carried a
  /// client workload (`workload_runs > 0`, see $.workload). Every
  /// workload-enabled run contributes — including timed-out ones, whose
  /// stats are finalized at the horizon and are just as real.
  std::size_t workload_runs = 0;
  std::uint64_t workload_submitted = 0;  ///< total across workload runs
  std::uint64_t workload_decided = 0;    ///< total across workload runs
  Summary workload_rps;      ///< decided requests per simulated second
  Summary workload_p50_ms;   ///< per-run request-latency p50
  Summary workload_p99_ms;   ///< per-run request-latency p99
  Summary workload_p999_ms;  ///< per-run request-latency p99.9

  /// Simulated seconds per decision, mean (negative when nothing decided).
  [[nodiscard]] double mean_latency_sec() const noexcept {
    return per_decision_latency_ms.mean / 1e3;
  }
};

/// True when `a` and `b` agree on every deterministic field — run/timeout
/// counts and all five summaries, compared exactly. Wall-clock totals are
/// ignored (host timing is the one nondeterministic output). This is the
/// serial-vs-parallel determinism check used by tests and benches.
[[nodiscard]] bool equivalent(const Aggregate& a, const Aggregate& b) noexcept;

/// Runs `base` `repeats` times (seeds base.seed, base.seed+1, ...) and
/// aggregates. Runs that fail to terminate count as timeouts; see the
/// Aggregate comment for which summaries include them.
///
/// `jobs` > 1 fans the independent (config, seed) runs across that many
/// worker threads (0 = ThreadPool::default_workers()); 1 runs them inline.
/// Each run's seed is a pure function of its repeat index (computed inside
/// the task — scheduling cannot perturb it), results are aggregated in
/// repeat order, and every run owns its own Simulation/RNG/Metrics, so the
/// returned Aggregate is `equivalent()` for every job count.
[[nodiscard]] Aggregate run_repeated(const SimConfig& base, std::size_t repeats,
                                     std::size_t jobs = 1);

/// Budget caps a guarded sweep applies to every run so a divergent
/// configuration terminates (with a recorded reason) instead of hanging
/// the sweep. Zero fields keep the config's own budget; nonzero fields
/// only ever tighten it.
struct Watchdog {
  std::uint64_t max_events = 0;  ///< cap on cfg.max_events (0 = keep)
  double max_time_ms = 0.0;      ///< cap on cfg.max_time_ms (0 = keep)

  [[nodiscard]] SimConfig apply(SimConfig cfg) const;
};

/// One run of a guarded sweep that threw instead of returning a result.
/// Carries the exact configuration (with the derived per-repeat seed), so
/// the failure is reproducible with a single run_simulation call.
struct RunFailure {
  std::size_t point = 0;   ///< index into the sweep's `points`
  std::size_t repeat = 0;  ///< repeat index within the point
  std::uint64_t seed = 0;  ///< derived seed of the failing run
  /// Human-readable identifier of the failing run: the caller-provided
  /// point label (e.g. a fuzz campaign's "campaign-7/scenario-42") plus
  /// the repeat suffix; "point-<p>/repeat-<i>" when no labels were given.
  /// Present so a failure surfaced from a big sweep names its scenario
  /// instead of only its flat index.
  std::string label;
  std::string error;       ///< exception message
  SimConfig config;        ///< full failing config (seed already applied)
};

/// Per-point census of how runs ended (see TerminationReason).
struct TerminationTally {
  std::size_t decided = 0;
  std::size_t horizon = 0;
  std::size_t event_budget = 0;
  std::size_t queue_drained = 0;
  std::size_t failed = 0;  ///< runs that threw (see SweepOutcome::failures)
};

/// One point of a guarded sweep: the Aggregate covers only the runs that
/// completed (failed runs are excluded from every summary), the tally
/// covers all of them.
struct PointOutcome {
  Aggregate aggregate;
  TerminationTally tally;
};

/// Outcome of run_sweep_guarded: per-point results plus every failure,
/// ordered by (point, repeat).
struct SweepOutcome {
  std::vector<PointOutcome> points;
  std::vector<RunFailure> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Runs every configuration in `points` `repeats` times, fanning all
/// (point, seed) pairs across one shared pool of `jobs` workers (0 =
/// default), and returns one outcome per point, in input order. Each run
/// executes under a try/catch, so one throwing configuration produces a
/// RunFailure record (config + seed included) while the rest of the sweep
/// completes. `watchdog` budgets are applied to every run. With no
/// failures, each point's Aggregate is `equivalent()` to
/// `run_repeated(points[i], repeats)` (given the same effective budgets).
///
/// `labels`, when non-empty, must have one entry per point; each failure's
/// `label` is then "<labels[point]>/repeat-<i>". An empty vector falls
/// back to "point-<p>/repeat-<i>". A size mismatch throws
/// std::invalid_argument before anything runs.
[[nodiscard]] SweepOutcome run_sweep_guarded(const std::vector<SimConfig>& points,
                                             std::size_t repeats, std::size_t jobs,
                                             const Watchdog& watchdog = {},
                                             const std::vector<std::string>& labels = {});

/// Convenience: configure `protocol` with the registry's measurement
/// count (10 decisions for pipelined protocols, else 1), per §IV.
[[nodiscard]] SimConfig experiment_config(const std::string& protocol,
                                          std::uint32_t n, double lambda_ms,
                                          const DelaySpec& delay);

/// Fixed-width table printer for bench output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int width = 14);
  void print_header(std::ostream& os) const;
  void print_row(std::ostream& os, const std::vector<std::string>& cells) const;

  /// Formats "mean ± stddev" with the given unit suffix.
  [[nodiscard]] static std::string cell(double mean, double stddev,
                                        const std::string& unit = "");
  [[nodiscard]] static std::string cell(double value, const std::string& unit = "");

 private:
  std::vector<std::string> headers_;
  int width_;
};

}  // namespace bftsim
