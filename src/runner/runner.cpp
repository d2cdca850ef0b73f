// Implementation of the repeated-trial experiment driver. The serial and
// parallel paths share one batch executor and one aggregation routine:
// each run's seed is a pure function of its repeat index (base.seed + i,
// computed inside the task), per-run results land in a slot indexed by
// repeat number, and summaries are computed from that vector in order —
// which is what makes run_repeated() bit-identical for every job count and
// schedule.
#include "runner/runner.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/thread_pool.hpp"
#include "protocols/registry.hpp"
#include "sim/simulation.hpp"

namespace bftsim {

namespace {

/// run_simulation for a result kept until its batch or sweep aggregates.
/// A run's records leave its metrics by move, growth slack included; trim
/// them, since a sweep keeps thousands of results alive at once.
RunResult run_kept(const SimConfig& cfg) {
  RunResult result = run_simulation(cfg);
  result.decisions.shrink_to_fit();
  result.views.shrink_to_fit();
  return result;
}

/// Executes `repeats` runs of `base` with seeds base.seed + i. With more
/// than one job the runs are fanned across a pool; result order is by
/// repeat index either way.
std::vector<RunResult> run_batch(const SimConfig& base, std::size_t repeats,
                                 std::size_t jobs) {
  std::vector<RunResult> results(repeats);
  const auto one_run = [&base, &results](std::size_t i) {
    SimConfig cfg = base;
    cfg.seed = base.seed + i;
    results[i] = run_kept(cfg);
  };
  if (jobs == 1) {
    for (std::size_t i = 0; i < repeats; ++i) one_run(i);
  } else {
    ThreadPool pool(jobs == 0 ? ThreadPool::default_workers() : jobs);
    parallel_for(pool, repeats, one_run);
  }
  return results;
}

/// Folds per-run results (in repeat order) into an Aggregate. See the
/// Aggregate comment for the timed-out-run inclusion rule.
Aggregate aggregate_results(const std::vector<RunResult>& results) {
  Aggregate agg;
  std::vector<double> latency;
  std::vector<double> per_dec_latency;
  std::vector<double> messages;
  std::vector<double> per_dec_messages;
  std::vector<double> events;
  std::vector<double> wl_rps;
  std::vector<double> wl_p50;
  std::vector<double> wl_p99;
  std::vector<double> wl_p999;

  for (const RunResult& result : results) {
    ++agg.runs;
    agg.wall_seconds_total += result.wall_seconds;
    messages.push_back(static_cast<double>(result.messages_sent));
    events.push_back(static_cast<double>(result.events_processed));
    if (result.workload.enabled) {
      ++agg.workload_runs;
      agg.workload_submitted += result.workload.submitted;
      agg.workload_decided += result.workload.decided;
      wl_rps.push_back(result.workload.requests_per_sec);
      wl_p50.push_back(result.workload.latency_p50_ms);
      wl_p99.push_back(result.workload.latency_p99_ms);
      wl_p999.push_back(result.workload.latency_p999_ms);
    }
    if (!result.terminated) {
      ++agg.timeouts;
      continue;
    }
    latency.push_back(result.latency_ms());
    per_dec_latency.push_back(result.per_decision_latency_ms());
    per_dec_messages.push_back(result.per_decision_messages());
  }

  agg.latency_ms = summarize(std::move(latency));
  agg.per_decision_latency_ms = summarize(std::move(per_dec_latency));
  agg.messages = summarize(std::move(messages));
  agg.per_decision_messages = summarize(std::move(per_dec_messages));
  agg.events = summarize(std::move(events));
  agg.workload_rps = summarize(std::move(wl_rps));
  agg.workload_p50_ms = summarize(std::move(wl_p50));
  agg.workload_p99_ms = summarize(std::move(wl_p99));
  agg.workload_p999_ms = summarize(std::move(wl_p999));
  return agg;
}

bool summaries_equal(const Summary& a, const Summary& b) noexcept {
  return a.count == b.count && a.mean == b.mean && a.stddev == b.stddev &&
         a.min == b.min && a.max == b.max && a.median == b.median &&
         a.p90 == b.p90 && a.p99 == b.p99;
}

}  // namespace

bool equivalent(const Aggregate& a, const Aggregate& b) noexcept {
  return a.runs == b.runs && a.timeouts == b.timeouts &&
         summaries_equal(a.latency_ms, b.latency_ms) &&
         summaries_equal(a.per_decision_latency_ms, b.per_decision_latency_ms) &&
         summaries_equal(a.messages, b.messages) &&
         summaries_equal(a.per_decision_messages, b.per_decision_messages) &&
         summaries_equal(a.events, b.events) &&
         a.workload_runs == b.workload_runs &&
         a.workload_submitted == b.workload_submitted &&
         a.workload_decided == b.workload_decided &&
         summaries_equal(a.workload_rps, b.workload_rps) &&
         summaries_equal(a.workload_p50_ms, b.workload_p50_ms) &&
         summaries_equal(a.workload_p99_ms, b.workload_p99_ms) &&
         summaries_equal(a.workload_p999_ms, b.workload_p999_ms);
}

Aggregate run_repeated(const SimConfig& base, std::size_t repeats,
                       std::size_t jobs) {
  return aggregate_results(run_batch(base, repeats, jobs));
}

SimConfig Watchdog::apply(SimConfig cfg) const {
  if (max_events > 0) cfg.max_events = std::min(cfg.max_events, max_events);
  if (max_time_ms > 0) cfg.max_time_ms = std::min(cfg.max_time_ms, max_time_ms);
  return cfg;
}

SweepOutcome run_sweep_guarded(const std::vector<SimConfig>& points,
                               std::size_t repeats, std::size_t jobs,
                               const Watchdog& watchdog,
                               const std::vector<std::string>& labels) {
  if (!labels.empty() && labels.size() != points.size()) {
    throw std::invalid_argument(
        "run_sweep_guarded: " + std::to_string(labels.size()) +
        " labels for " + std::to_string(points.size()) + " points");
  }
  const auto point_label = [&labels](std::size_t p) {
    return labels.empty() ? "point-" + std::to_string(p) : labels[p];
  };
  // One flat task per (point, repeat) pair over one shared pool, so a
  // point with slow runs cannot serialize the whole sweep behind it.
  // Nothing a run throws escapes its slot: the sweep always completes and
  // failures are reported as data.
  const std::size_t count = points.size() * repeats;
  ThreadPool pool(jobs == 0 ? ThreadPool::default_workers() : jobs);
  std::vector<Slot<RunResult>> slots;
  SweepOutcome outcome;
  // fan_out absorbs everything a run can throw, so an exception out of it
  // means the sweep infrastructure itself failed (e.g. out-of-memory
  // recording a slot error). Record it as a failure rather than losing the
  // whole sweep; every run's result was lost with the batch.
  try {
    slots =
        fan_out(pool, count, [&points, &watchdog, repeats](std::size_t flat) {
          const std::size_t p = flat / repeats;
          SimConfig cfg = watchdog.apply(points[p]);
          cfg.seed = points[p].seed + flat % repeats;
          return run_kept(cfg);
        });
  } catch (const std::exception& e) {
    RunFailure failure;
    failure.label = "sweep";
    failure.error = std::string("sweep infrastructure failure: ") + e.what();
    failure.config = points.empty() ? SimConfig{} : watchdog.apply(points[0]);
    failure.seed = failure.config.seed;
    slots.assign(count, Slot<RunResult>{std::nullopt, failure.error});
    outcome.failures.push_back(std::move(failure));
  }
  outcome.points.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointOutcome point;
    std::vector<RunResult> completed;
    completed.reserve(repeats);
    for (std::size_t i = 0; i < repeats; ++i) {
      Slot<RunResult>& slot = slots[p * repeats + i];
      if (!slot.value) {
        ++point.tally.failed;
        RunFailure failure;
        failure.point = p;
        failure.repeat = i;
        failure.seed = points[p].seed + i;
        failure.label = point_label(p) + "/repeat-" + std::to_string(i);
        failure.error = slot.error;
        failure.config = watchdog.apply(points[p]);
        failure.config.seed = failure.seed;
        outcome.failures.push_back(std::move(failure));
        continue;
      }
      switch (slot.value->termination_reason) {
        case TerminationReason::kDecided: ++point.tally.decided; break;
        case TerminationReason::kHorizon: ++point.tally.horizon; break;
        case TerminationReason::kEventBudget: ++point.tally.event_budget; break;
        case TerminationReason::kQueueDrained: ++point.tally.queue_drained; break;
      }
      completed.push_back(std::move(*slot.value));
    }
    point.aggregate = aggregate_results(completed);
    outcome.points.push_back(std::move(point));
  }
  return outcome;
}

SimConfig experiment_config(const std::string& protocol, std::uint32_t n,
                            double lambda_ms, const DelaySpec& delay) {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.lambda_ms = lambda_ms;
  cfg.delay = delay;
  cfg.decisions = ProtocolRegistry::instance().get(protocol).measured_decisions;
  return cfg;
}

Table::Table(std::vector<std::string> headers, int width)
    : headers_(std::move(headers)), width_(width) {}

void Table::print_header(std::ostream& os) const {
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    os << std::setw(i == 0 ? 16 : width_) << std::left << headers_[i];
  }
  os << '\n';
  os << std::string(16 + width_ * (headers_.size() - 1), '-') << '\n';
}

void Table::print_row(std::ostream& os, const std::vector<std::string>& cells) const {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << std::setw(i == 0 ? 16 : width_) << std::left << cells[i];
  }
  os << '\n';
}

std::string Table::cell(double mean, double stddev, const std::string& unit) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(mean < 10 ? 2 : 0) << mean << "±"
     << std::setprecision(stddev < 10 ? 1 : 0) << stddev << unit;
  return os.str();
}

std::string Table::cell(double value, const std::string& unit) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(value < 10 ? 2 : 0) << value << unit;
  return os.str();
}

}  // namespace bftsim
