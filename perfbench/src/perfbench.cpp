// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--forge-mismatch] [--out-dir DIR]
//
// Builds workload NAME from seed N (workloads.cpp), sets it up repeatedly
// (config parse + validation) and then runs its fixed work in a loop for
// about S seconds, checking every run. The last line of standard output is
// one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, from untraced
// iterations. With --trace 1 iterations alternate between untraced and
// traced; traced ones record spans around every call into a simulator
// layer, and the metrics are the per-layer ones (README.md has the list).
// --smoke shrinks every run; --forge-mismatch corrupts one expected run
// identity so the correctness checks can be seen to fail.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "core/memstats.hpp"
#include "core/stats.hpp"
#include "probes.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "sim/controller.hpp"
#include "sim/simulation.hpp"
#include "spans.hpp"
#include "validator/validator.hpp"
#include "workloads.hpp"

namespace {

using namespace bftsim;
using perfbench::Spans;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// Set-up takes microseconds, and the host's speed flips between a fast and
// a slow state every few tens of milliseconds (one process saw set-up
// medians of 2.5 us and 4 us alternate). So set-up repeats for at least
// kSetupSeconds (and kSetupRepeats times) before the loop and for
// kSetupBurstSeconds after every iteration, and setup_s is the trimmed mean
// of all samples: like wall_s it then weighs each state by its share of the
// run, where a median would jump from one state to the other. Spans cover
// the first kSetupRepeats only.
constexpr int kSetupRepeats = 51;
constexpr double kSetupSeconds = 0.25;
constexpr double kSetupBurstSeconds = 0.1;
constexpr std::size_t kMinIterations = 3;        // untraced-only runs
constexpr std::size_t kMinTracedIterations = 2;  // each pass of a traced run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool forge_mismatch = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--forge-mismatch] "
               "[--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (flag == "--out-dir") {
        a.out_dir = value();
      } else if (flag == "--smoke") {
        a.smoke = true;
      } else if (flag == "--forge-mismatch") {
        a.forge_mismatch = true;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The kernel's peak-RSS mark must restart at every phase, or a phase's
/// peak would silently be the whole process's.
void reset_peak_rss_or_throw() {
  if (!reset_peak_rss()) {
    throw std::runtime_error(
        "cannot reset the peak-RSS mark (/proc/self/clear_refs), so memory "
        "metrics would cover the whole process");
  }
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Identity of one run: what a speed-only change must leave untouched
/// (events, messages, termination time, every decision).
std::uint64_t run_identity(const RunResult& r) {
  std::uint64_t h = hash_words(
      {r.events_processed, r.messages_sent, r.bytes_sent, r.timers_fired,
       static_cast<std::uint64_t>(r.termination_time),
       static_cast<std::uint64_t>(r.termination_reason)});
  for (const Decision& d : r.decisions) {
    h = hash_combine(h, hash_words({d.node, static_cast<std::uint64_t>(d.at),
                                    d.height, d.value}));
  }
  return h;
}

/// Identity of one sweep point: every deterministic Aggregate field.
std::uint64_t aggregate_identity(const Aggregate& a) {
  std::uint64_t h =
      hash_words({a.runs, a.timeouts, a.workload_runs, a.workload_decided});
  for (const Summary* s : {&a.latency_ms, &a.messages, &a.events,
                           &a.per_decision_messages}) {
    h = hash_combine(h, hash_words({s->count, bits(s->mean), bits(s->min),
                                    bits(s->max)}));
  }
  return h;
}

/// Runs failed checks, with the first few reasons kept for the report.
struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (reasons.size() < 20) reasons.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

/// Configs parsed and validated from the workload's JSON text.
struct Prepared {
  std::vector<SimConfig> plain;
  /// The same configs with the run-timeline sampler on (traced pass).
  std::vector<SimConfig> sampled;
};

SimConfig parse_config(const std::string& text, Spans& spans) {
  SimConfig cfg;
  {
    auto s = spans.scope("config.parse");
    cfg = SimConfig::from_json(json::parse(text));
  }
  {
    auto s = spans.scope("config.validate");
    cfg.validate();
  }
  return cfg;
}

/// The set-up a user pays before the first run: config load and
/// validation. Worker pools are not part of it: run_sweep_guarded and the
/// windowed engine start their own inside every timed call.
std::vector<SimConfig> prepare(const Workload& w, Spans& spans) {
  auto s = spans.scope("setup");
  std::vector<SimConfig> configs;
  for (const std::string& text : w.configs) {
    configs.push_back(parse_config(text, spans));
  }
  return configs;
}

/// Repeats `prepare` for at least `seconds` and `min_repeats` times,
/// appending each repeat's time to `samples`. Spans record the first
/// `traced_repeats` repeats.
std::vector<SimConfig> repeat_prepare(const Workload& w, Spans& spans,
                                      int min_repeats, double seconds,
                                      int traced_repeats,
                                      std::vector<double>& samples) {
  std::vector<SimConfig> configs;
  const auto begin = Clock::now();
  for (int k = 0; k < min_repeats || seconds_since(begin) < seconds; ++k) {
    spans.set_enabled(k < traced_repeats);
    const auto start = Clock::now();
    configs = prepare(w, spans);
    samples.push_back(seconds_since(start));
  }
  spans.set_enabled(false);
  return configs;
}

/// Mean of the middle 80% of `v`, which drops samples hit by an interrupt.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// `plain` with the run-timeline sampler on. The sampler only reads engine
/// counters, so these runs must be identical to the plain ones (checked by
/// run identity).
std::vector<SimConfig> sampled(std::vector<SimConfig> plain, double tick_ms) {
  for (SimConfig& cfg : plain) {
    cfg.obs.timeline_tick_ms = tick_ms;
    cfg.obs.timeline_views = false;
  }
  return plain;
}

/// A finished run waiting for its correctness checks, which run after the
/// iteration clock stops: they verify the benchmark, they are not its work.
struct PendingCheck {
  std::string label;
  bool must_decide = true;
  RunResult result;
};

/// Per-iteration totals. Times come from the iteration clock and spans;
/// counters from the runs whose Controller perfbench builds itself.
struct Iteration {
  int index = 0;  ///< span iteration id
  bool traced = false;
  double wall_s = 0.0;
  std::uint64_t runs = 0;    ///< every run, sweep runs included
  std::uint64_t events = 0;  ///< every run, sweep runs included
  double simulated_s = 0.0;  ///< every run, sweep runs included
  std::vector<std::uint64_t> identities;
  std::vector<PendingCheck> pending;

  // Runs perfbench constructs itself (all but the sweep's internal ones).
  std::uint64_t ctl_events = 0;
  std::uint64_t ctl_timers = 0;
  std::uint64_t ctl_messages = 0;
  std::uint64_t ctl_bytes = 0;
  std::uint64_t ctl_decisions = 0;
  std::uint64_t attacker_dropped = 0;
  std::uint64_t attacker_delayed = 0;
  std::uint64_t attacker_modified = 0;
  std::uint64_t gossip_relayed = 0;
  std::uint64_t gossip_duplicates = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t timers_pending_max = 0;
  std::uint64_t in_flight_max = 0;
  double depth_sum = 0.0;
  std::uint64_t depth_samples = 0;
  /// Timeline samples whose in-flight count wrapped below zero: a sample
  /// taken between popping a cancelled timer and consuming its tombstone
  /// counts that tombstone against a queue that no longer holds it.
  std::uint64_t in_flight_wrapped = 0;
  std::vector<WorkloadStats> workloads;

  std::map<std::string, double> family_wall_s;  ///< sweep only
  double sweep_point_wall_s = 0.0;              ///< sweep only

  std::size_t rss_baseline = 0;
  std::size_t rss_peak = 0;
};

RunResult run_controller(const SimConfig& cfg, Spans& spans) {
  std::optional<Controller> controller;
  {
    auto s = spans.scope("sim.setup");
    controller.emplace(cfg);
  }
  RunResult result;
  {
    auto s = spans.scope("sim.run");
    result = controller->run();
  }
  {
    auto s = spans.scope("sim.teardown");
    controller.reset();
  }
  return result;
}

void account(const RunResult& r, Iteration& it) {
  it.ctl_events += r.events_processed;
  it.ctl_timers += r.timers_fired;
  it.ctl_messages += r.messages_sent;
  it.ctl_bytes += r.bytes_sent;
  it.ctl_decisions += r.decisions_target;
  it.attacker_dropped += r.attacker_dropped;
  it.attacker_delayed += r.attacker_delayed;
  it.attacker_modified += r.attacker_modified;
  it.gossip_relayed += r.gossip_relayed;
  it.gossip_duplicates += r.gossip_duplicates;
  for (const obs::TimelineSample& s : r.timeline) {
    it.max_depth = std::max(it.max_depth, s.queue_depth);
    it.timers_pending_max = std::max(it.timers_pending_max, s.timers_pending);
    if (s.in_flight_messages > s.queue_depth) {
      ++it.in_flight_wrapped;
    } else {
      it.in_flight_max = std::max(it.in_flight_max, s.in_flight_messages);
    }
    it.depth_sum += static_cast<double>(s.queue_depth);
    ++it.depth_samples;
  }
  if (r.workload.enabled) it.workloads.push_back(r.workload);
}

bool conserved(const WorkloadStats& wl) {
  return wl.submitted == wl.decided + wl.pending_end + wl.batched_undecided;
}

/// Safety (check_run_safety), and optionally termination and the
/// workload conservation identity, for one run.
void check_run(const RunResult& r, bool must_decide, const std::string& label,
               Spans& spans, Failures& failures) {
  SafetyReport safety;
  {
    auto s = spans.scope("validator.check");
    safety = check_run_safety(r);
  }
  std::string why;
  if (!safety.ok) {
    why = "safety: " + safety.diagnosis;
  } else if (must_decide &&
             r.termination_reason != TerminationReason::kDecided) {
    why = "ended " + std::string(to_string(r.termination_reason));
  } else if (r.workload.enabled && !conserved(r.workload)) {
    why = "workload conservation identity broken";
  }
  failures.check(why.empty(), label + ": " + why);
}

void run_single_iteration(const Workload& w, const Prepared& p, Spans& spans,
                          Iteration& it) {
  const std::vector<SimConfig>& configs = it.traced ? p.sampled : p.plain;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    RunResult r = run_controller(configs[i], spans);
    ++it.runs;
    it.events += r.events_processed;
    it.simulated_s += to_ms(r.termination_time) / 1e3;
    it.identities.push_back(run_identity(r));
    account(r, it);
    it.pending.push_back(PendingCheck{w.labels[i], true, std::move(r)});
  }
}

SweepOutcome run_sweep_iteration(const Workload& w, const Prepared& p,
                                 Spans& spans, Iteration& it) {
  SweepOutcome outcome;
  {
    auto s = spans.scope("runner.sweep");
    outcome = run_sweep_guarded(p.plain, w.repeats, w.jobs, Watchdog{},
                                w.labels);
  }
  for (std::size_t i = 0; i < outcome.points.size(); ++i) {
    const Aggregate& a = outcome.points[i].aggregate;
    const auto runs = static_cast<double>(a.runs);
    it.runs += a.runs;
    it.events += static_cast<std::uint64_t>(std::llround(a.events.mean * runs));
    it.simulated_s +=
        (a.latency_ms.mean * static_cast<double>(a.latency_ms.count) +
         static_cast<double>(a.timeouts) * p.plain[i].max_time_ms) /
        1e3;
    it.identities.push_back(aggregate_identity(a));
    it.family_wall_s[w.families[i]] += a.wall_seconds_total;
    it.sweep_point_wall_s += a.wall_seconds_total;
  }
  return outcome;
}

/// After the sweep's clock stops: its export, its failures, and each
/// point's first repeat again on a Controller perfbench owns, so it gets
/// the per-run safety check the aggregate cannot give. None of this is the
/// sweep's work, so none of it is in `wall_s`.
void finish_sweep_iteration(const Workload& w, const Prepared& p,
                            const Args& args, const SweepOutcome& outcome,
                            Spans& spans, Failures& failures, Iteration& it) {
  {
    auto s = spans.scope("runner.export");
    write_json_file(args.out_dir + "/sweep-outcome.json",
                    sweep_outcome_to_json(outcome));
  }
  failures.attempted += it.runs;
  for (const RunFailure& f : outcome.failures) {
    failures.check(false, f.label + ": threw: " + f.error);
  }
  auto s = spans.scope("recheck");
  const std::vector<SimConfig>& configs = it.traced ? p.sampled : p.plain;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    RunResult r = run_controller(configs[i], spans);
    it.identities.push_back(run_identity(r));
    account(r, it);
    it.pending.push_back(
        PendingCheck{w.labels[i] + "/repeat-0", false, std::move(r)});
  }
}

Iteration run_iteration(const Workload& w, const Prepared& p,
                        const Args& args, bool traced, int index, Spans& spans,
                        Failures& failures) {
  Iteration it;
  it.index = index;
  it.traced = traced;
  trim_heap();
  reset_peak_rss_or_throw();
  it.rss_baseline = current_rss_bytes();
  spans.set_enabled(traced);
  spans.set_iteration(index);
  SweepOutcome outcome;
  const auto start = Clock::now();
  {
    auto s = spans.scope("iteration");
    if (w.sweep) {
      outcome = run_sweep_iteration(w, p, spans, it);
    } else {
      run_single_iteration(w, p, spans, it);
    }
  }
  it.wall_s = seconds_since(start);
  it.rss_peak = peak_rss_bytes();
  if (w.sweep) finish_sweep_iteration(w, p, args, outcome, spans, failures, it);
  for (const PendingCheck& c : it.pending) {
    check_run(c.result, c.must_decide, c.label, spans, failures);
  }
  it.pending.clear();
  spans.set_enabled(false);
  spans.set_iteration(-1);
  return it;
}

/// Metrics in print order, each with its unit.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    json::Object m;
    m["value"] = value;
    m["unit"] = unit;
    metrics_[name] = json::Value{std::move(m)};
  }
  void count(const std::string& name, std::uint64_t value) {
    add(name, static_cast<double>(value), "count");
  }
  [[nodiscard]] json::Value to_json() const { return json::Value{metrics_}; }

 private:
  json::Object metrics_;
};

template <typename F>
double median_over(const std::vector<Iteration>& its, F f) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(static_cast<double>(f(it)));
  return summarize(std::move(v)).median;
}

std::size_t rss_growth(const Iteration& it) {
  return std::max(it.rss_peak, it.rss_baseline) - it.rss_baseline;
}

/// One run outside the iterations, with its Controller::run time and its
/// peak-RSS growth over a trimmed baseline.
struct ProbeRun {
  RunResult result;
  double run_s = 0.0;
  std::size_t rss_growth = 0;
};

ProbeRun probe_run(const SimConfig& cfg) {
  trim_heap();
  reset_peak_rss_or_throw();
  const std::size_t base = current_rss_bytes();
  std::optional<Controller> controller{std::in_place, cfg};
  const auto start = Clock::now();
  ProbeRun out{controller->run(), 0.0, 0};
  out.run_s = seconds_since(start);
  out.rss_growth = std::max(peak_rss_bytes(), base) - base;
  return out;
}

/// One iteration's wall time: the median over iterations. Host speed on a
/// shared machine wanders by ±20% over seconds to minutes; a median of
/// several iterations is steadier than the fastest one (measured: see
/// README.md, "Estimators").
double median_wall_s(const std::vector<Iteration>& its) {
  return median_over(its, [](const Iteration& it) { return it.wall_s; });
}

/// Everything a run measured, for the metric assembly below.
struct Measured {
  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  std::vector<double> setup_samples;
  double config_parse_s = 0.0;  ///< per set-up, from spans
};

void add_end_to_end(const Measured& m, MetricSet& metrics) {
  const Iteration& first = m.untraced.front();
  const double wall_s = median_wall_s(m.untraced);
  std::size_t peak = first.rss_peak;
  for (const Iteration& it : m.untraced) peak = std::min(peak, it.rss_peak);
  metrics.add("wall_s", wall_s, "s");
  metrics.add("setup_s", trimmed_mean(m.setup_samples), "s");
  metrics.add("events_per_s", static_cast<double>(first.events) / wall_s,
              "1/s");
  metrics.add("sim_speed", first.simulated_s / wall_s, "s/s");
  metrics.add("runs_per_s", static_cast<double>(first.runs) / wall_s, "1/s");
  metrics.add("peak_rss_mb", static_cast<double>(peak) / (1024.0 * 1024.0),
              "MiB");
}

/// The traced pass: span medians over traced iterations, then the layer
/// probes at the sizes this workload measured. Returns the median share
/// of an iteration's wall time covered by sim.setup + sim.run spans.
double add_per_layer(const Workload& w, const Prepared& prepared,
                     const Args& args, std::size_t nproc, const Measured& m,
                     Spans& spans, Failures& failures, MetricSet& metrics) {
  const std::vector<Iteration>& traced = m.traced;
  const Iteration& t = traced.front();
  auto per_it = [&](const char* span) {
    return median_over(traced, [&](const Iteration& it) {
      return spans.total_s(span, it.index);
    });
  };
  const double setup_s = per_it("sim.setup");
  const double run_s = per_it("sim.run");
  const double ctl_runs =
      std::max(1.0, static_cast<double>(spans.count("sim.setup", t.index)));
  const double events = std::max(1.0, static_cast<double>(t.ctl_events));
  const auto messages = static_cast<double>(t.ctl_messages);
  std::uint64_t max_n = 0;
  for (const SimConfig& c : prepared.plain) {
    max_n = std::max<std::uint64_t>(max_n, c.n);
  }

  const double hold_ns = perfbench::event_queue_hold_ns(
      std::max<std::uint64_t>(t.max_depth, 1), args.seed,
      args.smoke ? 100'000 : 1'000'000);
  const double delay_ns = perfbench::delay_sample_ns(
      prepared.plain.front().delay, args.seed, 2'000'000);

  // The trace sinks and reader are fed a recorded pbft-long trace at smoke
  // size, whichever workload is being measured.
  SimConfig recorded = SimConfig::from_json(json::parse(
      perfbench::make_workload("pbft-long", args.seed, /*smoke=*/true, nproc)
          .configs.front()));
  recorded.record_trace = true;
  recorded.record_views = false;
  const perfbench::TraceSinkProbe sinks = perfbench::trace_sink_probe(
      run_simulation(recorded).trace, args.out_dir);
  failures.check(sinks.round_trip_ok,
                 "trace sinks: a file does not read back to the recorded "
                 "fingerprint");

  // Windowed engine: the same configs under per-node RNG on
  // `windowed_lanes` lanes and on one lane, which must agree run for run.
  double windowed_run_s = 0.0;
  double one_lane_run_s = 0.0;
  std::uint64_t windowed_identical = 0;
  for (std::size_t i = 0; w.windowed_lanes > 0 && i < prepared.plain.size();
       ++i) {
    SimConfig lanes = prepared.plain[i];
    lanes.engine.rng = EngineConfig::RngMode::kPerNode;
    lanes.engine.intra_jobs = w.windowed_lanes;
    lanes.validate();
    SimConfig one_lane = lanes;
    one_lane.engine.intra_jobs = 1;
    const ProbeRun windowed = probe_run(lanes);
    const ProbeRun baseline = probe_run(one_lane);
    windowed_run_s += windowed.run_s;
    one_lane_run_s += baseline.run_s;
    std::uint64_t expected = run_identity(baseline.result);
    if (args.forge_mismatch && i == 0) expected ^= 1;
    const bool same = run_identity(windowed.result) == expected;
    windowed_identical += same ? 1 : 0;
    failures.check(same, w.labels[i] + ": windowed lanes differ from one "
                                       "per-node lane");
    check_run(windowed.result, true, w.labels[i] + "/windowed", spans,
              failures);
  }

  // Run-length slope: the same configs at half the decisions.
  double length_slope = 0.0;
  double rss_per_decision = 0.0;
  if (w.half_decisions > 0) {
    std::vector<double> half_run_s;
    std::vector<double> half_bytes;
    for (int k = 0; k < 3; ++k) {
      double run_total = 0.0;
      std::size_t bytes = 0;
      for (SimConfig cfg : prepared.plain) {
        cfg.decisions = w.half_decisions;
        const ProbeRun run = probe_run(cfg);
        run_total += run.run_s;
        bytes = std::max(bytes, run.rss_growth);
        check_run(run.result, true, "half-length", spans, failures);
      }
      half_run_s.push_back(run_total);
      half_bytes.push_back(static_cast<double>(bytes));
    }
    const std::uint32_t full = prepared.plain.front().decisions;
    length_slope = std::log2(run_s / summarize(half_run_s).median);
    rss_per_decision =
        (median_over(traced, rss_growth) - summarize(half_bytes).median) /
        static_cast<double>(full - w.half_decisions);
  }

  metrics.add("config.parse_s", m.config_parse_s, "s");
  metrics.add("sim.setup_s", setup_s, "s");
  metrics.add("sim.setup_ns_per_run", setup_s / ctl_runs * 1e9, "ns");
  metrics.add("sim.run_s", run_s, "s");
  metrics.add("sim.teardown_s", per_it("sim.teardown"), "s");
  metrics.add("sim.ns_per_event", run_s / events * 1e9, "ns");
  metrics.count("sim.events", t.ctl_events);
  metrics.count("sim.timers_fired", t.ctl_timers);
  metrics.add("sim.bytes_per_node",
              median_over(traced, rss_growth) / static_cast<double>(max_n),
              "B");
  metrics.add("sim.windowed.run_s", windowed_run_s, "s");
  metrics.add("sim.windowed.speedup",
              windowed_run_s > 0.0 ? one_lane_run_s / windowed_run_s : 0.0,
              "x");
  metrics.count("sim.windowed.identical", windowed_identical);
  metrics.count("core.event_queue.max_depth", t.max_depth);
  metrics.add("core.event_queue.mean_depth",
              t.depth_samples == 0
                  ? 0.0
                  : t.depth_sum / static_cast<double>(t.depth_samples),
              "count");
  metrics.count("core.event_queue.timers_pending_max", t.timers_pending_max);
  metrics.add("core.event_queue.hold_ns", hold_ns, "ns");
  metrics.add("net.delay_sample_ns", delay_ns, "ns");
  metrics.count("net.messages_sent", t.ctl_messages);
  metrics.add("net.bytes_sent", static_cast<double>(t.ctl_bytes), "B");
  metrics.add("net.messages_per_decision",
              messages / static_cast<double>(
                             std::max<std::uint64_t>(t.ctl_decisions, 1)),
              "count");
  metrics.count("net.in_flight_max", t.in_flight_max);
  metrics.add("protocols.residual_ns_per_event",
              (run_s * 1e9 - events * hold_ns - messages * delay_ns) / events,
              "ns");
  metrics.add("protocols.length_slope", length_slope, "log2");
  metrics.add("protocols.rss_per_decision_b", rss_per_decision, "B");

  const WorkloadStats wl =
      t.workloads.empty() ? WorkloadStats{} : t.workloads.front();
  const bool all_conserved =
      !t.workloads.empty() &&
      std::all_of(t.workloads.begin(), t.workloads.end(), conserved);
  metrics.count("workload.submitted", wl.submitted);
  metrics.count("workload.decided", wl.decided);
  metrics.count("workload.pending_end", wl.pending_end);
  metrics.add("workload.conserved", all_conserved ? 1.0 : 0.0, "flag");
  metrics.add("workload.p50_ms", wl.latency_p50_ms, "ms");
  metrics.add("workload.p99_ms", wl.latency_p99_ms, "ms");

  metrics.count("attacker.dropped", t.attacker_dropped);
  metrics.count("attacker.delayed", t.attacker_delayed);
  metrics.count("attacker.modified", t.attacker_modified);
  metrics.count("wan.gossip_relayed", t.gossip_relayed);
  metrics.count("wan.gossip_duplicates", t.gossip_duplicates);
  for (const std::string family :
       {"clean", "failstop", "partition", "add-attack", "crash", "wan"}) {
    metrics.add("paper-sweep.family." + family + ".wall_s",
                median_over(traced,
                            [&](const Iteration& it) {
                              const auto f = it.family_wall_s.find(family);
                              return f == it.family_wall_s.end() ? 0.0
                                                                 : f->second;
                            }),
                "s");
  }
  const double sweep_s = per_it("runner.sweep");
  const double point_wall_s = median_over(
      traced, [](const Iteration& it) { return it.sweep_point_wall_s; });
  metrics.add("runner.sweep_s", sweep_s, "s");
  metrics.add("runner.efficiency",
              sweep_s > 0.0
                  ? point_wall_s / (static_cast<double>(w.jobs) * sweep_s)
                  : 0.0,
              "ratio");
  metrics.add("runner.export_s", per_it("runner.export"), "s");
  metrics.add("validator.check_s", per_it("validator.check"), "s");
  metrics.count("obs.trace_records", sinks.records);
  metrics.add("obs.trace_sink.binary_ns_per_record",
              sinks.binary_ns_per_record, "ns");
  metrics.add("obs.trace_sink.jsonl_ns_per_record", sinks.jsonl_ns_per_record,
              "ns");
  metrics.add("obs.trace_reader.ns_per_record", sinks.reader_ns_per_record,
              "ns");
  metrics.add("trace.overhead", median_wall_s(traced) / median_wall_s(m.untraced),
              "ratio");
  return median_over(traced, [&](const Iteration& it) {
    return (spans.total_s("sim.setup", it.index) +
            spans.total_s("sim.run", it.index)) /
           it.wall_s;
  });
}

json::Value iteration_walls(const Measured& m, std::uint64_t* wrapped) {
  json::Array walls;
  for (const auto* pass : {&m.untraced, &m.traced}) {
    for (const Iteration& it : *pass) {
      json::Object o;
      o["index"] = it.index;
      o["traced"] = it.traced;
      o["wall_s"] = it.wall_s;
      walls.push_back(json::Value{std::move(o)});
      *wrapped += it.in_flight_wrapped;
    }
  }
  return json::Value{std::move(walls)};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (const std::string why = perfbench::instrumented_build_reason();
      !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why.c_str());
    return 3;
  }
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());

  try {
    std::filesystem::create_directories(args.out_dir);
    const Workload w =
        perfbench::make_workload(args.workload, args.seed, args.smoke, nproc);
    Spans spans;
    Failures failures;
    Measured m;

    // --- set-up, repeated ------------------------------------------------
    Prepared prepared;
    prepared.plain =
        repeat_prepare(w, spans, kSetupRepeats, kSetupSeconds,
                       args.trace ? kSetupRepeats : 0, m.setup_samples);
    m.config_parse_s =
        (spans.total_s("config.parse") + spans.total_s("config.validate")) /
        kSetupRepeats;
    prepared.sampled = sampled(prepared.plain, w.timeline_tick_ms);

    // --- the timed loop --------------------------------------------------
    std::vector<std::uint64_t> reference;
    const auto loop_start = Clock::now();
    for (int index = 0;; ++index) {
      const bool traced_pass = args.trace && index % 2 == 1;
      Iteration it = run_iteration(w, prepared, args, traced_pass, index,
                                   spans, failures);
      if (reference.empty()) {
        reference = it.identities;
        if (args.forge_mismatch && !reference.empty()) reference[0] ^= 1;
      } else {
        for (std::size_t i = 0; i < it.identities.size(); ++i) {
          failures.check(
              i < reference.size() && it.identities[i] == reference[i],
              "iteration " + std::to_string(index) + " run " +
                  std::to_string(i) + ": identity differs from the first "
                  "iteration");
        }
      }
      // A traced run compares the two passes, so its first iteration only
      // warms caches and allocator arenas and sets the reference identities.
      if (!args.trace || index > 0) {
        (traced_pass ? m.traced : m.untraced).push_back(std::move(it));
      }
      repeat_prepare(w, spans, 1, kSetupBurstSeconds, 0, m.setup_samples);
      const bool enough =
          args.trace ? m.untraced.size() >= kMinTracedIterations &&
                           m.traced.size() >= kMinTracedIterations
                     : m.untraced.size() >= kMinIterations;
      const double elapsed = seconds_since(loop_start);
      if (enough && elapsed + elapsed / (index + 1) > args.seconds) break;
    }

    MetricSet metrics;
    json::Object details;
    details["workload"] = w.name;
    details["seed"] = static_cast<std::int64_t>(args.seed);
    details["smoke"] = args.smoke;
    details["machine"] = perfbench::machine_record(nproc);
    details["runs_per_iteration"] =
        static_cast<std::int64_t>(m.untraced.front().runs);
    details["events_per_iteration"] =
        static_cast<std::int64_t>(m.untraced.front().events);
    std::uint64_t wrapped = 0;
    details["iterations"] = iteration_walls(m, &wrapped);
    details["timeline_in_flight_wrapped"] = static_cast<std::int64_t>(wrapped);

    if (args.trace) {
      details["coverage"] = add_per_layer(w, prepared, args, nproc, m, spans,
                                          failures, metrics);
      json::Object header;
      header["details"] = json::Value{details};
      spans.write_json(args.out_dir + "/spans-" + w.name + "-seed" +
                           std::to_string(args.seed) + ".json",
                       json::Value{std::move(header)});
    } else {
      add_end_to_end(m, metrics);
    }

    const double failed_frac = static_cast<double>(failures.failed) /
                               static_cast<double>(failures.attempted);
    if (args.trace) metrics.add("failed_frac", failed_frac, "ratio");
    json::Array reasons;
    for (const std::string& r : failures.reasons) {
      reasons.push_back(json::Value{r});
    }
    details["failures"] = json::Value{std::move(reasons)};
    details["failed_frac"] = failed_frac;
    std::printf("%s\n", json::Value{std::move(details)}.dump().c_str());

    json::Object out;
    out["correct"] = failures.failed == 0;
    out["attempted"] = static_cast<std::int64_t>(failures.attempted);
    out["failed"] = static_cast<std::int64_t>(failures.failed);
    out["metrics"] = metrics.to_json();
    std::printf("%s\n", json::Value{std::move(out)}.dump().c_str());
    std::fflush(stdout);
    return failures.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
