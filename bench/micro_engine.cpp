// Micro-benchmarks of the simulation engine (google-benchmark): event
// queue throughput, RNG sampling, and end-to-end runs per engine — the raw
// numbers behind the simulator's Fig. 2 speed — plus an n-scaling curve
// (events/sec and resident bytes/node at n up to 8192; see
// docs/SCALING.md), the windowed intra-run speedup, the layer ladder (one
// fixed pbft workload with one layer added per rung: attacker hook, WAN
// backend pieces, client workloads) and the run-length curve, all written
// to a JSON file (default micro_engine.json; --json PATH to move,
// --intra-jobs N to size the windowed-parallel driver, --repeats N runs
// per timed side, --skip-micro to run only the measurements,
// --skip-scaling to omit the curve, --skip-intra to omit the windowed
// intra-run speedup, --skip-run-length to omit the run-length curve,
// --only-scaling to record just the curve). Every record carries the
// actual hardware thread count so bench_gate can refuse cross-machine
// comparisons.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "baseline/baseline.hpp"
#include "bench_common.hpp"
#include "cli_args.hpp"
#include "core/event_queue.hpp"
#include "core/memstats.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "core/json.hpp"
#include "net/delay_model.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace bftsim;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  for (auto _ : state) {
    EventQueue queue;
    for (std::size_t i = 0; i < batch; ++i) {
      queue.push(static_cast<Time>(rng.next_below(1'000'000)),
                 TimerFire{TimerOwner::kNode, 0, i, 0});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1'000)->Arg(100'000);

/// The queue under hotstuff-ns's pacemaker pattern: k broadcast runs of 64
/// copies in flight (a new one queued each 64 deliveries) and n view
/// timers of one fixed delay, one of which is cancelled and re-armed per
/// pop, so tombstones stay queued until their fire time. Items are pops;
/// each iteration fills a fresh queue and pops kPops events.
void BM_EventQueueRunsAndTimers(benchmark::State& state) {
  const auto runs = static_cast<std::size_t>(state.range(0));
  const auto timers = static_cast<std::size_t>(state.range(1));
  constexpr std::uint32_t kCopies = 64;
  constexpr std::size_t kPops = 1 << 18;
  const Time timeout = from_ms(1000.0);
  Rng rng{3};
  DelaySampler sampler{DelaySpec::normal(250, 50)};
  // Delays are drawn up front so the timed loop holds only queue work.
  std::vector<std::uint32_t> delays(4096);
  for (std::uint32_t& d : delays) {
    d = static_cast<std::uint32_t>(std::max<Time>(0, sampler.sample(rng)));
  }
  std::vector<RunEntry> build;
  std::vector<TimerId> armed(timers);
  for (auto _ : state) {
    EventQueue queue;
    Time now = 0;
    std::size_t next_delay = 0;
    TimerId next_id = 1;
    const auto broadcast = [&](NodeId sender) {
      for (std::uint32_t pos = 0; pos < kCopies; ++pos) {
        build.push_back({delays[next_delay++ % delays.size()], pos});
      }
      queue.push_run({now, queue.draw_seqs(kCopies), 0, sender}, build);
    };
    const auto arm = [&](std::size_t slot, Time at) {
      armed[slot] = next_id;
      queue.push(at, TimerFire{TimerOwner::kNode, static_cast<NodeId>(slot),
                               next_id++, 0});
    };
    for (std::size_t i = 0; i < runs; ++i) {
      broadcast(static_cast<NodeId>(i % kCopies));
    }
    for (std::size_t i = 0; i < timers; ++i) {
      arm(i, timeout * static_cast<Time>(i + 1) / static_cast<Time>(timers));
    }
    std::size_t delivered = 0;
    for (std::size_t pop = 0; pop < kPops; ++pop) {
      const Event ev = queue.pop();
      now = ev.at;
      if (const auto* fire = std::get_if<TimerFire>(&ev.body)) {
        if (!queue.consume_cancellation(fire->timer)) {
          arm(fire->node, now + timeout);
        }
      } else if (++delivered % kCopies == 0) {
        broadcast(static_cast<NodeId>(delivered / kCopies % kCopies));
      }
      const std::size_t slot = pop % timers;
      (void)queue.cancel_timer(armed[slot]);
      arm(slot, now + timeout);
    }
    benchmark::DoNotOptimize(queue.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPops));
}
BENCHMARK(BM_EventQueueRunsAndTimers)->Args({16, 1024})->Args({256, 4096});

void BM_RngNormalSample(benchmark::State& state) {
  Rng rng{2};
  DelaySampler sampler{DelaySpec::normal(250, 50)};
  for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(rng));
}
BENCHMARK(BM_RngNormalSample);

void BM_SimulatePbft(benchmark::State& state) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = static_cast<std::uint32_t>(state.range(0));
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    cfg.seed = seed++;
    const RunResult result = run_simulation(cfg);
    events += result.events_processed;
    benchmark::DoNotOptimize(result.terminated);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("events/s");
}
BENCHMARK(BM_SimulatePbft)->Arg(16)->Arg(64)->Arg(256);

void BM_SimulateHotStuffTenDecisions(benchmark::State& state) {
  SimConfig cfg;
  cfg.protocol = "hotstuff-ns";
  cfg.n = 16;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.decisions = 10;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(run_simulation(cfg).terminated);
  }
}
BENCHMARK(BM_SimulateHotStuffTenDecisions);

void BM_SimulatePbftPacketLevel(benchmark::State& state) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = static_cast<std::uint32_t>(state.range(0));
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(
        baseline::run_baseline_simulation(cfg).terminated);
  }
}
BENCHMARK(BM_SimulatePbftPacketLevel)->Arg(16)->Arg(32);

void BM_RunRepeatedParallel(benchmark::State& state) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 32;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_repeated(cfg, 16, jobs).runs);
  }
}
BENCHMARK(BM_RunRepeatedParallel)->Arg(1)->Arg(2)->Arg(4);

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Measures the n-scaling curve per (protocol, n) point: engine
/// throughput (events/sec; a point whose run takes under kMinTimedSeconds
/// is re-run and timed by its median run) and the per-node resident memory
/// cost of its first run. Memory attribution: trim the heap and take an RSS
/// baseline, reset the kernel's peak-RSS watermark, run, and charge the
/// peak-minus-baseline delta to the run (bytes_per_node = delta / n).
/// Decision counts shrink with n so every point costs bounded wall time —
/// PBFT's message complexity is quadratic, so one decision at n=4096 is
/// already ~28M events. Points run in increasing-footprint order so a big
/// point's freed-but-cached pages cannot pollute a smaller point's
/// baseline. The record carries its own hardware_threads, like the intra
/// and run-length records.
json::Value measure_scaling_curve() {
  constexpr double kMinTimedSeconds = 0.1;
  constexpr std::size_t kMinShortRuns = 5;
  struct Point {
    const char* protocol;
    std::uint32_t n;
    std::uint32_t decisions;
  };
  const Point points[] = {
      {"hotstuff-ns", 64, 100},  {"hotstuff-ns", 256, 50},
      {"hotstuff-ns", 1024, 20}, {"hotstuff-ns", 4096, 10},
      {"hotstuff-ns", 8192, 10}, {"pbft", 64, 10},
      {"pbft", 256, 4},          {"pbft", 1024, 1},
      {"pbft", 4096, 1},
  };

  std::printf("\n--- n-scaling curve (one run per point; median of >= %zu "
              "under %.1f s) ---\n",
              kMinShortRuns, kMinTimedSeconds);
  json::Array rows;
  for (const Point& p : points) {
    SimConfig cfg;
    cfg.protocol = p.protocol;
    cfg.n = p.n;
    cfg.lambda_ms = 1000;
    cfg.delay = DelaySpec::normal(250, 50);
    cfg.decisions = p.decisions;
    cfg.seed = 1;

    trim_heap();
    const std::size_t baseline_rss = current_rss_bytes();
    // When the watermark cannot be reset (locked-down /proc), fall back to
    // the post-run RSS: slightly below the true peak, but still a usable
    // per-point figure rather than a whole-process high-water mark.
    const bool peak_reset = reset_peak_rss();

    const auto start = std::chrono::steady_clock::now();
    const RunResult result = run_simulation(cfg);
    const double seconds = seconds_since(start);

    const std::size_t after_rss =
        peak_reset ? peak_rss_bytes() : current_rss_bytes();
    const std::size_t rss_delta =
        after_rss > baseline_rss ? after_rss - baseline_rss : 0;
    const double bytes_per_node =
        static_cast<double>(rss_delta) / static_cast<double>(p.n);

    // A short point is re-run until it has kMinShortRuns runs and
    // kMinTimedSeconds in all, and timed by its median run: one
    // tens-of-milliseconds shot swings with the host. Every run is the same
    // seed, so the event count does not change.
    std::vector<double> walls{seconds};
    double total = seconds;
    while (seconds < kMinTimedSeconds &&
           (walls.size() < kMinShortRuns || total < kMinTimedSeconds)) {
      const auto again = std::chrono::steady_clock::now();
      (void)run_simulation(cfg);
      walls.push_back(seconds_since(again));
      total += walls.back();
    }
    const double wall = summarize(walls).median;
    const double events =
        static_cast<double>(result.events_processed);
    const double events_per_sec = wall > 0.0 ? events / wall : 0.0;

    std::printf("%-12s n=%-5u %10.0f events in %7.3f s -> %10.0f events/s, "
                "%8.0f bytes/node%s\n",
                p.protocol, p.n, events, wall, events_per_sec,
                bytes_per_node, result.terminated ? "" : "  [DID NOT DECIDE]");

    json::Object row;
    row["protocol"] = p.protocol;
    row["n"] = static_cast<std::int64_t>(p.n);
    row["decisions"] = static_cast<std::int64_t>(p.decisions);
    row["terminated"] = result.terminated;
    row["events_processed"] = events;
    row["wall_seconds"] = wall;
    row["events_per_sec"] = events_per_sec;
    row["baseline_rss_bytes"] = static_cast<std::int64_t>(baseline_rss);
    row["peak_rss_bytes"] = static_cast<std::int64_t>(after_rss);
    row["peak_reset_supported"] = peak_reset;
    row["rss_delta_bytes"] = static_cast<std::int64_t>(rss_delta);
    row["bytes_per_node"] = bytes_per_node;
    rows.push_back(json::Value{std::move(row)});
  }
  json::Object o;
  o["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  o["points"] = json::Value{std::move(rows)};
  return json::Value{std::move(o)};
}

/// Measures the run-length curve: pbft, hotstuff-ns and tendermint at
/// n=16 for 1k and 4k decisions. Wall time: each pair times four 1k runs
/// and one 4k run back to back, alternating which goes first, so both
/// sides span about the same host time and speed drift hits them alike.
/// Per point the record keeps the median, fastest and slowest per-run wall
/// time and the spread ((max - min) / median); per protocol, wall_ratio is
/// the median over pairs of wall(4k) / wall(1k) (~4 when a decision costs
/// the same however long the run is), with its fastest and slowest pair.
/// Memory: one more run per point is charged its peak-minus-baseline RSS
/// the same way as a scaling point, and rss_per_decision_b is the growth
/// per extra decision between the two lengths. tools/bench_gate checks
/// both (docs/SCALING.md, "Long runs").
json::Value measure_run_length() {
  constexpr std::size_t kPairs = 7;
  constexpr std::uint32_t kLengths[] = {1000, 4000};
  constexpr int kShortRuns = kLengths[1] / kLengths[0];
  const char* const protocols[] = {"pbft", "hotstuff-ns", "tendermint"};

  std::printf("\n--- run-length curve (n=16, %zu pairs of runs) ---\n", kPairs);
  json::Array points;
  json::Array slopes;
  for (const char* protocol : protocols) {
    SimConfig cfg;
    cfg.protocol = protocol;
    cfg.n = 16;
    cfg.lambda_ms = 1000;
    cfg.delay = DelaySpec::normal(250, 50);
    cfg.max_time_ms = 1e9;  // the default 600 s horizon ends pbft near d=800
    cfg.seed = 1;

    bool terminated[2] = {true, true};
    std::uint64_t events[2] = {0, 0};
    const auto timed = [&](int i, int runs) {
      cfg.decisions = kLengths[i];
      const auto start = std::chrono::steady_clock::now();
      for (int k = 0; k < runs; ++k) {
        const RunResult result = run_simulation(cfg);
        terminated[i] = terminated[i] && result.terminated;
        events[i] = result.events_processed;
      }
      return seconds_since(start) / runs;
    };
    std::vector<double> walls[2];
    std::vector<double> ratios;
    for (std::size_t r = 0; r < kPairs; ++r) {
      const bool short_first = r % 2 == 0;
      const double first = short_first ? timed(0, kShortRuns) : timed(1, 1);
      const double second = short_first ? timed(1, 1) : timed(0, kShortRuns);
      walls[0].push_back(short_first ? first : second);
      walls[1].push_back(short_first ? second : first);
      ratios.push_back(walls[1].back() / walls[0].back());
    }

    double rss[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      cfg.decisions = kLengths[i];
      trim_heap();
      const std::size_t baseline_rss = current_rss_bytes();
      const bool peak_reset = reset_peak_rss();
      (void)run_simulation(cfg);
      const std::size_t after_rss =
          peak_reset ? peak_rss_bytes() : current_rss_bytes();
      rss[i] = after_rss > baseline_rss
                   ? static_cast<double>(after_rss - baseline_rss)
                   : 0.0;

      const Summary wall = summarize(walls[i]);
      const double spread =
          wall.median > 0.0 ? (wall.max - wall.min) / wall.median : 0.0;
      std::printf("%-12s d=%-5u %9llu events, wall %7.3f s (spread %.2f), "
                  "rss %6.1f MiB%s\n",
                  protocol, kLengths[i],
                  static_cast<unsigned long long>(events[i]), wall.median,
                  spread, rss[i] / (1024.0 * 1024.0),
                  terminated[i] ? "" : "  [DID NOT DECIDE]");

      json::Object row;
      row["protocol"] = protocol;
      row["n"] = static_cast<std::int64_t>(cfg.n);
      row["decisions"] = static_cast<std::int64_t>(kLengths[i]);
      row["terminated"] = terminated[i];
      row["events_processed"] = static_cast<double>(events[i]);
      row["wall_seconds"] = wall.median;
      row["wall_min"] = wall.min;
      row["wall_max"] = wall.max;
      row["wall_spread"] = spread;
      row["rss_delta_bytes"] = rss[i];
      points.push_back(json::Value{std::move(row)});
    }
    const Summary ratio = summarize(ratios);
    const double per_decision =
        (rss[1] - rss[0]) / static_cast<double>(kLengths[1] - kLengths[0]);
    std::printf("%-12s wall(4k)/wall(1k) %.2f (pairs %.2f-%.2f), %.0f "
                "B/decision\n",
                protocol, ratio.median, ratio.min, ratio.max, per_decision);
    json::Object slope;
    slope["protocol"] = protocol;
    slope["wall_ratio"] = ratio.median;
    slope["wall_ratio_min"] = ratio.min;
    slope["wall_ratio_max"] = ratio.max;
    slope["rss_per_decision_b"] = per_decision;
    slopes.push_back(json::Value{std::move(slope)});
  }
  json::Object o;
  o["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  o["pairs"] = static_cast<std::int64_t>(kPairs);
  o["points"] = json::Value{std::move(points)};
  o["protocols"] = json::Value{std::move(slopes)};
  return json::Value{std::move(o)};
}

/// Times the windowed-parallel driver against its own serial baseline
/// (engine.rng = "per_node", intra_jobs = 1) on large single runs. Both
/// modes execute the identical per-node-RNG semantics, so the results must be
/// bit-identical; speedup tracks the machine (~1x on one core), so the
/// record carries its own hardware_threads. Each workload runs kPairs
/// alternating serial/parallel pairs; the row reports the median pair
/// speedup with its min and max. See docs/PARALLELISM.md.
json::Value measure_intra_speedup(std::uint32_t intra_jobs) {
  struct Workload {
    const char* protocol;
    std::uint32_t n;
    std::uint32_t decisions;
  };
  const Workload workloads[] = {
      {"pbft", 4096, 1},
      {"hotstuff-ns", 4096, 10},
  };
  constexpr int kPairs = 3;

  std::printf(
      "\n--- windowed intra-run speedup (single run, intra_jobs=%u, %d "
      "pairs) ---\n",
      intra_jobs, kPairs);
  json::Array rows;
  for (const Workload& w : workloads) {
    SimConfig cfg;
    cfg.protocol = w.protocol;
    cfg.n = w.n;
    cfg.lambda_ms = 1000;
    cfg.delay = DelaySpec::normal(250, 50);
    cfg.decisions = w.decisions;
    cfg.seed = 1;
    cfg.engine.rng = EngineConfig::RngMode::kPerNode;

    std::vector<double> serial_walls;
    std::vector<double> parallel_walls;
    std::vector<double> speedups;
    bool identical = true;
    std::uint64_t events = 0;
    obs::ProfileBreakdown windows;
    for (int pair = 0; pair < kPairs; ++pair) {
      cfg.engine.intra_jobs = 1;
      const auto serial_start = std::chrono::steady_clock::now();
      const RunResult serial = run_simulation(cfg);
      serial_walls.push_back(seconds_since(serial_start));

      cfg.engine.intra_jobs = intra_jobs;
      const auto parallel_start = std::chrono::steady_clock::now();
      const RunResult parallel = run_simulation(cfg);
      parallel_walls.push_back(seconds_since(parallel_start));

      identical = identical &&
                  serial.events_processed == parallel.events_processed &&
                  serial.messages_sent == parallel.messages_sent &&
                  serial.messages_delivered == parallel.messages_delivered &&
                  serial.termination_time == parallel.termination_time &&
                  serial.decisions.size() == parallel.decisions.size();
      speedups.push_back(parallel_walls.back() > 0.0
                             ? serial_walls.back() / parallel_walls.back()
                             : 0.0);
      events = serial.events_processed;
      windows = parallel.profile;
    }
    const Summary speedup = summarize(speedups);
    const double serial_seconds = summarize(serial_walls).median;
    const double parallel_seconds = summarize(parallel_walls).median;
    std::printf("%-12s n=%-5u serial %7.3f s, intra_jobs=%u %7.3f s -> "
                "%.2fx (pairs %.2f-%.2f), windows %llu parallel / %llu "
                "inline%s\n",
                w.protocol, w.n, serial_seconds, intra_jobs, parallel_seconds,
                speedup.median, speedup.min, speedup.max,
                static_cast<unsigned long long>(windows.windows_parallel),
                static_cast<unsigned long long>(windows.windows_inline),
                identical ? "" : "  [RESULTS DIVERGE — bug]");

    json::Object row;
    row["protocol"] = w.protocol;
    row["n"] = static_cast<std::int64_t>(w.n);
    row["decisions"] = static_cast<std::int64_t>(w.decisions);
    row["events_processed"] = static_cast<double>(events);
    row["serial_seconds"] = serial_seconds;
    row["parallel_seconds"] = parallel_seconds;
    row["speedup"] = speedup.median;
    row["speedup_min"] = speedup.min;
    row["speedup_max"] = speedup.max;
    row["identical"] = identical;
    row["windows_parallel"] = static_cast<double>(windows.windows_parallel);
    row["windows_inline"] = static_cast<double>(windows.windows_inline);
    rows.push_back(json::Value{std::move(row)});
  }
  json::Object o;
  o["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  o["intra_jobs"] = static_cast<std::int64_t>(intra_jobs);
  o["pairs"] = static_cast<std::int64_t>(kPairs);
  o["workloads"] = json::Value{std::move(rows)};
  return json::Value{std::move(o)};
}

/// One rung of the layer ladder: the ladder's base workload plus one layer,
/// given as the config keys the layer sets (SimConfig JSON).
struct Rung {
  const char* name;
  const char* layer;
};

/// Each rung adds exactly one layer to the base, so a rung's cost over
/// the base is that layer's cost. The workload rungs need the base's ten
/// decisions: a single-decision pbft run mints its only fresh proposal at
/// t=0, before any open-loop request has arrived.
constexpr Rung kRungs[] = {
    {"base", "{}"},
    // A registered no-op attack whose type filter matches nothing: every
    // unicast now traverses attack() through the envelope slow path.
    {"attacker-hook",
     R"({"attack": "delay-schedule",
         "attack_params": {"type": "bench/none"}})"},
    {"wan-matrix", R"({"net": {"rtt": {"matrix": "geo8"}}})"},
    {"wan-bandwidth", R"({"net": {"uplink_mbps": 200, "downlink_mbps": 200}})"},
    {"wan-gossip", R"({"net": {"backend": "gossip", "fanout": 3}})"},
    {"workload-open-poisson",
     R"({"workload": {"rate_rps": 500, "max_batch": 16}})"},
    {"workload-open-fixed",
     R"({"workload": {"arrival": "fixed", "rate_rps": 500, "max_batch": 16,
                      "max_wait_ms": 50}})"},
    {"workload-closed",
     R"({"workload": {"mode": "closed", "clients": 200, "window": 2,
                      "think_ms": 10, "max_batch": 16}})"},
};

/// `repeats` serial runs of one config, timed as one block.
struct TimedRuns {
  Aggregate aggregate;
  double events_per_sec = 0.0;
};

TimedRuns time_runs(const SimConfig& cfg, std::size_t repeats) {
  const auto start = std::chrono::steady_clock::now();
  TimedRuns t{run_repeated(cfg, repeats)};
  const double seconds = seconds_since(start);
  const double events =
      t.aggregate.events.mean * static_cast<double>(t.aggregate.runs);
  t.events_per_sec = seconds > 0.0 ? events / seconds : 0.0;
  return t;
}

/// Measures the layer ladder: every rung against the base workload (pbft,
/// n=32, lambda 1000, N(250,50), 10 decisions, seed 1) in kPairs
/// alternating pairs, each side `repeats` serial runs; the base side goes
/// first in even pairs and the rung side in odd ones, so host speed drift
/// hits both alike. Per rung the row keeps relative_throughput, the
/// median over pairs of rung events/sec over base events/sec (a per-event
/// cost ratio, so it transfers across machines where raw events/sec does
/// not), with its slowest and fastest pair; deterministic, whether the
/// rung's aggregate was equivalent() in every pair (a layer's randomness
/// comes off the run seed, never the wall clock); and same_as_base,
/// whether it was equivalent() to the base's (a layer that may cost time
/// but never change semantics, like the no-op attack, keeps this true).
/// The base row also records the median events/sec over every base-side
/// timing of the ladder. tools/bench_gate gates every row by one rule.
json::Value measure_ladder(std::size_t repeats) {
  constexpr std::size_t kPairs = 7;
  SimConfig base;
  base.protocol = "pbft";
  base.n = 32;
  base.lambda_ms = 1000;
  base.delay = DelaySpec::normal(250, 50);
  base.decisions = 10;
  base.seed = 1;

  std::printf("\n--- layer ladder (pbft, n=32, 10 decisions, %zu pairs of "
              "%zu runs) ---\n",
              kPairs, repeats);
  (void)run_repeated(base, 2);  // warm-up outside the timed region
  std::vector<double> base_eps;
  json::Array rows;
  for (const Rung& rung : kRungs) {
    const json::Value layer = json::parse(rung.layer);
    json::Value doc = base.to_json();
    for (const auto& [key, value] : layer.as_object()) {
      doc.as_object()[key] = value;
    }
    const SimConfig cfg = SimConfig::from_json(doc);
    (void)run_repeated(cfg, 2);

    std::vector<double> ratios;
    bool deterministic = true;
    bool same_as_base = true;
    Aggregate first;
    for (std::size_t pair = 0; pair < kPairs; ++pair) {
      const bool base_first = pair % 2 == 0;
      const TimedRuns a = time_runs(base_first ? base : cfg, repeats);
      const TimedRuns b = time_runs(base_first ? cfg : base, repeats);
      const TimedRuns& on_base = base_first ? a : b;
      const TimedRuns& on_rung = base_first ? b : a;
      base_eps.push_back(on_base.events_per_sec);
      ratios.push_back(on_base.events_per_sec > 0.0
                           ? on_rung.events_per_sec / on_base.events_per_sec
                           : 0.0);
      if (pair == 0) first = on_rung.aggregate;
      deterministic = deterministic && equivalent(on_rung.aggregate, first);
      same_as_base =
          same_as_base && equivalent(on_rung.aggregate, on_base.aggregate);
    }
    const Summary ratio = summarize(ratios);
    std::printf("%-22s %8.0f events/run, %.2fx base (pairs %.2f-%.2f)%s%s\n",
                rung.name, first.events.mean, ratio.median, ratio.min,
                ratio.max, same_as_base ? ", same as base" : "",
                deterministic ? "" : "  [NONDETERMINISTIC — bug]");

    json::Object row;
    row["rung"] = rung.name;
    row["layer"] = layer;
    row["events_per_run"] = first.events.mean;
    row["relative_throughput"] = ratio.median;
    row["relative_throughput_min"] = ratio.min;
    row["relative_throughput_max"] = ratio.max;
    row["deterministic"] = deterministic;
    row["same_as_base"] = same_as_base;
    rows.push_back(json::Value{std::move(row)});
  }
  const double base_median = summarize(base_eps).median;
  rows.front().as_object()["events_per_sec"] = base_median;
  std::printf("base: %.0f events/s (median of %zu timings)\n", base_median,
              base_eps.size());

  json::Object o;
  o["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  o["base"] = base.to_json();
  o["repeats"] = static_cast<std::int64_t>(repeats);
  o["pairs"] = static_cast<std::int64_t>(kPairs);
  o["rungs"] = json::Value{std::move(rows)};
  return json::Value{std::move(o)};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "micro_engine.json";
  std::uint32_t intra_jobs = 8;
  std::size_t repeats = 64;
  bool run_micro = true;
  bool run_scaling = true;
  bool run_intra = true;
  bool run_run_length = true;
  bool only_scaling = false;

  // Strip our flags before handing argv to google-benchmark.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--intra-jobs") == 0 && i + 1 < argc) {
      intra_jobs = static_cast<std::uint32_t>(cli::arg<std::uint64_t>(
          "micro_engine", "--intra-jobs", argv[++i], 0, cli::kMaxJobs));
    } else if (std::strcmp(argv[i], "--skip-intra") == 0) {
      run_intra = false;
    } else if (std::strcmp(argv[i], "--skip-run-length") == 0) {
      run_run_length = false;
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = cli::arg<std::uint64_t>("micro_engine", "--repeats",
                                        argv[++i], 1, 1'000'000);
    } else if (std::strcmp(argv[i], "--skip-micro") == 0) {
      run_micro = false;
    } else if (std::strcmp(argv[i], "--skip-scaling") == 0) {
      run_scaling = false;
    } else if (std::strcmp(argv[i], "--only-scaling") == 0) {
      only_scaling = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (intra_jobs == 0) {
    intra_jobs =
        static_cast<std::uint32_t>(bftsim::ThreadPool::default_workers());
  }
  bench::require_writable(json_path);

  if (only_scaling) {
    json::Object o;
    o["bench"] = "micro_engine";
    o["hardware_threads"] =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    o["scaling"] = measure_scaling_curve();
    write_json_file(json_path, json::Value{std::move(o)});
    std::printf("[scaling curve written to %s]\n", json_path.c_str());
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (run_micro) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  json::Object o;
  o["bench"] = "micro_engine";
  o["repeats"] = static_cast<std::int64_t>(repeats);
  o["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  o["intra_jobs"] = static_cast<std::int64_t>(intra_jobs);
  if (run_scaling) o["scaling"] = measure_scaling_curve();
  if (run_intra) o["intra_speedup"] = measure_intra_speedup(intra_jobs);
  o["ladder"] = measure_ladder(repeats);
  if (run_run_length) o["run_length"] = measure_run_length();
  write_json_file(json_path, json::Value{std::move(o)});
  std::printf("[records written to %s]\n", json_path.c_str());
  return 0;
}
