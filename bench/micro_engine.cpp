// Micro-benchmarks of the simulation engine (google-benchmark): event
// queue throughput, RNG sampling, and end-to-end runs per engine — the raw
// numbers behind the simulator's Fig. 2 speed — plus a serial-vs-parallel
// experiment-runner comparison and an n-scaling curve (events/sec and
// resident bytes/node at n up to 8192; see docs/SCALING.md), all written
// to a JSON file (default micro_engine.json; --json PATH to move, --jobs N
// to size the pool, --intra-jobs N to size the windowed-parallel driver,
// --skip-micro to run only the measurements, --skip-scaling to omit the
// curve, --skip-intra to omit the windowed intra-run speedup,
// --skip-attacker to omit the attacker-hook overhead record,
// --skip-wan to omit the WAN-backend vs direct-broadcast record,
// --skip-workload to omit the client-workload-generator record,
// --skip-run-length to omit the run-length curve,
// --only-scaling to record just the curve). Every record carries the
// actual hardware thread count so bench_gate can refuse cross-machine
// comparisons.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "baseline/baseline.hpp"
#include "bench_common.hpp"
#include "core/event_queue.hpp"
#include "core/memstats.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "core/json.hpp"
#include "net/delay_model.hpp"
#include "net/wan/wan_spec.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"
#include "workload/workload_spec.hpp"

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
    benchmark::DoNotOptimize(run_repeated_parallel(cfg, 16, jobs).runs);
  }
}
BENCHMARK(BM_RunRepeatedParallel)->Arg(1)->Arg(2)->Arg(4);

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Measures single-run engine throughput (events/sec) on fixed HotStuff
/// and PBFT workloads at n ∈ {16, 64, 128}. This is the series behind
/// BENCH_engine.json: run it before and after an engine change on the
/// same machine and compare events_per_sec per workload (the aggregates
/// must stay `equivalent()` — any difference is an ordering bug, not an
/// optimization).
json::Value measure_engine_throughput() {
  struct Workload {
    const char* protocol;
    std::uint32_t n;
    std::uint32_t decisions;
    std::size_t repeats;
  };
  // Repeats shrink with n so every row costs roughly the same wall time.
  // HotStuff (linear message complexity) runs 100 pipelined decisions per
  // run so the hot path dominates per-run setup; PBFT (quadratic) already
  // produces large event counts at 10.
  // Repeat counts keep every row at hundreds of ms so one timer tick or
  // scheduler hiccup cannot dominate the events/sec figure.
  const Workload workloads[] = {
      {"hotstuff-ns", 16, 100, 64}, {"hotstuff-ns", 64, 100, 32},
      {"hotstuff-ns", 128, 100, 16}, {"pbft", 16, 10, 96},
      {"pbft", 64, 10, 16},          {"pbft", 128, 10, 6},
  };

  std::printf("\n--- engine throughput (events/sec, serial run_repeated) ---\n");
  json::Array rows;
  for (const Workload& w : workloads) {
    SimConfig cfg;
    cfg.protocol = w.protocol;
    cfg.n = w.n;
    cfg.lambda_ms = 1000;
    cfg.delay = DelaySpec::normal(250, 50);
    cfg.decisions = w.decisions;
    cfg.seed = 1;

    (void)run_repeated(cfg, 1);  // warm-up outside the timed region
    const auto start = std::chrono::steady_clock::now();
    const Aggregate agg = run_repeated(cfg, w.repeats);
    const double seconds = seconds_since(start);

    const double events_total = agg.events.mean * static_cast<double>(agg.runs);
    const double events_per_sec = seconds > 0.0 ? events_total / seconds : 0.0;
    std::printf("%-12s n=%-4u %8.0f events in %6.3f s -> %12.0f events/s\n",
                w.protocol, w.n, events_total, seconds, events_per_sec);

    json::Object row;
    row["protocol"] = w.protocol;
    row["n"] = static_cast<std::int64_t>(w.n);
    row["decisions"] = static_cast<std::int64_t>(cfg.decisions);
    row["repeats"] = static_cast<std::int64_t>(w.repeats);
    row["events_total"] = events_total;
    row["wall_seconds"] = seconds;
    row["events_per_sec"] = events_per_sec;
    row["aggregate"] = aggregate_to_json(agg);
    rows.push_back(json::Value{std::move(row)});
  }
  return json::Value{std::move(rows)};
}

/// Measures the n-scaling curve: one single run per (protocol, n) point,
/// recording engine throughput (events/sec) and the per-node resident
/// memory cost. Memory attribution: trim the heap and take an RSS
/// baseline, reset the kernel's peak-RSS watermark, run, and charge the
/// peak-minus-baseline delta to the run (bytes_per_node = delta / n).
/// Decision counts shrink with n so every point costs bounded wall time —
/// PBFT's message complexity is quadratic, so one decision at n=4096 is
/// already ~28M events. Points run in increasing-footprint order so a big
/// point's freed-but-cached pages cannot pollute a smaller point's
/// baseline. The record carries its own hardware_threads, like the intra
/// and run-length records.
json::Value measure_scaling_curve() {
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

  std::printf("\n--- n-scaling curve (single run per point) ---\n");
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
    const double events =
        static_cast<double>(result.events_processed);
    const double events_per_sec = seconds > 0.0 ? events / seconds : 0.0;

    std::printf("%-12s n=%-5u %10.0f events in %7.3f s -> %10.0f events/s, "
                "%8.0f bytes/node%s\n",
                p.protocol, p.n, events, seconds, events_per_sec,
                bytes_per_node, result.terminated ? "" : "  [DID NOT DECIDE]");

    json::Object row;
    row["protocol"] = p.protocol;
    row["n"] = static_cast<std::int64_t>(p.n);
    row["decisions"] = static_cast<std::int64_t>(p.decisions);
    row["terminated"] = result.terminated;
    row["events_processed"] = events;
    row["wall_seconds"] = seconds;
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
/// (engine.rng = "per_node", intra_jobs = 1) on large single runs — the
/// intra-run counterpart of the run_repeated comparison below. Both modes
/// execute the identical per-node-RNG semantics, so the results must be
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

/// Times the attacker hook: the same workload attack-free (the passive
/// fast path, which never materializes Message objects) vs with a
/// registered no-op attack whose type filter matches nothing (every
/// unicast now traverses attack() through the envelope slow path). The
/// two runs must stay equivalent — the hook may cost wall time, never
/// semantics — and the overhead ratio is the figure bench_gate guards.
json::Value measure_attacker_hook(std::size_t repeats) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 32;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = 1;

  (void)run_repeated(cfg, 2);  // warm-up outside the timed region
  const auto passive_start = std::chrono::steady_clock::now();
  const Aggregate passive = run_repeated(cfg, repeats);
  const double passive_seconds = seconds_since(passive_start);

  cfg.attack = "delay-schedule";
  json::Object params;
  params["type"] = "bench/none";  // matches no payload type: a no-op hook
  cfg.attack_params = json::Value{std::move(params)};
  (void)run_repeated(cfg, 2);
  const auto hooked_start = std::chrono::steady_clock::now();
  const Aggregate hooked = run_repeated(cfg, repeats);
  const double hooked_seconds = seconds_since(hooked_start);

  const bool identical = equivalent(passive, hooked);
  const double overhead =
      passive_seconds > 0.0 ? hooked_seconds / passive_seconds : 0.0;
  std::printf("\n--- attacker hook overhead (pbft, n=32, %zu runs) ---\n",
              repeats);
  std::printf("passive:   %.3f s\n", passive_seconds);
  std::printf("hooked:    %.3f s  (no-op delay-schedule attack)\n",
              hooked_seconds);
  std::printf("overhead:  %.2fx\n", overhead);
  std::printf("aggregates identical (modulo wall clock): %s\n",
              identical ? "yes" : "NO — the hook changed semantics");

  json::Object o;
  o["workload"] = "run_repeated pbft n=32";
  o["repeats"] = static_cast<std::int64_t>(repeats);
  o["passive_seconds"] = passive_seconds;
  o["hooked_seconds"] = hooked_seconds;
  o["overhead_ratio"] = overhead;
  o["identical"] = identical;
  return json::Value{std::move(o)};
}

/// Times the WAN transport backend (net/wan/; see docs/NETWORKING.md)
/// against the classic direct-broadcast network on the same workload: one
/// direct baseline, then one run per backend piece (geo8 RTT matrix,
/// bandwidth queues, gossip dissemination). Each mode runs twice and the
/// two aggregates must be equivalent — WAN delays are deterministic
/// functions of the run seed, never of the wall clock. The gated figure is
/// relative_throughput (mode events/sec over direct events/sec): a pure
/// per-event-cost ratio, so it transfers across machines where raw
/// events/sec does not.
json::Value measure_wan_backend(std::size_t repeats) {
  SimConfig base;
  base.protocol = "pbft";
  base.n = 32;
  base.lambda_ms = 1000;
  base.delay = DelaySpec::normal(250, 50);
  base.seed = 1;

  (void)run_repeated(base, 2);  // warm-up outside the timed region
  const auto direct_start = std::chrono::steady_clock::now();
  const Aggregate direct = run_repeated(base, repeats);
  const double direct_seconds = seconds_since(direct_start);
  const double direct_events =
      direct.events.mean * static_cast<double>(direct.runs);
  const double direct_eps =
      direct_seconds > 0.0 ? direct_events / direct_seconds : 0.0;

  struct Mode {
    const char* name;
    const char* net_json;
  };
  const Mode modes[] = {
      {"matrix", R"({"rtt": {"matrix": "geo8"}})"},
      {"bandwidth", R"({"uplink_mbps": 200, "downlink_mbps": 200})"},
      {"gossip", R"({"backend": "gossip", "fanout": 3})"},
  };

  std::printf("\n--- WAN backend vs direct broadcast (pbft, n=32, %zu runs) ---\n",
              repeats);
  std::printf("direct:    %.3f s, %.0f events -> %.0f events/s\n",
              direct_seconds, direct_events, direct_eps);

  json::Array rows;
  for (const Mode& mode : modes) {
    SimConfig cfg = base;
    cfg.net = WanSpec::from_json(json::parse(mode.net_json));
    (void)run_repeated(cfg, 2);
    const auto start = std::chrono::steady_clock::now();
    const Aggregate agg = run_repeated(cfg, repeats);
    const double seconds = seconds_since(start);
    const Aggregate again = run_repeated(cfg, repeats);
    const bool deterministic = equivalent(agg, again);

    const double events = agg.events.mean * static_cast<double>(agg.runs);
    const double eps = seconds > 0.0 ? events / seconds : 0.0;
    const double relative = direct_eps > 0.0 ? eps / direct_eps : 0.0;
    std::printf("%-9s  %.3f s, %.0f events -> %.0f events/s (%.2fx direct)%s\n",
                mode.name, seconds, events, eps, relative,
                deterministic ? "" : "  [NONDETERMINISTIC — bug]");

    json::Object row;
    row["mode"] = mode.name;
    row["seconds"] = seconds;
    row["events_total"] = events;
    row["events_per_sec"] = eps;
    row["relative_throughput"] = relative;
    row["deterministic"] = deterministic;
    rows.push_back(json::Value{std::move(row)});
  }

  json::Object o;
  o["workload"] = "run_repeated pbft n=32";
  o["repeats"] = static_cast<std::int64_t>(repeats);
  o["direct_seconds"] = direct_seconds;
  o["direct_events_per_sec"] = direct_eps;
  o["modes"] = json::Value{std::move(rows)};
  return json::Value{std::move(o)};
}

/// Times the client workload generator (src/workload/; see
/// docs/WORKLOADS.md) against the same runs with no workload attached: one
/// request-free baseline, then one run per generator discipline
/// (open-loop Poisson arrivals, open-loop fixed arrivals with a batch
/// deadline, closed-loop client population). Each mode runs twice and the
/// two aggregates must be equivalent — arrivals come off the run-seed
/// "wl" RNG fork, never the wall clock. The gated figure is
/// relative_throughput (mode events/sec over baseline events/sec): a pure
/// per-event-cost ratio, so it transfers across machines where raw
/// events/sec does not. The base config targets ten decisions so batching
/// actually engages (a single-decision pbft run mints its only fresh
/// proposal at t=0, before any open-loop request has arrived).
json::Value measure_client_workload(std::size_t repeats) {
  SimConfig base;
  base.protocol = "pbft";
  base.n = 32;
  base.lambda_ms = 1000;
  base.delay = DelaySpec::normal(250, 50);
  base.decisions = 10;
  base.seed = 1;

  (void)run_repeated(base, 2);  // warm-up outside the timed region
  const auto baseline_start = std::chrono::steady_clock::now();
  const Aggregate baseline = run_repeated(base, repeats);
  const double baseline_seconds = seconds_since(baseline_start);
  const double baseline_events =
      baseline.events.mean * static_cast<double>(baseline.runs);
  const double baseline_eps =
      baseline_seconds > 0.0 ? baseline_events / baseline_seconds : 0.0;

  struct Mode {
    const char* name;
    WorkloadSpec spec;
  };
  Mode modes[3];
  modes[0].name = "open-poisson";
  modes[0].spec.rate_rps = 500.0;
  modes[0].spec.max_batch = 16;
  modes[1].name = "open-fixed";
  modes[1].spec.arrival = WorkloadSpec::Arrival::kFixed;
  modes[1].spec.rate_rps = 500.0;
  modes[1].spec.max_batch = 16;
  modes[1].spec.max_wait_ms = 50.0;
  modes[2].name = "closed";
  modes[2].spec.mode = WorkloadSpec::Mode::kClosed;
  modes[2].spec.clients = 200;
  modes[2].spec.window = 2;
  modes[2].spec.think_ms = 10.0;
  modes[2].spec.max_batch = 16;

  std::printf(
      "\n--- client workload vs request-free runs (pbft, n=32, %zu runs) ---\n",
      repeats);
  std::printf("no-workload: %.3f s, %.0f events -> %.0f events/s\n",
              baseline_seconds, baseline_events, baseline_eps);

  json::Array rows;
  for (const Mode& mode : modes) {
    SimConfig cfg = base;
    cfg.workload = mode.spec;
    (void)run_repeated(cfg, 2);
    const auto start = std::chrono::steady_clock::now();
    const Aggregate agg = run_repeated(cfg, repeats);
    const double seconds = seconds_since(start);
    const Aggregate again = run_repeated(cfg, repeats);
    const bool deterministic = equivalent(agg, again);

    const double events = agg.events.mean * static_cast<double>(agg.runs);
    const double eps = seconds > 0.0 ? events / seconds : 0.0;
    const double relative = baseline_eps > 0.0 ? eps / baseline_eps : 0.0;
    std::printf(
        "%-12s %.3f s, %.0f events -> %.0f events/s (%.2fx no-workload, "
        "%llu requests decided)%s\n",
        mode.name, seconds, events, eps, relative,
        static_cast<unsigned long long>(agg.workload_decided),
        deterministic ? "" : "  [NONDETERMINISTIC — bug]");

    json::Object row;
    row["mode"] = mode.name;
    row["seconds"] = seconds;
    row["events_total"] = events;
    row["events_per_sec"] = eps;
    row["relative_throughput"] = relative;
    row["deterministic"] = deterministic;
    row["requests_decided"] =
        static_cast<std::int64_t>(agg.workload_decided);
    rows.push_back(json::Value{std::move(row)});
  }

  json::Object o;
  o["workload"] = "run_repeated pbft n=32 decisions=10";
  o["repeats"] = static_cast<std::int64_t>(repeats);
  o["baseline_seconds"] = baseline_seconds;
  o["baseline_events_per_sec"] = baseline_eps;
  o["modes"] = json::Value{std::move(rows)};
  return json::Value{std::move(o)};
}

/// Times run_repeated vs run_repeated_parallel on the same workload,
/// checks the aggregates are equivalent, prints the comparison, and
/// writes it to `json_path`. Speedup tracks the machine: ~min(jobs,
/// cores)× on idle multi-core hosts, ~1× on a single core.
void measure_parallel_speedup(const std::string& json_path, std::size_t jobs,
                              std::size_t repeats, json::Value engine_throughput,
                              json::Value scaling, json::Value intra_speedup,
                              std::uint32_t intra_jobs,
                              json::Value attacker_hook,
                              json::Value wan_backend,
                              json::Value client_workload,
                              json::Value run_length) {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 32;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = 1;

  // Warm-up: touch the registry and fault in code/pages outside the
  // timed sections.
  (void)run_repeated(cfg, 2);

  const auto serial_start = std::chrono::steady_clock::now();
  const Aggregate serial = run_repeated(cfg, repeats);
  const double serial_seconds = seconds_since(serial_start);

  const auto parallel_start = std::chrono::steady_clock::now();
  const Aggregate parallel = run_repeated_parallel(cfg, repeats, jobs);
  const double parallel_seconds = seconds_since(parallel_start);

  const bool identical = equivalent(serial, parallel);
  const double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;

  std::printf("\n--- run_repeated serial vs parallel (pbft, n=32, %zu runs) ---\n",
              repeats);
  std::printf("serial:    %.3f s\n", serial_seconds);
  std::printf("parallel:  %.3f s  (%zu jobs, %u hardware threads)\n",
              parallel_seconds, jobs, std::thread::hardware_concurrency());
  std::printf("speedup:   %.2fx\n", speedup);
  std::printf("aggregates identical (modulo wall clock): %s\n",
              identical ? "yes" : "NO — determinism bug");

  json::Object o;
  o["bench"] = "micro_engine";
  o["workload"] = "run_repeated pbft n=32";
  o["repeats"] = static_cast<std::int64_t>(repeats);
  o["jobs"] = static_cast<std::int64_t>(jobs);
  o["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  o["intra_jobs"] = static_cast<std::int64_t>(intra_jobs);
  o["serial_seconds"] = serial_seconds;
  o["parallel_seconds"] = parallel_seconds;
  o["speedup"] = speedup;
  o["aggregates_identical"] = identical;
  o["serial_aggregate"] = aggregate_to_json(serial);
  o["parallel_aggregate"] = aggregate_to_json(parallel);
  o["engine_throughput"] = std::move(engine_throughput);
  if (scaling.is_object()) o["scaling"] = std::move(scaling);
  if (intra_speedup.is_object()) o["intra_speedup"] = std::move(intra_speedup);
  if (attacker_hook.is_object()) o["attacker_hook"] = std::move(attacker_hook);
  if (wan_backend.is_object()) o["wan_backend"] = std::move(wan_backend);
  if (client_workload.is_object()) {
    o["client_workload"] = std::move(client_workload);
  }
  if (run_length.is_object()) o["run_length"] = std::move(run_length);
  write_json_file(json_path, json::Value{std::move(o)});
  std::printf("[speedup record written to %s]\n", json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "micro_engine.json";
  std::size_t jobs = 4;
  std::uint32_t intra_jobs = 8;
  std::size_t repeats = 64;
  bool run_micro = true;
  bool run_scaling = true;
  bool run_intra = true;
  bool run_attacker = true;
  bool run_wan = true;
  bool run_workload = true;
  bool run_run_length = true;
  bool only_scaling = false;
  if (const char* env = std::getenv("BFTSIM_JOBS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) jobs = static_cast<std::size_t>(value);
  }

  // Strip our flags before handing argv to google-benchmark.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--intra-jobs") == 0 && i + 1 < argc) {
      intra_jobs =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--skip-intra") == 0) {
      run_intra = false;
    } else if (std::strcmp(argv[i], "--skip-attacker") == 0) {
      run_attacker = false;
    } else if (std::strcmp(argv[i], "--skip-wan") == 0) {
      run_wan = false;
    } else if (std::strcmp(argv[i], "--skip-workload") == 0) {
      run_workload = false;
    } else if (std::strcmp(argv[i], "--skip-run-length") == 0) {
      run_run_length = false;
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
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
  if (jobs == 0) jobs = bftsim::ThreadPool::default_workers();
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

  // Named locals pin the measurement (and print) order — function-argument
  // evaluation order is unspecified.
  json::Value engine_throughput = measure_engine_throughput();
  json::Value scaling = run_scaling ? measure_scaling_curve() : json::Value{};
  json::Value intra =
      run_intra ? measure_intra_speedup(intra_jobs) : json::Value{};
  json::Value attacker_hook =
      run_attacker ? measure_attacker_hook(repeats) : json::Value{};
  json::Value wan_backend =
      run_wan ? measure_wan_backend(repeats) : json::Value{};
  json::Value client_workload =
      run_workload ? measure_client_workload(repeats) : json::Value{};
  json::Value run_length =
      run_run_length ? measure_run_length() : json::Value{};
  measure_parallel_speedup(json_path, jobs, repeats,
                           std::move(engine_throughput), std::move(scaling),
                           std::move(intra), intra_jobs,
                           std::move(attacker_hook), std::move(wan_backend),
                           std::move(client_workload), std::move(run_length));
  return 0;
}
