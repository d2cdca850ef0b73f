// Records golden engine aggregates for the determinism regression suite.
//
// Runs a fixed list of configuration points — two protocols (or engine
// variants) per figure/ablation bench, small n and repeat counts so the
// replay stays test-sized — and writes their aggregates to a JSON file
// (default tests/data/engine_goldens.json). The checked-in goldens were
// produced by the pre-overhaul engine; tests/sim/engine_goldens_test.cpp
// replays every point against the current engine and requires equivalent()
// aggregates, which is what keeps hot-path rewrites bit-identical.
//
// Regenerate (only when an intentional behavior change is being made):
//   cmake --build build -j --target record_goldens
//   ./build/tools/record_goldens tests/data/engine_goldens.json
//
// `--windowed [path]` records the per-node-RNG goldens instead (default
// tests/data/windowed_goldens.json): the one-lane RunResult identity of
// every attack-free aggregate point and of each hand-written scenario in
// tests/sim/windowed_test.cpp, which checks its one-lane runs against it.
//   ./build/tools/record_goldens --windowed tests/data/windowed_goldens.json
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baseline/baseline.hpp"
#include "core/json.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace bftsim;

struct AggregatePoint {
  std::string name;
  SimConfig cfg;
  std::size_t repeats = 3;
};

json::Value partition_params(double resolve_ms, int subnets) {
  json::Object params;
  params["resolve_ms"] = resolve_ms;
  params["mode"] = "drop";
  if (subnets > 0) params["subnets"] = static_cast<std::int64_t>(subnets);
  return json::Value{std::move(params)};
}

/// One spot-check pair per bench (fig2-fig9, ablations, beyond-paper),
/// mirroring the exact configurations those benches run, at test-sized
/// repeat counts.
std::vector<AggregatePoint> aggregate_points() {
  std::vector<AggregatePoint> points;
  const auto add = [&points](std::string name, SimConfig cfg,
                             std::size_t repeats = 3) {
    points.push_back(AggregatePoint{std::move(name), std::move(cfg), repeats});
  };

  {  // fig2: PBFT scalability (message-level engine rows).
    SimConfig cfg;
    cfg.protocol = "pbft";
    cfg.n = 16;
    cfg.lambda_ms = 1000;
    cfg.delay = DelaySpec::normal(250, 50);
    cfg.decisions = 1;
    add("fig2/pbft/n=16", cfg);
    cfg.n = 32;
    add("fig2/pbft/n=32", cfg);
  }
  {  // fig3: protocol comparison across network environments.
    add("fig3/hotstuff-ns/N(500,100)",
        experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(500, 100)));
    add("fig3/asyncba/N(1000,300)",
        experiment_config("asyncba", 16, 1000, DelaySpec::normal(1000, 300)));
  }
  {  // fig4: overestimated lambda.
    add("fig4/pbft/lambda=2000",
        experiment_config("pbft", 16, 2000, DelaySpec::normal(250, 50)));
    add("fig4/librabft/lambda=1500",
        experiment_config("librabft", 16, 1500, DelaySpec::normal(250, 50)));
  }
  {  // fig5: underestimated lambda.
    add("fig5/hotstuff-ns/lambda=150",
        experiment_config("hotstuff-ns", 16, 150, DelaySpec::normal(250, 50)));
    add("fig5/pbft/lambda=250",
        experiment_config("pbft", 16, 250, DelaySpec::normal(250, 50)));
  }
  {  // fig6: network partition, two subnets, resolves at 33 s.
    for (const char* protocol : {"algorand", "pbft"}) {
      SimConfig cfg =
          experiment_config(protocol, 16, 1000, DelaySpec::normal(250, 50));
      cfg.decisions = 1;
      cfg.attack = "partition";
      cfg.attack_params = partition_params(33'000, 2);
      cfg.max_time_ms = 600'000;
      add(std::string("fig6/") + protocol + "/partition", cfg);
    }
  }
  {  // fig7: fail-stop resilience.
    SimConfig cfg =
        experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(1000, 300));
    cfg.honest = 14;
    cfg.max_time_ms = 600'000;
    add("fig7/hotstuff-ns/f=2", cfg);
    cfg = experiment_config("addv2", 16, 1000, DelaySpec::normal(1000, 300));
    cfg.honest = 13;
    cfg.max_time_ms = 600'000;
    add("fig7/addv2/f=3", cfg);
  }
  {  // fig8: ADD+ variants under attacks.
    SimConfig cfg = experiment_config("addv1", 16, 1000, DelaySpec::normal(250, 50));
    cfg.attack = "add-static";
    cfg.max_time_ms = 600'000;
    add("fig8/addv1/add-static", cfg);
    cfg = experiment_config("addv3", 16, 1000, DelaySpec::normal(250, 50));
    cfg.attack = "add-adaptive";
    cfg.max_time_ms = 600'000;
    add("fig8/addv3/add-adaptive", cfg);
  }
  {  // ablation_pacemaker: crashed leaders and a healed partition.
    SimConfig cfg =
        experiment_config("librabft", 16, 1000, DelaySpec::normal(1000, 300));
    cfg.honest = 14;
    add("ablation_pacemaker/librabft/f=2", cfg);
    cfg = experiment_config("tendermint", 16, 1000, DelaySpec::normal(250, 50));
    cfg.decisions = 1;
    cfg.attack = "partition";
    cfg.attack_params = partition_params(33'000, 0);
    add("ablation_pacemaker/tendermint/healed-partition", cfg);
  }
  {  // ablation_costmodel: verification-cost sweep points.
    SimConfig cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(250, 50));
    cfg.decisions = 10;
    cfg.cost.verify_ms = 2.0;
    cfg.cost.sign_ms = 1.0;
    add("ablation_costmodel/pbft/verify=2", cfg);
    cfg = experiment_config("tendermint", 16, 1000, DelaySpec::normal(250, 50));
    cfg.decisions = 10;
    cfg.cost.verify_ms = 5.0;
    cfg.cost.sign_ms = 2.5;
    add("ablation_costmodel/tendermint/verify=5", cfg);
  }
  {  // beyond_paper: extension protocols.
    add("beyond/sync-hotstuff/N(250,50)",
        experiment_config("sync-hotstuff", 16, 1000, DelaySpec::normal(250, 50)));
    add("beyond/tendermint/N(1000,300)",
        experiment_config("tendermint", 16, 1000, DelaySpec::normal(1000, 300)));
  }
  {  // fault layer: one point per fault kind plus a combined schedule and a
     // watchdog budget. Small n, 2 repeats — these pin the fault RNG stream
     // (fork order, window expansion, corruption coin) in addition to the
     // engine hot path.
    SimConfig cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.crashes.push_back({2, 300.0, 2000.0});
    add("faults/pbft/crash-recover", cfg, 2);

    cfg = experiment_config("hotstuff-ns", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.link_flaps.push_back({0, 1, 200.0, 1500.0});
    cfg.faults.link_flaps.push_back({2, 3, 900.0, 1200.0});
    add("faults/hotstuff-ns/link-flap", cfg, 2);

    cfg = experiment_config("tendermint", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.corruption = {0.05, 0.0, 0.0};
    add("faults/tendermint/corruption", cfg, 2);

    cfg = experiment_config("librabft", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.clock = {25.0, 0.02};
    add("faults/librabft/clock-skew", cfg, 2);

    cfg = experiment_config("algorand", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_time_ms = 600'000;
    cfg.faults.random_crashes = {1, 0.0, 5000.0, 500.0, 1500.0};
    cfg.faults.random_link_flaps = {2, 0.0, 5000.0, 200.0, 1000.0};
    cfg.faults.corruption = {0.02, 0.0, 0.0};
    add("faults/algorand/combined", cfg, 2);

    cfg = experiment_config("pbft", 8, 1000, DelaySpec::normal(250, 50));
    cfg.max_events = 500;  // watchdog: run stops on the event budget
    cfg.faults.crashes.push_back({1, 100.0, 1000.0});
    add("faults/pbft/event-budget", cfg, 2);
  }
  return points;
}

/// WAN transport backend points (net/wan/; see docs/NETWORKING.md): one
/// aggregate pair per backend piece — RTT matrix, bandwidth queues, gossip
/// dissemination, the three combined — plus a windowed-parallel matrix run.
/// These pin the WAN delay arithmetic, the FIFO next-free-time scalars, the
/// overlay construction and the duplicate-suppression order; the CI
/// wan-matrix job replays them under ASan/UBSan.
std::vector<AggregatePoint> wan_points() {
  std::vector<AggregatePoint> points;
  const auto net = [](const char* json_text) {
    return WanSpec::from_json(json::parse(json_text));
  };

  SimConfig cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 1;
  cfg.net = net(R"({"rtt": {"matrix": "geo8"}})");
  points.push_back(AggregatePoint{"wan/pbft/geo8-matrix", cfg, 3});

  cfg = experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 5;
  cfg.net = net(R"({"uplink_mbps": 20, "downlink_mbps": 20})");
  points.push_back(AggregatePoint{"wan/hotstuff-ns/bandwidth", cfg, 3});

  cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 1;
  cfg.net = net(R"({"backend": "gossip", "fanout": 3})");
  points.push_back(AggregatePoint{"wan/pbft/gossip-fanout3", cfg, 3});

  cfg = experiment_config("tendermint", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 1;
  cfg.net = net(
      R"({"backend": "gossip", "fanout": 4,
          "uplink_mbps": 100, "downlink_mbps": 100,
          "rtt": {"matrix": "geo8",
                  "regions": ["us-east", "eu-west", "ap-northeast"]}})");
  points.push_back(AggregatePoint{"wan/tendermint/gossip-bw-matrix", cfg, 3});

  // Matrix-only stays legal on the windowed-parallel driver: this point
  // runs two lanes with the WAN infimum folded into the lookahead.
  cfg = experiment_config("librabft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 2;
  cfg.net = net(R"({"rtt": {"matrix": "geo8"}})");
  cfg.engine.intra_jobs = 2;
  points.push_back(AggregatePoint{"wan/librabft/geo8-windowed", cfg, 2});

  return points;
}

/// Client workload points (src/workload/; see docs/WORKLOADS.md): one
/// aggregate pair per generator mode — open-loop Poisson, open-loop fixed
/// with a batching timeout, closed-loop (serial fallback), and an open-loop
/// windowed-parallel run. These pin the "wl" RNG fork, the per-node arrival
/// streams, the batch digests and the request-latency percentile math; the
/// CI workload-matrix job replays them under ASan/UBSan.
std::vector<AggregatePoint> workload_points() {
  std::vector<AggregatePoint> points;

  // decisions=10: pbft proposes sequence k+1 only after k decides, and the
  // seq-1 proposal at t=0 predates every open-loop arrival — later
  // sequences are what carry batches.
  SimConfig cfg =
      experiment_config("pbft", 16, 1000, DelaySpec::normal(250, 50));
  cfg.decisions = 10;
  cfg.workload.rate_rps = 200.0;
  cfg.workload.max_batch = 16;
  points.push_back(AggregatePoint{"workload/pbft/open-poisson", cfg, 2});

  cfg = experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(250, 50));
  cfg.workload.rate_rps = 100.0;
  cfg.workload.arrival = WorkloadSpec::Arrival::kFixed;
  cfg.workload.max_batch = 8;
  cfg.workload.max_wait_ms = 50.0;
  points.push_back(
      AggregatePoint{"workload/hotstuff-ns/open-fixed-wait", cfg, 2});

  cfg = experiment_config("tendermint", 16, 1000, DelaySpec::normal(250, 50));
  cfg.workload.mode = WorkloadSpec::Mode::kClosed;
  cfg.workload.clients = 1000;
  cfg.workload.window = 2;
  cfg.workload.think_ms = 100.0;
  points.push_back(AggregatePoint{"workload/tendermint/closed-loop", cfg, 2});

  // Open-loop workloads stay legal on the windowed-parallel driver; this
  // point pins the merge-barrier decide order feeding the latency vector.
  cfg = experiment_config("librabft", 16, 1000, DelaySpec::normal(250, 50));
  cfg.workload.rate_rps = 150.0;
  cfg.engine.intra_jobs = 2;
  points.push_back(AggregatePoint{"workload/librabft/open-windowed", cfg, 2});

  return points;
}

struct SinglePoint {
  std::string name;
  SimConfig cfg;
  bool baseline = false;  ///< run the packet-level engine instead
};

/// Single-run points: the fig9 view-trace panels (record_views on) and one
/// packet-level baseline row from fig2 (the baseline engine shares the
/// controller dispatch path, so it must stay bit-identical too).
std::vector<SinglePoint> single_points() {
  std::vector<SinglePoint> points;

  SimConfig cfg = experiment_config("hotstuff-ns", 16, 150, DelaySpec::normal(250, 50));
  cfg.seed = 4;
  cfg.record_views = true;
  cfg.max_time_ms = 600'000;
  points.push_back(SinglePoint{"fig9/paper", cfg, false});

  cfg = experiment_config("hotstuff-ns", 16, 1000, DelaySpec::normal(1000, 300));
  cfg.seed = 4;
  cfg.honest = 12;
  cfg.record_views = true;
  cfg.max_time_ms = 600'000;
  points.push_back(SinglePoint{"fig9/stress", cfg, false});

  cfg = SimConfig{};
  cfg.protocol = "pbft";
  cfg.n = 8;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.decisions = 1;
  cfg.seed = 1;
  points.push_back(SinglePoint{"fig2/baseline/pbft/n=8", cfg, true});

  return points;
}

/// WAN single-run points: a gossip run recorded with its dissemination
/// counters, pinning relay fan-out and duplicate suppression exactly.
std::vector<SinglePoint> wan_single_points() {
  std::vector<SinglePoint> points;
  SimConfig cfg = experiment_config("pbft", 16, 1000, DelaySpec::normal(50, 10));
  cfg.decisions = 1;
  cfg.seed = 5;
  cfg.net = WanSpec::from_json(
      json::parse(R"({"backend": "gossip", "fanout": 3})"));
  points.push_back(SinglePoint{"wan/pbft/gossip-counters", cfg, false});
  return points;
}

/// Workload single-run points: one open-loop run recorded with its full
/// request-level record (conservation counters and latency percentiles),
/// pinning batch formation and decide-order latency accounting exactly.
std::vector<SinglePoint> workload_single_points() {
  std::vector<SinglePoint> points;
  SimConfig cfg =
      experiment_config("pbft", 16, 1000, DelaySpec::normal(250, 50));
  cfg.seed = 7;
  cfg.decisions = 10;
  cfg.workload.rate_rps = 300.0;
  cfg.workload.max_batch = 32;
  points.push_back(SinglePoint{"workload/pbft/open-counters", cfg, false});
  return points;
}

/// The one-lane run of `cfg` under per-node RNG, traced — exactly what
/// windowed_test.cpp's expect_lane_invariant() compares every lane count
/// against.
SimConfig one_lane(SimConfig cfg) {
  cfg.engine.intra_jobs = 1;
  cfg.engine.rng = EngineConfig::RngMode::kPerNode;
  cfg.record_trace = true;
  return cfg;
}

SimConfig windowed_base_cfg() {
  SimConfig cfg;
  cfg.protocol = "pbft";
  cfg.n = 16;
  cfg.delay = DelaySpec::uniform(200.0, 400.0);
  cfg.seed = 7;
  cfg.decisions = 2;
  return cfg;
}

/// The hand-written scenarios of tests/sim/windowed_test.cpp, by the names
/// that test looks them up under (it also checks the configs still match).
std::vector<SinglePoint> windowed_hand_points() {
  std::vector<SinglePoint> points;
  for (const char* protocol :
       {"pbft", "hotstuff-ns", "tendermint", "librabft"}) {
    SimConfig cfg = windowed_base_cfg();
    cfg.protocol = protocol;
    cfg.decisions = 3;
    points.push_back(SinglePoint{std::string("protocols/") + protocol, cfg});
  }
  {
    SimConfig cfg = windowed_base_cfg();
    cfg.cost.verify_ms = 0.4;
    cfg.cost.sign_ms = 0.9;
    points.push_back(SinglePoint{"cost-model", cfg});
  }
  {
    SimConfig cfg = windowed_base_cfg();
    json::Object topo;
    topo["regions"] = std::int64_t{4};
    topo["cross_factor"] = 1.5;
    topo["cross_extra_ms"] = 40.0;
    cfg.topology = json::Value(topo);
    points.push_back(SinglePoint{"geo-topology", cfg});
  }
  {
    SimConfig cfg = windowed_base_cfg();
    cfg.decisions = 3;
    cfg.max_time_ms = 120'000.0;
    cfg.faults.crashes.push_back({3, 500.0, 1500.0});
    cfg.faults.crashes.push_back({7, 900.0, 400.0});
    cfg.faults.link_flaps.push_back({1, 2, 200.0, 1800.0});
    cfg.faults.link_flaps.push_back({0, 5, 700.0, 600.0});
    points.push_back(SinglePoint{"crash-flap", cfg});
  }
  {
    SimConfig cfg = windowed_base_cfg();
    cfg.decisions = 3;
    cfg.faults.corruption.rate = 0.2;
    cfg.faults.corruption.start_ms = 0.0;
    cfg.faults.corruption.end_ms = 0.0;
    points.push_back(SinglePoint{"corruption", cfg});
  }
  {
    SimConfig cfg = windowed_base_cfg();
    cfg.faults.clock.max_skew_ms = 10.0;
    cfg.faults.clock.max_drift = 0.01;
    points.push_back(SinglePoint{"clock-skew", cfg});
  }
  {
    SimConfig cfg = windowed_base_cfg();
    cfg.decisions = 3;
    cfg.faults.random_crashes = {3, 0.0, 2000.0, 100.0, 1200.0};
    cfg.faults.random_link_flaps = {4, 0.0, 2500.0, 100.0, 900.0};
    points.push_back(SinglePoint{"random-windows", cfg});
  }
  return points;
}

/// The identity a one-lane windowed golden pins.
json::Value lane_identity_to_json(const RunResult& r) {
  json::Object o;
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(r.trace_fingerprint));
  o["trace_fingerprint"] = std::string(hex);
  o["trace_records"] = static_cast<std::int64_t>(r.trace_records);
  o["events_processed"] = static_cast<std::int64_t>(r.events_processed);
  o["messages_sent"] = static_cast<std::int64_t>(r.messages_sent);
  o["messages_delivered"] = static_cast<std::int64_t>(r.messages_delivered);
  o["messages_dropped"] = static_cast<std::int64_t>(r.messages_dropped);
  o["messages_corrupted"] = static_cast<std::int64_t>(r.messages_corrupted);
  o["timers_fired"] = static_cast<std::int64_t>(r.timers_fired);
  o["termination_time"] = static_cast<std::int64_t>(r.termination_time);
  o["termination_reason"] = std::string(to_string(r.termination_reason));
  return json::Value{std::move(o)};
}

int record_windowed(const std::string& out_path) {
  std::vector<SinglePoint> points;
  for (const AggregatePoint& point : aggregate_points()) {
    if (point.cfg.attack.empty()) {
      points.push_back(SinglePoint{point.name, point.cfg});
    }
  }
  for (SinglePoint& point : windowed_hand_points()) {
    points.push_back(std::move(point));
  }

  json::Array array;
  for (const SinglePoint& point : points) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const SimConfig cfg = one_lane(point.cfg);
    const RunResult r = run_simulation(cfg);
    json::Object o;
    o["name"] = point.name;
    o["config"] = cfg.to_json();
    o["identity"] = lane_identity_to_json(r);
    array.push_back(json::Value{std::move(o)});
    std::printf(" done (%llu events)\n",
                static_cast<unsigned long long>(r.events_processed));
  }
  json::Object top;
  top["generated_by"] = "tools/record_goldens --windowed";
  top["points"] = json::Value{std::move(array)};
  write_json_file(out_path, json::Value{std::move(top)});
  std::printf("windowed goldens written to %s\n", out_path.c_str());
  return 0;
}

json::Value single_result_to_json(const RunResult& r) {
  json::Object o;
  o["terminated"] = r.terminated;
  o["termination_time"] = static_cast<std::int64_t>(r.termination_time);
  o["events_processed"] = static_cast<std::int64_t>(r.events_processed);
  o["messages_sent"] = static_cast<std::int64_t>(r.messages_sent);
  o["messages_delivered"] = static_cast<std::int64_t>(r.messages_delivered);
  o["messages_dropped"] = static_cast<std::int64_t>(r.messages_dropped);
  o["bytes_sent"] = static_cast<std::int64_t>(r.bytes_sent);
  o["timers_fired"] = static_cast<std::int64_t>(r.timers_fired);
  o["decision_count"] = static_cast<std::int64_t>(r.decisions.size());
  o["view_count"] = static_cast<std::int64_t>(r.views.size());
  return json::Value{std::move(o)};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--windowed") == 0) {
    return record_windowed(argc > 2 ? argv[2]
                                    : "tests/data/windowed_goldens.json");
  }
  const std::string out_path =
      argc > 1 ? argv[1] : "tests/data/engine_goldens.json";

  json::Array aggregate_array;
  for (const AggregatePoint& point : aggregate_points()) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const Aggregate agg = run_repeated(point.cfg, point.repeats);
    json::Object o;
    o["name"] = point.name;
    o["repeats"] = static_cast<std::int64_t>(point.repeats);
    o["config"] = point.cfg.to_json();
    o["aggregate"] = aggregate_to_json(agg);
    aggregate_array.push_back(json::Value{std::move(o)});
    std::printf(" done (%zu runs, %.0f events mean)\n", agg.runs, agg.events.mean);
  }

  json::Array single_array;
  for (const SinglePoint& point : single_points()) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const RunResult r = point.baseline
                            ? baseline::run_baseline_simulation(point.cfg)
                            : run_simulation(point.cfg);
    json::Object o;
    o["name"] = point.name;
    o["baseline"] = point.baseline;
    o["config"] = point.cfg.to_json();
    o["result"] = single_result_to_json(r);
    single_array.push_back(json::Value{std::move(o)});
    std::printf(" done (%llu events)\n",
                static_cast<unsigned long long>(r.events_processed));
  }

  json::Array wan_array;
  for (const AggregatePoint& point : wan_points()) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const Aggregate agg = run_repeated(point.cfg, point.repeats);
    json::Object o;
    o["name"] = point.name;
    o["repeats"] = static_cast<std::int64_t>(point.repeats);
    o["config"] = point.cfg.to_json();
    o["aggregate"] = aggregate_to_json(agg);
    wan_array.push_back(json::Value{std::move(o)});
    std::printf(" done (%zu runs, %.0f events mean)\n", agg.runs, agg.events.mean);
  }

  json::Array wan_single_array;
  for (const SinglePoint& point : wan_single_points()) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const RunResult r = run_simulation(point.cfg);
    json::Object o;
    o["name"] = point.name;
    o["config"] = point.cfg.to_json();
    json::Value result = single_result_to_json(r);
    result.as_object()["gossip_relayed"] =
        static_cast<std::int64_t>(r.gossip_relayed);
    result.as_object()["gossip_duplicates"] =
        static_cast<std::int64_t>(r.gossip_duplicates);
    o["result"] = std::move(result);
    wan_single_array.push_back(json::Value{std::move(o)});
    std::printf(" done (%llu events, %llu relays)\n",
                static_cast<unsigned long long>(r.events_processed),
                static_cast<unsigned long long>(r.gossip_relayed));
  }

  json::Array workload_array;
  for (const AggregatePoint& point : workload_points()) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const Aggregate agg = run_repeated(point.cfg, point.repeats);
    json::Object o;
    o["name"] = point.name;
    o["repeats"] = static_cast<std::int64_t>(point.repeats);
    o["config"] = point.cfg.to_json();
    o["aggregate"] = aggregate_to_json(agg);
    workload_array.push_back(json::Value{std::move(o)});
    std::printf(" done (%zu runs, %llu requests decided)\n", agg.runs,
                static_cast<unsigned long long>(agg.workload_decided));
  }

  json::Array workload_single_array;
  for (const SinglePoint& point : workload_single_points()) {
    std::printf("recording %-45s ...", point.name.c_str());
    std::fflush(stdout);
    const RunResult r = run_simulation(point.cfg);
    json::Object o;
    o["name"] = point.name;
    o["config"] = point.cfg.to_json();
    json::Value result = single_result_to_json(r);
    result.as_object()["workload"] = workload_to_json(r.workload);
    o["result"] = std::move(result);
    workload_single_array.push_back(json::Value{std::move(o)});
    std::printf(" done (%llu events, %llu requests decided)\n",
                static_cast<unsigned long long>(r.events_processed),
                static_cast<unsigned long long>(r.workload.decided));
  }

  json::Object top;
  top["generated_by"] = "tools/record_goldens";
  top["aggregate_points"] = json::Value{std::move(aggregate_array)};
  top["single_points"] = json::Value{std::move(single_array)};
  top["wan_points"] = json::Value{std::move(wan_array)};
  top["wan_single_points"] = json::Value{std::move(wan_single_array)};
  top["workload_points"] = json::Value{std::move(workload_array)};
  top["workload_single_points"] = json::Value{std::move(workload_single_array)};
  write_json_file(out_path, json::Value{std::move(top)});
  std::printf("goldens written to %s\n", out_path.c_str());
  return 0;
}
