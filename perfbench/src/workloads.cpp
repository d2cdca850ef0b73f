#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/json.hpp"
#include "protocols/registry.hpp"

namespace perfbench {

namespace {

using bftsim::json::Object;
using bftsim::json::Value;

/// λ = 1000 ms and N(250, 50) delays: the paper's default setting (§IV).
Object base_config(const std::string& protocol, std::uint32_t n,
                   std::uint32_t decisions) {
  Object delay;
  delay["kind"] = "normal";
  delay["a"] = 250.0;
  delay["b"] = 50.0;
  Object o;
  o["protocol"] = protocol;
  o["n"] = static_cast<std::int64_t>(n);
  o["lambda_ms"] = 1000.0;
  o["delay"] = Value{std::move(delay)};
  o["decisions"] = static_cast<std::int64_t>(decisions);
  return o;
}

std::string text(Object o) { return Value{std::move(o)}.dump(); }

/// Seeds stay below 2^53 so they survive the double-based JSON layer.
std::uint64_t clamp_seed(std::uint64_t seed) { return seed % 1'000'000'000ULL; }

Workload single_runs(const std::string& name, const Object& config,
                     std::uint64_t seed, std::size_t runs) {
  Workload w;
  w.name = name;
  for (std::size_t i = 0; i < runs; ++i) {
    Object o = config;
    o["seed"] = static_cast<std::int64_t>(clamp_seed(seed) + i);
    w.labels.push_back(name + "/seed-" + std::to_string(clamp_seed(seed) + i));
    w.configs.push_back(text(std::move(o)));
  }
  return w;
}

Workload pbft_wide(std::uint64_t seed, bool smoke, std::size_t nproc) {
  Workload w = single_runs(
      "pbft-wide", base_config("pbft", smoke ? 64 : 1024, 1), seed, 3);
  w.timeline_tick_ms = 1.0;
  w.windowed_lanes =
      static_cast<std::uint32_t>(std::min<std::size_t>(2, nproc));
  return w;
}

Workload hotstuff_wide(std::uint64_t seed, bool smoke) {
  Workload w = single_runs(
      "hotstuff-wide",
      base_config("hotstuff-ns", smoke ? 128 : 4096, smoke ? 5 : 30), seed, 1);
  w.timeline_tick_ms = 20.0;
  return w;
}

Workload pbft_long(std::uint64_t seed, bool smoke) {
  const std::uint32_t decisions = smoke ? 100 : 2000;
  Object o = base_config("pbft", 16, decisions);
  o["max_time_ms"] = 1e9;
  Object wl;
  wl["mode"] = "open";
  wl["arrival"] = "poisson";
  wl["rate_rps"] = 1000.0;
  wl["max_batch"] = 64;
  o["workload"] = Value{std::move(wl)};
  Workload w = single_runs("pbft-long", o, seed, 1);
  w.timeline_tick_ms = 1000.0;
  w.half_decisions = decisions / 2;
  return w;
}

/// The paper's §IV scenario grid at n = 16: every protocol clean and with
/// f = 5 fail-stopped nodes; the partition of Fig. 6 (resolved at 33 s) for
/// the protocols that tolerate one; the ADD+ static/adaptive attacks of
/// Fig. 8; one 2 s leader crash; and a geo8 gossip WAN.
Workload paper_sweep(std::uint64_t seed, bool smoke, std::size_t nproc) {
  Workload w;
  w.name = "paper-sweep";
  w.sweep = true;
  w.repeats = smoke ? 2 : 100;
  w.jobs = std::max<std::size_t>(1, nproc);
  w.timeline_tick_ms = 50.0;

  const bftsim::ProtocolRegistry& registry =
      bftsim::ProtocolRegistry::instance();
  const std::uint64_t base = clamp_seed(seed) * 100'000;
  auto add = [&](const std::string& family, const std::string& protocol,
                 Object o) {
    o["seed"] = static_cast<std::int64_t>(base + 1000 * w.configs.size());
    w.labels.push_back(family + "/" + protocol);
    w.families.push_back(family);
    w.configs.push_back(text(std::move(o)));
  };
  auto point = [&](const std::string& protocol) {
    return base_config(protocol, 16, registry.get(protocol).measured_decisions);
  };
  auto is_sync = [&](const std::string& protocol) {
    return registry.get(protocol).model == bftsim::NetModel::kSync;
  };
  auto is_add = [](const std::string& protocol) {
    return protocol.rfind("addv", 0) == 0;
  };
  const std::vector<std::string> protocols = registry.names();

  for (const std::string& p : protocols) add("clean", p, point(p));
  for (const std::string& p : protocols) {
    Object o = point(p);
    o["honest"] = 11;
    add("failstop", p, std::move(o));
  }
  for (const std::string& p : protocols) {
    if (is_sync(p) && p != "algorand") continue;
    Object o = point(p);
    o["decisions"] = 1;
    o["attack"] = "partition";
    o["attack_params"] = bftsim::json::parse(
        R"({"resolve_ms": 33000, "mode": "drop", "subnets": 2})");
    add("partition", p, std::move(o));
  }
  for (const std::string& p : protocols) {
    if (!is_add(p)) continue;
    for (const char* attack : {"add-static", "add-adaptive"}) {
      Object o = point(p);
      o["attack"] = attack;
      add("add-attack", p + "/" + attack, std::move(o));
    }
  }
  // Protocols that recover from a 2 s leader crash; the others livelock to
  // the horizon (see README.md, "Exclusions").
  for (const char* p : {"pbft", "hotstuff-ns", "librabft", "algorand"}) {
    Object o = point(p);
    o["faults"] = bftsim::json::parse(
        R"({"crashes": [{"node": 0, "at_ms": 500, "duration_ms": 2000}]})");
    add("crash", p, std::move(o));
  }
  for (const std::string& p : protocols) {
    if (is_sync(p)) continue;
    Object o = point(p);
    o["net"] = bftsim::json::parse(
        R"({"backend": "gossip", "fanout": 3, "rtt": {"matrix": "geo8"},)"
        R"( "uplink_mbps": 200, "downlink_mbps": 200})");
    add("wan", p, std::move(o));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke,
                       std::size_t nproc) {
  if (name == "pbft-wide") return pbft_wide(seed, smoke, nproc);
  if (name == "hotstuff-wide") return hotstuff_wide(seed, smoke);
  if (name == "pbft-long") return pbft_long(seed, smoke);
  if (name == "paper-sweep") return paper_sweep(seed, smoke, nproc);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
