#include "core/config.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/config_check.hpp"

namespace bftsim {

namespace {

using cfgcheck::fail;
using cfgcheck::number_in;
using cfgcheck::require_keys;

[[nodiscard]] std::string kind_name(DelaySpec::Kind kind) {
  switch (kind) {
    case DelaySpec::Kind::kConstant: return "constant";
    case DelaySpec::Kind::kUniform: return "uniform";
    case DelaySpec::Kind::kNormal: return "normal";
    case DelaySpec::Kind::kExponential: return "exponential";
  }
  return "?";
}

[[nodiscard]] DelaySpec::Kind kind_from_name(const std::string& name,
                                             const std::string& path) {
  if (name == "constant") return DelaySpec::Kind::kConstant;
  if (name == "uniform") return DelaySpec::Kind::kUniform;
  if (name == "normal") return DelaySpec::Kind::kNormal;
  if (name == "exponential") return DelaySpec::Kind::kExponential;
  fail(path + ".kind", "unknown delay kind \"" + name + "\"");
}

}  // namespace

std::string DelaySpec::describe() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kConstant: os << "C(" << a << ")"; break;
    case Kind::kUniform: os << "U(" << a << "," << b << ")"; break;
    case Kind::kNormal: os << "N(" << a << "," << b << ")"; break;
    case Kind::kExponential: os << "Exp(" << a << ")"; break;
  }
  return os.str();
}

json::Value DelaySpec::to_json() const {
  json::Object o;
  o["kind"] = kind_name(kind);
  o["a"] = a;
  o["b"] = b;
  o["min_ms"] = min_ms;
  o["max_ms"] = max_ms;
  return json::Value{std::move(o)};
}

DelaySpec DelaySpec::from_json(const json::Value& v, const std::string& path) {
  require_keys(v, path, {"kind", "a", "b", "min_ms", "max_ms"});
  DelaySpec spec;
  spec.kind = kind_from_name(v.get_string("kind", "normal"), path);
  spec.a = number_in(v, path, "a", spec.a, 0.0, 1e12);
  spec.b = number_in(v, path, "b", spec.b, 0.0, 1e12);
  spec.min_ms = number_in(v, path, "min_ms", spec.min_ms, 0.0, 1e12);
  spec.max_ms = number_in(v, path, "max_ms", spec.max_ms, 0.0, 1e12);
  return spec;
}

json::Value CostModel::to_json() const {
  json::Object o;
  o["verify_ms"] = verify_ms;
  o["sign_ms"] = sign_ms;
  return json::Value{std::move(o)};
}

CostModel CostModel::from_json(const json::Value& v, const std::string& path) {
  require_keys(v, path, {"verify_ms", "sign_ms"});
  CostModel cost;
  cost.verify_ms = number_in(v, path, "verify_ms", cost.verify_ms, 0.0, 1e9);
  cost.sign_ms = number_in(v, path, "sign_ms", cost.sign_ms, 0.0, 1e9);
  return cost;
}

json::Value EngineConfig::to_json() const {
  json::Object o;
  o["intra_jobs"] = static_cast<std::int64_t>(intra_jobs);
  switch (rng) {
    case RngMode::kAuto: o["rng"] = std::string("auto"); break;
    case RngMode::kPerNode: o["rng"] = std::string("per_node"); break;
  }
  return json::Value{std::move(o)};
}

EngineConfig EngineConfig::from_json(const json::Value& v,
                                     const std::string& path) {
  require_keys(v, path, {"intra_jobs", "rng"});
  EngineConfig engine;
  engine.intra_jobs = static_cast<std::uint32_t>(cfgcheck::int_in(
      v, path, "intra_jobs", engine.intra_jobs, 1, kMaxIntraJobs));
  const std::string mode = v.get_string("rng", "auto");
  if (mode == "auto") {
    engine.rng = RngMode::kAuto;
  } else if (mode == "stream") {
    fail(path + ".rng",
         "rng mode \"stream\" was removed; use \"auto\", which draws from "
         "the same shared streams at intra_jobs = 1");
  } else if (mode == "per_node") {
    engine.rng = RngMode::kPerNode;
  } else {
    fail(path + ".rng", "unknown rng mode \"" + mode + "\"");
  }
  return engine;
}

void SimConfig::validate() const {
  if (n == 0) throw std::invalid_argument("config: n must be positive");
  if (honest > n) throw std::invalid_argument("config: honest > n");
  if (lambda_ms <= 0) throw std::invalid_argument("config: lambda_ms must be positive");
  if (decisions == 0) throw std::invalid_argument("config: decisions must be positive");
  if (max_time_ms <= 0) throw std::invalid_argument("config: max_time_ms must be positive");
  if (protocol.empty()) throw std::invalid_argument("config: protocol missing");
  if (delay.min_ms < 0) throw std::invalid_argument("config: delay.min_ms negative");
  if (delay.max_ms != 0 && delay.max_ms < delay.min_ms) {
    throw std::invalid_argument("config: delay.max_ms < delay.min_ms");
  }
  if (delay.kind == DelaySpec::Kind::kUniform && delay.b < delay.a) {
    throw std::invalid_argument("config: uniform delay hi < lo");
  }
  if (cost.verify_ms < 0 || cost.sign_ms < 0) {
    throw std::invalid_argument("config: negative computation cost");
  }
  if (engine.intra_jobs < 1 || engine.intra_jobs > EngineConfig::kMaxIntraJobs) {
    throw std::invalid_argument("config: engine.intra_jobs out of [1, 128]");
  }
  // Note: engine.per_node_rng() combined with a configured attack is NOT
  // rejected here — a global attacker's observation order is not
  // lane-independent, so the controller deterministically falls back to
  // the serial engine for such runs and records an "engine-serial-fallback"
  // warning on the RunResult. Rejecting the combination used to kill whole
  // sweeps that set a global engine.intra_jobs at their attack points.
  if (engine.per_node_rng() && obs.timeline_enabled()) {
    throw std::invalid_argument(
        "config: the run timeline sampler is serial-only; disable "
        "obs.timeline_tick_ms or engine parallelism");
  }
  net.validate();
  if (net.enabled() && topology.is_object()) {
    cfgcheck::fail("$.net",
                   "cannot combine with $.topology: the WAN backend replaces "
                   "the cross-region transform (move the regions into "
                   "$.net.rtt)");
  }
  if (engine.per_node_rng() && (net.gossip() || net.bandwidth_enabled())) {
    // Gossip relays and FIFO bandwidth queues are inherently order-dependent
    // across sending nodes, so they have no lane-invariant per-node RNG
    // form. Matrix-only WAN runs are pure per-pair delay offsets and stay
    // windowed-parallel safe.
    cfgcheck::fail("$.net",
                   "gossip/bandwidth backends are serial-only; drop "
                   "engine.intra_jobs > 1 / rng \"per_node\" or keep only the "
                   "RTT matrix");
  }
  if (net.gossip() && !attack.empty()) {
    cfgcheck::fail("$.net.backend",
                   "gossip cannot combine with an attack scenario: the "
                   "global attacker observes direct transmissions only");
  }
  faults.validate(n);
  workload.validate();
  // Note: engine.per_node_rng() combined with a closed-loop workload is
  // likewise NOT rejected: resubmission timing depends on decision order,
  // which only the serial engine provides, so the controller falls back
  // serially with an "engine-serial-fallback" warning (open-loop workloads
  // are per-node streams and stay windowed-parallel safe).
  obs.validate();
}

json::Value SimConfig::to_json() const {
  json::Object o;
  o["protocol"] = protocol;
  o["n"] = static_cast<std::int64_t>(n);
  o["honest"] = static_cast<std::int64_t>(honest);
  o["lambda_ms"] = lambda_ms;
  o["delay"] = delay.to_json();
  o["seed"] = static_cast<std::int64_t>(seed);
  o["decisions"] = static_cast<std::int64_t>(decisions);
  o["max_time_ms"] = max_time_ms;
  o["max_events"] = static_cast<std::int64_t>(max_events);
  o["attack"] = attack;
  if (attack_params.is_object()) o["attack_params"] = attack_params;
  if (cost.enabled()) o["cost"] = cost.to_json();
  if (topology.is_object()) o["topology"] = topology;
  if (net.enabled()) o["net"] = net.to_json();
  if (protocol_params.is_object()) o["protocol_params"] = protocol_params;
  if (faults.enabled()) o["faults"] = faults.to_json();
  if (workload.enabled()) o["workload"] = workload.to_json();
  o["record_trace"] = record_trace;
  o["record_views"] = record_views;
  if (obs.enabled()) o["obs"] = obs.to_json();
  if (engine.active()) o["engine"] = engine.to_json();
  return json::Value{std::move(o)};
}

SimConfig SimConfig::from_json(const json::Value& v) {
  require_keys(v, "$",
               {"protocol", "n", "honest", "lambda_ms", "delay", "seed",
                "decisions", "max_time_ms", "max_events", "attack",
                "attack_params", "protocol_params", "cost", "topology", "net",
                "faults", "workload", "record_trace", "record_views", "obs",
                "engine"});
  SimConfig cfg;
  cfg.protocol = v.get_string("protocol", cfg.protocol);
  cfg.n = static_cast<std::uint32_t>(cfgcheck::int_in(v, "$", "n", cfg.n, 1, 1'000'000));
  cfg.honest = static_cast<std::uint32_t>(
      cfgcheck::int_in(v, "$", "honest", cfg.honest, 0, cfg.n));
  cfg.lambda_ms = number_in(v, "$", "lambda_ms", cfg.lambda_ms, 1e-6, 1e12);
  if (const json::Value* d = v.as_object().find("delay")) {
    cfg.delay = DelaySpec::from_json(*d, "$.delay");
  }
  cfg.seed = static_cast<std::uint64_t>(cfgcheck::int_in(
      v, "$", "seed", static_cast<std::int64_t>(cfg.seed), 0,
      std::numeric_limits<std::int64_t>::max()));
  cfg.decisions = static_cast<std::uint32_t>(
      cfgcheck::int_in(v, "$", "decisions", cfg.decisions, 1, 1'000'000'000));
  cfg.max_time_ms = number_in(v, "$", "max_time_ms", cfg.max_time_ms, 1e-6, 1e12);
  cfg.max_events = static_cast<std::uint64_t>(cfgcheck::int_in(
      v, "$", "max_events", static_cast<std::int64_t>(cfg.max_events), 1,
      std::numeric_limits<std::int64_t>::max()));
  cfg.attack = v.get_string("attack", cfg.attack);
  if (const json::Value* p = v.as_object().find("attack_params")) {
    cfg.attack_params = *p;
  }
  if (const json::Value* p = v.as_object().find("protocol_params")) {
    cfg.protocol_params = *p;
  }
  if (const json::Value* c = v.as_object().find("cost")) {
    cfg.cost = CostModel::from_json(*c, "$.cost");
  }
  if (const json::Value* t = v.as_object().find("topology")) {
    // The spec itself is parsed by TopologySpec::from_json in the network
    // layer; the structural checks are mirrored here so a typo fails at
    // config-load time with a "$.topology..." path like every other key.
    require_keys(*t, "$.topology", {"regions", "cross_factor", "cross_extra_ms"});
    (void)cfgcheck::int_in(*t, "$.topology", "regions", 1, 1, 1'000'000);
    (void)number_in(*t, "$.topology", "cross_factor", 1.0, 0.0, 1e6);
    (void)number_in(*t, "$.topology", "cross_extra_ms", 0.0, 0.0, 1e9);
    cfg.topology = *t;
  }
  if (const json::Value* nv = v.as_object().find("net")) {
    cfg.net = WanSpec::from_json(*nv, "$.net");
  }
  if (const json::Value* f = v.as_object().find("faults")) {
    cfg.faults = FaultConfig::from_json(*f, "$.faults");
  }
  if (const json::Value* w = v.as_object().find("workload")) {
    cfg.workload = WorkloadSpec::from_json(*w, "$.workload");
  }
  cfg.record_trace = v.get_bool("record_trace", cfg.record_trace);
  cfg.record_views = v.get_bool("record_views", cfg.record_views);
  if (const json::Value* o = v.as_object().find("obs")) {
    cfg.obs = ObsConfig::from_json(*o, "$.obs");
  }
  if (const json::Value* e = v.as_object().find("engine")) {
    cfg.engine = EngineConfig::from_json(*e, "$.engine");
  }
  cfg.validate();
  return cfg;
}

SimConfig SimConfig::from_file(const std::string& path) {
  return from_json(json::parse_file(path));
}

}  // namespace bftsim
