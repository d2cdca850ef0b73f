#include "explore/scenario.hpp"

#include <stdexcept>

#include "core/config_check.hpp"
#include "core/rng.hpp"
#include "crypto/hash.hpp"
#include "protocols/registry.hpp"

namespace bftsim::explore {

namespace {

using cfgcheck::number_in;
using cfgcheck::require_keys;

[[nodiscard]] double sample_ms(Rng& rng, double lo, double hi) noexcept {
  return quantize_eighth_ms(rng.uniform(lo, hi));
}

template <typename T>
[[nodiscard]] const T& choice(Rng& rng, const std::vector<T>& options) {
  return options[static_cast<std::size_t>(rng.next_below(options.size()))];
}

[[nodiscard]] DelaySpec sample_delay(Rng& rng) {
  DelaySpec delay;
  switch (rng.next_below(4)) {
    case 0:
      delay = DelaySpec::constant(sample_ms(rng, 50.0, 400.0));
      break;
    case 1: {
      const double lo = sample_ms(rng, 10.0, 250.0);
      delay = DelaySpec::uniform(lo, lo + sample_ms(rng, 50.0, 300.0));
      break;
    }
    case 2:
      delay = DelaySpec::normal(sample_ms(rng, 100.0, 400.0),
                                sample_ms(rng, 10.0, 150.0));
      break;
    default:
      delay = DelaySpec::exponential(sample_ms(rng, 50.0, 300.0));
      break;
  }
  return delay;
}

/// Attacks applicable to `protocol` without violating its model
/// assumptions: a partition is temporary asynchrony (safe for partial-sync
/// and async protocols, a modeled environment violation for sync ones);
/// the equivocation and ADD attacks are budgeted Byzantine corruptions,
/// which every protocol claims to tolerate.
[[nodiscard]] std::vector<std::string> applicable_attacks(
    const std::string& protocol) {
  std::vector<std::string> attacks;
  const auto& info = ProtocolRegistry::instance().get(protocol);
  if (info.model != NetModel::kSync) attacks.push_back("partition");
  if (protocol == "pbft" || protocol == "pbft-canary") {
    attacks.push_back("pbft-equivocation");
  }
  if (protocol == "sync-hotstuff") attacks.push_back("sync-hotstuff-equivocation");
  if (protocol == "addv1" || protocol == "addv2" || protocol == "addv3") {
    attacks.push_back("add-static");
    if (protocol != "addv1") attacks.push_back("add-adaptive");
  }
  return attacks;
}

void sample_attack(Rng& rng, SimConfig& cfg) {
  const std::vector<std::string> attacks = applicable_attacks(cfg.protocol);
  if (attacks.empty()) return;
  cfg.attack = choice(rng, attacks);
  if (cfg.attack == "partition") {
    json::Object params;
    params["subnets"] = static_cast<std::int64_t>(2);
    params["resolve_ms"] = sample_ms(rng, 4'000.0, 40'000.0);
    params["mode"] = "drop";
    cfg.attack_params = json::Value{std::move(params)};
  }
}

void sample_faults(Rng& rng, SimConfig& cfg) {
  const std::uint32_t n = cfg.n;
  const std::uint64_t crash_count = rng.next_below(3);  // 0..2
  for (std::uint64_t i = 0; i < crash_count; ++i) {
    CrashWindow w;
    w.node = static_cast<NodeId>(rng.next_below(n));
    w.at_ms = sample_ms(rng, 0.0, 30'000.0);
    w.duration_ms = sample_ms(rng, 500.0, 15'000.0);
    cfg.faults.crashes.push_back(w);
  }
  const std::uint64_t flap_count = rng.next_below(3);  // 0..2
  for (std::uint64_t i = 0; i < flap_count; ++i) {
    LinkFlapWindow w;
    w.a = static_cast<NodeId>(rng.next_below(n));
    w.b = static_cast<NodeId>(rng.next_below(n - 1));
    if (w.b >= w.a) ++w.b;  // distinct endpoints
    w.at_ms = sample_ms(rng, 0.0, 30'000.0);
    w.duration_ms = sample_ms(rng, 500.0, 15'000.0);
    cfg.faults.link_flaps.push_back(w);
  }
  if (rng.next_below(4) == 0) {  // message corruption, bounded window
    cfg.faults.corruption.rate =
        static_cast<double>(1 + rng.next_below(12)) / 256.0;  // ~0.4%..4.7%
    cfg.faults.corruption.start_ms = 0.0;
    cfg.faults.corruption.end_ms = sample_ms(rng, 10'000.0, 60'000.0);
  }
  if (rng.next_below(4) == 0) {  // modest clock imperfection
    cfg.faults.clock.max_skew_ms = sample_ms(rng, 1.0, 30.0);
    cfg.faults.clock.max_drift =
        static_cast<double>(rng.next_below(21)) / 1024.0;  // 0..~2%
  }
}

}  // namespace

ScenarioSpace ScenarioSpace::defaults() {
  ScenarioSpace space;
  space.protocols = ProtocolRegistry::instance().names();
  return space;
}

ScenarioSpace ScenarioSpace::canary() {
  ScenarioSpace space;
  space.protocols = {"pbft-canary"};
  space.attack_rate = 0.75;
  return space;
}

json::Value ScenarioSpace::to_json() const {
  json::Object o;
  json::Array protos;
  for (const std::string& p : protocols) protos.emplace_back(p);
  o["protocols"] = json::Value{std::move(protos)};
  json::Array counts;
  for (const std::uint32_t n : node_counts) {
    counts.emplace_back(static_cast<std::int64_t>(n));
  }
  o["node_counts"] = json::Value{std::move(counts)};
  json::Array lambdas;
  for (const double l : lambdas_ms) lambdas.emplace_back(l);
  o["lambdas_ms"] = json::Value{std::move(lambdas)};
  o["attack_rate"] = attack_rate;
  o["fault_rate"] = fault_rate;
  o["max_time_ms"] = max_time_ms;
  return json::Value{std::move(o)};
}

ScenarioSpace ScenarioSpace::from_json(const json::Value& v,
                                       const std::string& path) {
  require_keys(v, path,
               {"protocols", "node_counts", "lambdas_ms", "attack_rate",
                "fault_rate", "max_time_ms"});
  ScenarioSpace space = ScenarioSpace::defaults();
  if (const json::Value* p = v.as_object().find("protocols")) {
    space.protocols.clear();
    for (const json::Value& name : p->as_array()) {
      space.protocols.push_back(name.as_string());
    }
  }
  if (const json::Value* p = v.as_object().find("node_counts")) {
    space.node_counts.clear();
    for (const json::Value& n : p->as_array()) {
      const std::int64_t count = n.as_int();
      if (count < 4 || count > 1000) {
        cfgcheck::fail(path + ".node_counts", "entries must be in [4, 1000]");
      }
      space.node_counts.push_back(static_cast<std::uint32_t>(count));
    }
  }
  if (const json::Value* p = v.as_object().find("lambdas_ms")) {
    space.lambdas_ms.clear();
    for (const json::Value& l : p->as_array()) {
      space.lambdas_ms.push_back(l.as_number());
    }
  }
  space.attack_rate = number_in(v, path, "attack_rate", space.attack_rate, 0.0, 1.0);
  space.fault_rate = number_in(v, path, "fault_rate", space.fault_rate, 0.0, 1.0);
  space.max_time_ms =
      number_in(v, path, "max_time_ms", space.max_time_ms, 1.0, 1e12);
  if (space.protocols.empty()) cfgcheck::fail(path + ".protocols", "must be non-empty");
  if (space.node_counts.empty()) {
    cfgcheck::fail(path + ".node_counts", "must be non-empty");
  }
  if (space.lambdas_ms.empty()) {
    cfgcheck::fail(path + ".lambdas_ms", "must be non-empty");
  }
  return space;
}

std::string Scenario::id() const {
  return "campaign-" + std::to_string(campaign_seed) + "/scenario-" +
         std::to_string(index);
}

Scenario generate_scenario(const ScenarioSpace& space,
                           std::uint64_t campaign_seed, std::uint64_t index) {
  if (space.protocols.empty()) {
    throw std::invalid_argument("scenario space has no protocols");
  }
  // The stream depends only on (campaign seed, index): scenario i is the
  // same whether generated first, last, or alone.
  Rng rng(hash_words({0x66757a7aULL /* "fuzz" */, campaign_seed, index}));

  Scenario scenario;
  scenario.campaign_seed = campaign_seed;
  scenario.index = index;
  SimConfig& cfg = scenario.config;

  cfg.protocol = choice(rng, space.protocols);
  const ProtocolInfo& info = ProtocolRegistry::instance().get(cfg.protocol);
  cfg.n = choice(rng, space.node_counts);
  cfg.lambda_ms = choice(rng, space.lambdas_ms);
  cfg.delay = sample_delay(rng);
  // Synchronous-model protocols are only safe when the network honors the
  // λ bound they are configured with; an unbounded delay tail would "find"
  // the textbook synchrony violation, not a bug. Clamp their delays at λ.
  if (info.model == NetModel::kSync) cfg.delay.max_ms = cfg.lambda_ms;
  // Keep run seeds below 2^53 so they survive the double-backed JSON layer
  // exactly — findings must round-trip bit-identically.
  cfg.seed = rng.next_u64() >> 11;
  // Multi-decision targets only make sense for pipelined protocols; the
  // one-shot ones (ADD, Algorand's single height, AsyncBA, this repo's
  // per-height PBFT) never reach a target above 1 and would read as
  // liveness violations. The draw happens unconditionally so the rest of
  // the stream does not depend on the protocol's traits.
  const auto extra_decisions = static_cast<std::uint32_t>(rng.next_below(3));
  cfg.decisions = info.measured_decisions > 1 ? 1 + extra_decisions : 1;
  cfg.max_time_ms = space.max_time_ms;
  if (rng.next_double() < space.attack_rate) sample_attack(rng, cfg);
  if (rng.next_double() < space.fault_rate) sample_faults(rng, cfg);
  cfg.record_trace = true;  // the oracles read the trace

  cfg.validate();
  return scenario;
}

}  // namespace bftsim::explore
