#include "adversary/search.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "core/thread_pool.hpp"
#include "explore/shrink.hpp"
#include "protocols/registry.hpp"
#include "sim/simulation.hpp"

namespace bftsim::adversary {

namespace {

[[nodiscard]] SimConfig attacked_config(const SimConfig& base,
                                        const AttackSpace& space,
                                        const ParamVector& pv) {
  SimConfig cfg = base;
  cfg.attack = space.attack;
  cfg.attack_params = params_of(space, pv);
  return cfg;
}

[[nodiscard]] double score_of(const explore::Evidence& evidence) {
  return std::get<DamageReport>(evidence.verdict).score;
}

}  // namespace

SimConfig search_base_config(const std::string& protocol,
                             const SearchOptions& options) {
  SimConfig cfg;
  cfg.protocol = protocol;
  cfg.n = options.n;
  cfg.lambda_ms = options.lambda_ms;
  cfg.delay = DelaySpec::normal(250.0, 50.0);
  // Same rule as the fuzzer's scenario generator: a synchronous-model
  // protocol is only safe when the network honors its λ bound, so an
  // unbounded delay tail would measure a synchrony violation, not damage.
  const ProtocolInfo& info = ProtocolRegistry::instance().get(protocol);
  if (info.model == NetModel::kSync) cfg.delay.max_ms = cfg.lambda_ms;
  cfg.seed = options.seed;
  cfg.max_time_ms = 600'000.0;
  cfg.record_trace = true;
  return options.watchdog.apply(std::move(cfg));
}

json::Value SearchReport::to_json() const {
  json::Object o;
  o["schema"] = "bftsim-adversary-search-v2";
  o["seed"] = seed;
  json::Array cells;
  for (const WorstCase& w : worst) {
    json::Object c;
    c["protocol"] = w.protocol;
    c["attack"] = w.attack;
    c["params"] = w.params;
    c["damage"] = w.damage.to_json();
    c["evaluations"] = w.evaluations;
    if (w.finding) c["finding"] = w.finding->to_json();
    cells.emplace_back(json::Value{std::move(c)});
  }
  o["worst"] = json::Value{std::move(cells)};
  json::Array refusals;
  for (const std::string& r : refused) refusals.emplace_back(r);
  o["refused"] = json::Value{std::move(refusals)};
  return json::Value{std::move(o)};
}

std::string SearchReport::table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-14s %-22s %10s  %s\n", "protocol",
                "attack", "score", "damage");
  out += line;
  out += std::string(78, '-') + '\n';
  for (const WorstCase& w : worst) {
    std::snprintf(line, sizeof line, "%-14s %-22s %10.2f  %s\n",
                  w.protocol.c_str(), w.attack.c_str(), w.damage.score,
                  w.damage.describe().c_str());
    out += line;
    if (w.finding) {
      out += "  params: " + w.params.dump() + '\n';
    }
  }
  for (const std::string& r : refused) out += "REFUSED " + r + '\n';
  return out;
}

SearchReport run_search(const SearchOptions& options) {
  ThreadPool pool(options.jobs == 0 ? ThreadPool::default_workers()
                                    : options.jobs);

  SearchReport report;
  report.seed = options.seed;

  for (const std::string& protocol : options.protocols) {
    const SimConfig base = search_base_config(protocol, options);
    // One shared baseline per protocol: every candidate of every cell is
    // scored against the same attack-free run (it IS baseline_of(candidate)
    // for unshrunk candidates, since only attack/attack_params differ).
    const RunResult baseline = run_simulation(base);

    for (const AttackSpace& space : attack_spaces(protocol, base)) {
      const std::string cell = protocol + "/" + space.attack;
      std::set<ParamVector> seen;
      ParamVector incumbent_pv;
      std::optional<explore::Evidence> incumbent;
      std::uint64_t evaluations = 0;

      // Evaluates a candidate batch on the pool; slots fold up in index
      // order (strict > keeps the first maximum), so the incumbent is
      // independent of scheduling.
      const auto run_batch = [&](const std::vector<ParamVector>& batch) {
        std::vector<ParamVector> fresh;
        for (const ParamVector& pv : batch) {
          if (seen.insert(pv).second) fresh.push_back(pv);
        }
        auto slots = fan_out(pool, fresh.size(), [&](std::size_t i) {
          const SimConfig cfg = attacked_config(base, space, fresh[i]);
          const RunResult result = run_simulation(cfg);
          return explore::Evidence{
              compute_damage(cfg, baseline, result),
              {{result.trace_fingerprint, result.trace_records},
               {baseline.trace_fingerprint, baseline.trace_records}}};
        });
        evaluations += fresh.size();
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (!slots[i].value) continue;
          if (!incumbent || score_of(*slots[i].value) > score_of(*incumbent)) {
            incumbent = std::move(slots[i].value);
            incumbent_pv = fresh[i];
          }
        }
      };

      // Round 0: seeded grid. Rounds 1..R: the incumbent's lattice
      // neighbors plus fresh seeded draws (restarts keep the local search
      // from anchoring on a weak round-0 sample).
      std::vector<ParamVector> batch;
      for (std::uint64_t i = 0; i < options.grid; ++i) {
        batch.push_back(draw_candidate(space, options.seed, 0, i));
      }
      run_batch(batch);
      for (std::uint64_t round = 1; round <= options.rounds; ++round) {
        if (!incumbent) break;
        batch = neighbors(space, incumbent_pv);
        for (std::uint64_t i = 0; i < options.grid / 2; ++i) {
          batch.push_back(draw_candidate(space, options.seed, round, i));
        }
        run_batch(batch);
      }

      if (!incumbent) {
        report.refused.push_back(cell + ": no candidate evaluated cleanly");
        continue;
      }

      WorstCase worst;
      worst.protocol = protocol;
      worst.attack = space.attack;
      worst.params = params_of(space, incumbent_pv);
      worst.damage = std::get<DamageReport>(incumbent->verdict);
      worst.evaluations = evaluations;

      const double target = worst.damage.score;
      if (target > 0.0) {
        // Shrink the winning config while its score stays at least the
        // winning score. Every probe recomputes its own baseline (shrink
        // transformations change n / delay / horizon, so the shared one no
        // longer matches).
        explore::Finding start;
        start.id = "advsearch-" + std::to_string(options.seed) + "/" + cell;
        start.seed = options.seed;
        start.config = attacked_config(base, space, incumbent_pv);
        start.evidence = std::move(*incumbent);
        explore::ShrinkPolicy policy;
        policy.keep_attack = true;
        policy.skip_horizon = worst.damage.stalled;
        policy.max_runs = options.shrink_runs;
        explore::Finding finding = explore::shrink_config(
            std::move(start),
            [target](const SimConfig& candidate)
                -> std::optional<explore::Evidence> {
              explore::Evidence evidence = explore::damage_evidence(candidate);
              if (score_of(evidence) < target) return std::nullopt;
              return evidence;
            },
            policy);
        finding.shrink_runs *= 2;  // two simulations per probe

        // A worst case only counts when its finding replays with the exact
        // recorded score. Anything else means a determinism bug and must
        // be surfaced, not tabulated.
        const explore::Replay replay = finding.replay();
        if (!replay.ok()) {
          report.refused.push_back(
              cell + ": reproducer replay diverged (score " +
              json::Value{score_of(replay.evidence)}.dump() +
              " vs recorded " + json::Value{score_of(finding.evidence)}.dump() +
              ")");
          continue;
        }

        worst.params = finding.config.attack_params;
        worst.damage = std::get<DamageReport>(finding.evidence.verdict);
        worst.finding = std::move(finding);
      }

      report.worst.push_back(std::move(worst));
    }
  }

  std::stable_sort(report.worst.begin(), report.worst.end(),
                   [](const WorstCase& a, const WorstCase& b) {
                     if (a.damage.score != b.damage.score) {
                       return a.damage.score > b.damage.score;
                     }
                     if (a.protocol != b.protocol) return a.protocol < b.protocol;
                     return a.attack < b.attack;
                   });
  return report;
}

}  // namespace bftsim::adversary
