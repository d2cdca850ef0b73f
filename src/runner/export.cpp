// Serializers turning runner outputs (RunResult, Aggregate, RunManifest)
// into json::Value trees, plus the pretty-printing file writer. Key order
// is deliberate — the json layer preserves insertion order, so exported
// files diff cleanly across runs.
#include "runner/export.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace bftsim {

json::Value summary_to_json(const Summary& summary) {
  json::Object o;
  o["count"] = static_cast<std::int64_t>(summary.count);
  o["mean"] = summary.mean;
  o["stddev"] = summary.stddev;
  o["min"] = summary.min;
  o["max"] = summary.max;
  o["median"] = summary.median;
  o["p90"] = summary.p90;
  o["p99"] = summary.p99;
  return json::Value{std::move(o)};
}

json::Value workload_to_json(const WorkloadStats& wl) {
  json::Object o;
  o["submitted"] = static_cast<std::int64_t>(wl.submitted);
  o["decided"] = static_cast<std::int64_t>(wl.decided);
  o["batched"] = static_cast<std::int64_t>(wl.batched);
  o["pending_end"] = static_cast<std::int64_t>(wl.pending_end);
  o["batched_undecided"] = static_cast<std::int64_t>(wl.batched_undecided);
  o["batches"] = static_cast<std::int64_t>(wl.batches);
  o["empty_proposals"] = static_cast<std::int64_t>(wl.empty_proposals);
  o["empty_decisions"] = static_cast<std::int64_t>(wl.empty_decisions);
  o["duplicate_decides"] = static_cast<std::int64_t>(wl.duplicate_decides);
  o["max_in_flight"] = static_cast<std::int64_t>(wl.max_in_flight);
  o["duration_ms"] = wl.duration_ms;
  o["requests_per_sec"] = wl.requests_per_sec;
  o["latency_mean_ms"] = wl.latency_mean_ms;
  o["latency_min_ms"] = wl.latency_min_ms;
  o["latency_max_ms"] = wl.latency_max_ms;
  o["latency_p50_ms"] = wl.latency_p50_ms;
  o["latency_p99_ms"] = wl.latency_p99_ms;
  o["latency_p999_ms"] = wl.latency_p999_ms;
  return json::Value{std::move(o)};
}

json::Value result_to_json(const RunResult& result, bool include_views) {
  json::Object o;
  o["terminated"] = result.terminated;
  o["termination_reason"] = std::string(to_string(result.termination_reason));
  o["termination_ms"] = result.terminated ? json::Value{to_ms(result.termination_time)}
                                          : json::Value{nullptr};
  o["decisions_target"] = static_cast<std::int64_t>(result.decisions_target);
  o["per_decision_latency_ms"] = result.per_decision_latency_ms();
  o["messages_sent"] = static_cast<std::int64_t>(result.messages_sent);
  o["bytes_sent"] = static_cast<std::int64_t>(result.bytes_sent);
  o["messages_delivered"] = static_cast<std::int64_t>(result.messages_delivered);
  o["messages_dropped"] = static_cast<std::int64_t>(result.messages_dropped);
  o["messages_injected"] = static_cast<std::int64_t>(result.messages_injected);
  o["messages_corrupted"] = static_cast<std::int64_t>(result.messages_corrupted);
  o["events_processed"] = static_cast<std::int64_t>(result.events_processed);
  o["rounds_used"] = static_cast<std::int64_t>(result.rounds_used());
  o["wall_seconds"] = result.wall_seconds;
  o["safety_consistent"] = result.decisions_consistent();
  if (result.trace_records > 0) {
    o["trace_records"] = static_cast<std::int64_t>(result.trace_records);
    o["trace_fingerprint"] = fingerprint_to_hex(result.trace_fingerprint);
  }
  // Attacker activity and warnings only appear when present, so exports of
  // attack-free, warning-free runs stay byte-identical to previous releases.
  if (result.attacker_dropped != 0 || result.attacker_delayed != 0 ||
      result.attacker_modified != 0 || result.attacker_duplicated != 0) {
    json::Object atk;
    atk["dropped"] = static_cast<std::int64_t>(result.attacker_dropped);
    atk["delayed"] = static_cast<std::int64_t>(result.attacker_delayed);
    atk["modified"] = static_cast<std::int64_t>(result.attacker_modified);
    atk["duplicated"] = static_cast<std::int64_t>(result.attacker_duplicated);
    o["attacker_activity"] = json::Value{std::move(atk)};
  }
  // Same rule for the WAN gossip counters: present only for gossip runs.
  if (result.gossip_relayed != 0 || result.gossip_duplicates != 0) {
    json::Object gossip;
    gossip["relayed"] = static_cast<std::int64_t>(result.gossip_relayed);
    gossip["duplicates"] = static_cast<std::int64_t>(result.gossip_duplicates);
    o["gossip"] = json::Value{std::move(gossip)};
  }
  // Request-level workload results: present only when the run carried a
  // client workload, so workload-off exports stay byte-identical.
  if (result.workload.enabled) {
    o["workload"] = workload_to_json(result.workload);
  }
  if (!result.warnings.empty()) {
    json::Array warnings;
    for (const RunWarning& w : result.warnings) {
      json::Object wo;
      wo["code"] = w.code;
      wo["detail"] = w.detail;
      warnings.push_back(json::Value{std::move(wo)});
    }
    o["warnings"] = json::Value{std::move(warnings)};
  }

  json::Array decisions;
  for (const Decision& d : result.decisions) {
    json::Object dec;
    dec["node"] = static_cast<std::int64_t>(d.node);
    dec["at_ms"] = to_ms(d.at);
    dec["height"] = static_cast<std::int64_t>(d.height);
    dec["value"] = static_cast<std::int64_t>(static_cast<std::uint32_t>(d.value));
    decisions.push_back(json::Value{std::move(dec)});
  }
  o["decisions"] = json::Value{std::move(decisions)};

  json::Array ids;
  for (const NodeId id : result.failstopped) ids.emplace_back(static_cast<std::int64_t>(id));
  o["failstopped"] = json::Value{std::move(ids)};
  json::Array corrupted;
  for (const NodeId id : result.corrupted) corrupted.emplace_back(static_cast<std::int64_t>(id));
  o["corrupted"] = json::Value{std::move(corrupted)};

  if (include_views) {
    json::Array views;
    for (const ViewRecord& v : result.views) {
      json::Object rec;
      rec["node"] = static_cast<std::int64_t>(v.node);
      rec["at_ms"] = to_ms(v.at);
      rec["view"] = static_cast<std::int64_t>(v.view);
      views.push_back(json::Value{std::move(rec)});
    }
    o["views"] = json::Value{std::move(views)};
  }
  if (!result.timeline.empty()) {
    o["timeline"] = timeline_to_json(result.timeline, result.timeline_tick);
  }
  if (!result.profile.empty()) o["profile"] = result.profile.to_json();
  return json::Value{std::move(o)};
}

std::string fingerprint_to_hex(std::uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buf);
}

json::Value timeline_to_json(const std::vector<obs::TimelineSample>& samples,
                             Time tick) {
  json::Object o;
  o["tick_us"] = static_cast<std::int64_t>(tick);
  json::Array rows;
  rows.reserve(samples.size());
  for (const obs::TimelineSample& s : samples) rows.push_back(s.to_json());
  o["samples"] = json::Value{std::move(rows)};
  return json::Value{std::move(o)};
}

json::Value aggregate_to_json(const Aggregate& aggregate) {
  json::Object o;
  o["runs"] = static_cast<std::int64_t>(aggregate.runs);
  o["timeouts"] = static_cast<std::int64_t>(aggregate.timeouts);
  o["latency_ms"] = summary_to_json(aggregate.latency_ms);
  o["per_decision_latency_ms"] = summary_to_json(aggregate.per_decision_latency_ms);
  o["messages"] = summary_to_json(aggregate.messages);
  o["per_decision_messages"] = summary_to_json(aggregate.per_decision_messages);
  o["events"] = summary_to_json(aggregate.events);
  // Gated like the per-run block: workload-free aggregates keep their
  // previous byte-identical shape.
  if (aggregate.workload_runs > 0) {
    json::Object wl;
    wl["runs"] = static_cast<std::int64_t>(aggregate.workload_runs);
    wl["submitted"] = static_cast<std::int64_t>(aggregate.workload_submitted);
    wl["decided"] = static_cast<std::int64_t>(aggregate.workload_decided);
    wl["requests_per_sec"] = summary_to_json(aggregate.workload_rps);
    wl["latency_p50_ms"] = summary_to_json(aggregate.workload_p50_ms);
    wl["latency_p99_ms"] = summary_to_json(aggregate.workload_p99_ms);
    wl["latency_p999_ms"] = summary_to_json(aggregate.workload_p999_ms);
    o["workload"] = json::Value{std::move(wl)};
  }
  o["wall_seconds_total"] = aggregate.wall_seconds_total;
  return json::Value{std::move(o)};
}

json::Value run_failure_to_json(const RunFailure& failure) {
  json::Object o;
  o["point"] = static_cast<std::int64_t>(failure.point);
  o["repeat"] = static_cast<std::int64_t>(failure.repeat);
  o["seed"] = static_cast<std::int64_t>(failure.seed);
  o["label"] = failure.label;
  o["error"] = failure.error;
  o["config"] = failure.config.to_json();
  return json::Value{std::move(o)};
}

json::Value termination_tally_to_json(const TerminationTally& tally) {
  json::Object o;
  o["decided"] = static_cast<std::int64_t>(tally.decided);
  o["horizon"] = static_cast<std::int64_t>(tally.horizon);
  o["event_budget"] = static_cast<std::int64_t>(tally.event_budget);
  o["queue_drained"] = static_cast<std::int64_t>(tally.queue_drained);
  o["failed"] = static_cast<std::int64_t>(tally.failed);
  return json::Value{std::move(o)};
}

json::Value sweep_outcome_to_json(const SweepOutcome& outcome) {
  json::Object o;
  json::Array points;
  points.reserve(outcome.points.size());
  for (const PointOutcome& point : outcome.points) {
    json::Object p;
    p["aggregate"] = aggregate_to_json(point.aggregate);
    p["termination"] = termination_tally_to_json(point.tally);
    points.push_back(json::Value{std::move(p)});
  }
  o["points"] = json::Value{std::move(points)};
  json::Array failures;
  failures.reserve(outcome.failures.size());
  for (const RunFailure& failure : outcome.failures) {
    failures.push_back(run_failure_to_json(failure));
  }
  o["failures"] = json::Value{std::move(failures)};
  o["ok"] = outcome.ok();
  return json::Value{std::move(o)};
}

json::Value manifest_to_json(const RunManifest& manifest) {
  json::Object o;
  o["name"] = manifest.name;
  o["protocol"] = manifest.config.protocol;
  o["n"] = static_cast<std::int64_t>(manifest.config.n);
  o["lambda_ms"] = manifest.config.lambda_ms;
  o["delay"] = manifest.config.delay.describe();
  o["seed_begin"] = static_cast<std::int64_t>(manifest.config.seed);
  o["seed_end"] =
      static_cast<std::int64_t>(manifest.config.seed + manifest.repeats);
  o["repeats"] = static_cast<std::int64_t>(manifest.repeats);
  o["jobs"] = static_cast<std::int64_t>(manifest.jobs);
  o["wall_seconds"] = manifest.wall_seconds;
  o["config"] = manifest.config.to_json();
  return json::Value{std::move(o)};
}

json::Value experiment_to_json(const RunManifest& manifest,
                               const Aggregate& aggregate) {
  json::Object o;
  o["manifest"] = manifest_to_json(manifest);
  o["aggregate"] = aggregate_to_json(aggregate);
  return json::Value{std::move(o)};
}

json::Value experiment_to_json(const RunManifest& manifest,
                               const Aggregate& aggregate,
                               const std::vector<RunResult>& runs) {
  json::Value v = experiment_to_json(manifest, aggregate);
  json::Array run_array;
  run_array.reserve(runs.size());
  for (const RunResult& run : runs) run_array.push_back(result_to_json(run));
  v.as_object()["runs"] = json::Value{std::move(run_array)};
  return v;
}

void write_json_file(const std::string& path, const json::Value& value) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << value.dump(2) << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace bftsim
