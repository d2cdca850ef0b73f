#include "workload/workload_manager.hpp"

#include <algorithm>
#include <cmath>

#include "core/stats.hpp"
#include "crypto/hash.hpp"

namespace bftsim {

WorkloadManager::WorkloadManager(const WorkloadSpec& spec, std::uint32_t n,
                                 Rng rng)
    : spec_(spec),
      think_(from_ms(spec.think_ms)),
      max_wait_(from_ms(spec.max_wait_ms)) {
  nodes_.resize(n);
  if (spec_.open()) {
    // Aggregate rate split n ways; mean interarrival in microseconds.
    per_node_mean_us_ = static_cast<double>(n) * 1e6 / spec_.rate_rps;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeState& ns = nodes_[i];
    ns.rng = rng.fork(i);
    if (spec_.open()) {
      ns.next_arrival = next_step(ns);
    } else {
      // Round-robin client share; every client starts with its full
      // window outstanding at t=0.
      const std::uint64_t share =
          spec_.clients / n + (i < spec_.clients % n ? 1 : 0);
      const std::uint64_t outstanding = share * spec_.window;
      if (outstanding > 0) submit(ns, 0, outstanding);
      in_flight_ += outstanding;
    }
  }
  max_in_flight_ = in_flight_;
}

Time WorkloadManager::next_step(NodeState& ns) {
  double sample = per_node_mean_us_;
  if (spec_.arrival == WorkloadSpec::Arrival::kPoisson) {
    sample = ns.rng.exponential(per_node_mean_us_);
  }
  // Clamp to one Time unit so the stream always advances.
  return std::max<Time>(1, static_cast<Time>(std::llround(sample)));
}

void WorkloadManager::submit(NodeState& ns, Time birth, std::uint64_t count) {
  if (!ns.pending.empty() && ns.pending.back().birth == birth) {
    ns.pending.back().count += count;
  } else {
    ns.pending.push_back(PendingGroup{birth, count});
  }
  ns.submitted += count;
  ns.pending_count += count;
}

void WorkloadManager::advance_stream(NodeState& ns, Time upto) {
  if (!spec_.open()) return;
  while (ns.next_arrival <= upto) {
    submit(ns, ns.next_arrival, 1);
    ns.next_arrival += next_step(ns);
  }
}

ProposalBatch WorkloadManager::on_propose(NodeId node, std::uint64_t slot,
                                          Value fresh, Time now) {
  NodeState& ns = nodes_[node];
  advance_stream(ns, now);

  // Count ready requests (born by `now`), scanning at most max_batch worth
  // of groups — pending is sorted by birth.
  const std::uint64_t cap = spec_.max_batch;
  std::uint64_t ready = 0;
  for (const PendingGroup& g : ns.pending) {
    if (g.birth > now || ready >= cap) break;
    ready += g.count;
  }
  ready = std::min(ready, cap);

  std::uint64_t take = 0;
  if (ready >= cap) {
    take = cap;  // a full batch always ships
  } else if (ready > 0 &&
             (max_wait_ == 0 || now - ns.pending.front().birth >= max_wait_)) {
    take = ready;  // partial batch: ship unless still within the wait budget
  }
  if (take == 0) {
    ++ns.empty_proposals;
    return ProposalBatch{fresh, 0, 0};
  }

  Batch b;
  b.proposer = node;
  b.formed_at = now;
  // Unique per (node, mint counter); `fresh` and `slot` tie the digest to
  // the proposal context for trace readability.
  b.value = hash_words({0x776b6c64ULL, fresh, slot, node, ++ns.minted});
  b.births.reserve(static_cast<std::size_t>(take));
  std::uint64_t left = take;
  while (left > 0) {
    PendingGroup& g = ns.pending.front();
    const std::uint64_t k = std::min(left, g.count);
    b.births.insert(b.births.end(), static_cast<std::size_t>(k), g.birth);
    g.count -= k;
    left -= k;
    if (g.count == 0) ns.pending.pop_front();
  }
  ns.pending_count -= take;

  const auto requests = static_cast<std::uint32_t>(take);
  const ProposalBatch out{b.value, requests, requests * spec_.request_bytes};
  ns.batches.push_back(std::move(b));
  return out;
}

void WorkloadManager::publish_batches() {
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    NodeState& ns = nodes_[node];
    for (; ns.published < ns.batches.size(); ++ns.published) {
      value_index_.emplace(
          ns.batches[ns.published].value,
          std::make_pair(node, static_cast<std::uint32_t>(ns.published)));
    }
  }
}

void WorkloadManager::on_decide(Value value, Time at) {
  auto it = value_index_.find(value);
  if (it == value_index_.end()) {
    publish_batches();  // batches formed since the last decision
    it = value_index_.find(value);
  }
  if (it == value_index_.end()) {
    ++empty_decisions_;  // protocol-minted value: proposal carried no batch
    return;
  }
  Batch& b = nodes_[it->second.first].batches[it->second.second];
  if (b.decided) {
    ++duplicate_decides_;  // later replicas confirming an earlier decision
    return;
  }
  b.decided = true;
  for (const Time birth : b.births) latencies_ms_.push_back(to_ms(at - birth));
  decided_ += b.births.size();

  if (spec_.closed()) {
    // Each served client thinks, then submits its next request to the same
    // node (client affinity); in-flight stays at clients * window.
    submit(nodes_[b.proposer], at + think_, b.births.size());
  }
}

WorkloadStats WorkloadManager::finalize(Time end) {
  WorkloadStats s;
  s.enabled = true;
  for (NodeState& ns : nodes_) {
    // Arrivals the run never got to propose: the same draws advance_stream
    // would take, counted rather than stored.
    while (spec_.open() && ns.next_arrival <= end) {
      ++ns.submitted;
      ++ns.pending_count;
      ns.next_arrival += next_step(ns);
    }
    s.submitted += ns.submitted;
    s.pending_end += ns.pending_count;
    s.empty_proposals += ns.empty_proposals;
    for (const Batch& b : ns.batches) {
      ++s.batches;
      s.batched += b.births.size();
      if (!b.decided) s.batched_undecided += b.births.size();
    }
  }
  s.decided = decided_;
  s.empty_decisions = empty_decisions_;
  s.duplicate_decides = duplicate_decides_;
  s.max_in_flight = max_in_flight_;
  s.duration_ms = to_ms(end);
  if (end > 0) s.requests_per_sec = static_cast<double>(decided_) / to_sec(end);

  std::sort(latencies_ms_.begin(), latencies_ms_.end());
  if (!latencies_ms_.empty()) {
    double sum = 0.0;
    for (const double ms : latencies_ms_) sum += ms;
    s.latency_mean_ms = sum / static_cast<double>(latencies_ms_.size());
    s.latency_min_ms = latencies_ms_.front();
    s.latency_max_ms = latencies_ms_.back();
    s.latency_p50_ms = percentile_sorted(latencies_ms_, 0.50);
    s.latency_p99_ms = percentile_sorted(latencies_ms_, 0.99);
    s.latency_p999_ms = percentile_sorted(latencies_ms_, 0.999);
  }
  return s;
}

}  // namespace bftsim
