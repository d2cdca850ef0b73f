// Windowed-parallel run driver. See windowed.hpp for the scheme and the
// determinism argument. Only scheduling lives here: the lane partition,
// the window/barrier loop, fault transitions and the product merge. Every
// event runs through the controller's one per-event path.
#include "sim/windowed.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/log.hpp"
#include "faults/fault_injector.hpp"
#include "sim/controller.hpp"
#include "workload/workload_manager.hpp"

namespace bftsim {

namespace {

/// Moves every lane's `products` into one buffer in (at, key) order. Equal
/// (at, key) pairs only occur within one lane's buffer (a key names one
/// dispatch of one node), so the stable sort keeps emission order and the
/// result is lane-count-invariant.
template <typename T>
std::vector<Keyed<T>> merged(std::vector<std::unique_ptr<Lane>>& lanes,
                             std::vector<Keyed<T>> Lane::*products) {
  std::vector<Keyed<T>> all;
  for (auto& lp : lanes) {
    auto& buffer = (*lp).*products;
    all.insert(all.end(), std::make_move_iterator(buffer.begin()),
               std::make_move_iterator(buffer.end()));
    buffer.clear();
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.at != b.at ? a.at < b.at : a.key < b.key;
  });
  return all;
}

}  // namespace

Time compute_lookahead(const SimConfig& cfg) noexcept {
  const DelaySpec& d = cfg.delay;
  // Infimum of the sampled delay before clamping: constant and uniform have
  // a hard lower edge at `a`; normal and exponential can sample arbitrarily
  // low and rely entirely on the min_ms clamp.
  double lo_ms = 0.0;
  switch (d.kind) {
    case DelaySpec::Kind::kConstant:
    case DelaySpec::Kind::kUniform:
      lo_ms = d.a;
      break;
    case DelaySpec::Kind::kNormal:
    case DelaySpec::Kind::kExponential:
      lo_ms = 0.0;
      break;
  }
  if (lo_ms < d.min_ms) lo_ms = d.min_ms;
  if (d.max_ms > 0.0 && lo_ms > d.max_ms) lo_ms = d.max_ms;
  Time lo = from_ms(lo_ms);

  // The topology transformation applies per destination pair; with
  // cross_factor < 1 a cross-region delay can undercut the flat bound, so
  // take the minimum over both forms.
  if (cfg.topology.is_object()) {
    const TopologySpec topo = TopologySpec::from_json(cfg.topology);
    if (topo.enabled()) {
      const double scaled =
          static_cast<double>(lo) * topo.cross_factor + topo.cross_extra_ms * 1000.0;
      lo = std::min(lo, static_cast<Time>(scaled));
    }
  }

  // The WAN backend's RTT matrix adds a pure per-region-pair propagation
  // base on top of every sampled draw, so the infimum grows by the smallest
  // one-way entry. Bandwidth serialization only ever adds further delay, so
  // ignoring it keeps the result a valid lower bound (and gossip/bandwidth
  // runs are serial-only anyway — see SimConfig::validate).
  if (cfg.net.has_matrix()) lo += from_ms(cfg.net.min_one_way_ms());

  // Conservative safety margin for configured clock imperfection: skewed
  // timers are node-local and never cross lanes, but shrinking the window
  // by the worst-case skew keeps the bound defensible even if a future
  // fault kind lets skew leak into message timing.
  if (cfg.faults.clock.enabled()) {
    const double skewed = static_cast<double>(lo) -
                          cfg.faults.clock.max_skew_ms * 1000.0 -
                          static_cast<double>(lo) * cfg.faults.clock.max_drift;
    lo = static_cast<Time>(skewed);
  }
  return std::max<Time>(lo, 0);
}

std::uint32_t effective_lanes(const SimConfig& cfg) noexcept {
  if (compute_lookahead(cfg) <= 0) return 1;  // no safe window: self-degrade
  const std::uint32_t lanes =
      std::min(cfg.engine.intra_jobs, EngineConfig::kMaxIntraJobs);
  return std::max(1u, std::min(lanes, cfg.n));
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

WindowedEngine::WindowedEngine(Controller& c) : c_(c) {
  const SimConfig& cfg = c_.cfg_;
  lanes_n_ = effective_lanes(cfg);
  lookahead_ = compute_lookahead(cfg);

  // One lane per partition replaces the serial lane, whose queue holds only
  // the fault timeline's timers — this driver applies those at barriers.
  c_.lanes_.clear();
  for (std::uint32_t l = 0; l < lanes_n_; ++l) {
    auto lane = std::make_unique<Lane>();
    lane->id = l;
    c_.lane_arenas_.push_back(std::make_unique<Arena>());
    lane->arena = c_.lane_arenas_.back().get();
    lane->metrics = &lane->delta;
    lane->queue.reserve(
        Controller::kQueueEntriesPerNode * cfg.n / lanes_n_ + 256,
        Controller::kTimersPerNode * cfg.n / lanes_n_ + 64);
    lane->outbox.resize(lanes_n_);
    lane->broadcast_runs.resize(lanes_n_);
    c_.lanes_.push_back(std::move(lane));
  }
  for (NodeId i = 0; i < cfg.n; ++i) c_.bind_lane(i, *c_.lanes_[i % lanes_n_]);

  if (c_.faults_ != nullptr) {
    // The timeline is sorted by time; the prefix within the horizon is the
    // exact set the serial engine schedules as kFault timers.
    const auto& timeline = c_.faults_->events();
    while (fault_count_ < timeline.size() &&
           timeline[fault_count_].at <= c_.horizon_) {
      ++fault_count_;
    }
  }
  for (NodeId i = 0; i < cfg.n; ++i) {
    if (c_.is_live(i)) ++honest_total_;
  }
  if (lanes_n_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_n_);
}

WindowedEngine::~WindowedEngine() = default;

void WindowedEngine::run_window(Lane& ln, Time w1, std::uint64_t event_cap) {
  // Payload blocks of other lanes' arenas released here wait on this
  // lane's arena until the barrier (Arena::return_foreign).
  const Arena::Home home(*ln.arena);
  std::uint64_t events = 0;
  while (!ln.queue.empty() && ln.queue.next_time() < w1 &&
         events < event_cap) {
    Event ev = ln.queue.pop();
    ln.now = ev.at;
    ++events;
    ln.delta.on_event();
    c_.dispatch(ln, ev);
  }
}

// ---------------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------------

bool WindowedEngine::apply_faults_at(Time w0) {
  if (c_.faults_ == nullptr) return true;
  const auto& timeline = c_.faults_->events();
  while (fault_cursor_ < fault_count_ && timeline[fault_cursor_].at == w0) {
    // Mirrors the serial engine's dispatch of a kFault timer: one event,
    // one timer firing, then the transition.
    c_.metrics_.on_event();
    if (c_.metrics_.events_processed() > c_.cfg_.max_events) return false;
    c_.metrics_.on_timer();
    c_.faults_->apply(fault_cursor_);
    ++fault_cursor_;
  }
  return true;
}

bool WindowedEngine::merge_window() {
  auto& lanes = c_.lanes_;
  // 1. Hand fully-released cross-lane envelopes and payload blocks back to
  // their owners.
  for (auto& lp : lanes) {
    for (const std::uint32_t handle : lp->retired) {
      lanes[handle >> Lane::kEnvShift]->store.recycle(handle & Lane::kEnvMask);
    }
    lp->retired.clear();
    lp->arena->return_foreign();
  }
  // 2. Publish cross-lane sends: each broadcast's sorted sub-run for a
  // lane joins that lane's queue whole, as one cursor, and any other
  // delivery as a run of one. Queue order is (at, key) with unique keys,
  // so insertion timing cannot affect pop order.
  for (auto& lp : lanes) {
    for (std::uint32_t dst_lane = 0; dst_lane < lanes_n_; ++dst_lane) {
      EventQueue& queue = lanes[dst_lane]->queue;
      Lane::BroadcastRuns& out = lp->broadcast_runs[dst_lane];
      for (std::size_t i = 0; i < out.ready; ++i) {
        queue.adopt(out.runs[i], lp->queue);
      }
      out.ready = 0;
      for (const Keyed<MessageDelivery>& r : lp->outbox[dst_lane]) {
        queue.push_keyed(r.at, r.key, r.item);
      }
      lp->outbox[dst_lane].clear();
    }
  }
  // 3. Fold counter deltas into the run metrics.
  for (auto& lp : lanes) {
    c_.metrics_.absorb(lp->delta);
    lp->delta = Metrics{};
  }
  // 4. Merge ordered products (see merged()).
  if (c_.trace_sink_ != nullptr) {
    for (const auto& p : merged(lanes, &Lane::trace)) {
      c_.trace_sink_->on_record(p.item);
    }
  }
  for (const auto& p : merged(lanes, &Lane::decisions)) {
    // The workload decide hook runs here in merged (at, key) order, so
    // request-level latencies are lane-count-invariant like every other
    // product.
    const Decision& d = p.item;
    c_.settle_decision(d);
    if (d.height + 1 == c_.cfg_.decisions && c_.is_honest(d.node)) {
      ++nodes_done_;
      if (nodes_done_ == honest_total_ && !c_.stopped_) {
        c_.stopped_ = true;
        c_.termination_time_ = d.at;
      }
    }
  }
  for (const auto& p : merged(lanes, &Lane::views)) c_.metrics_.on_view(p.item);
  return c_.metrics_.events_processed() <= c_.cfg_.max_events;
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

RunResult WindowedEngine::run() {
  if (ran_) throw std::logic_error("WindowedEngine::run() called twice");
  ran_ = true;

  // Start phase: on_start callbacks in node order, exactly like the serial
  // engine; sends route through the same mailboxes as window sends.
  c_.start();
  bool within_budget = merge_window();

  TerminationReason reason = TerminationReason::kQueueDrained;
  if (!within_budget) reason = TerminationReason::kEventBudget;
  std::uint64_t windows_parallel = 0;
  std::uint64_t windows_inline = 0;
  std::uint64_t last_window_work = 0;  // the first window runs inline
  while (within_budget && !c_.stopped_) {
    // W0: the earliest pending instant across every lane and the fault
    // timeline — the same instant the serial engine would pop next.
    Time w0 = 0;
    bool any = false;
    for (const auto& lp : c_.lanes_) {
      if (lp->queue.empty()) continue;
      const Time t = lp->queue.next_time();
      if (!any || t < w0) {
        w0 = t;
        any = true;
      }
    }
    if (c_.faults_ != nullptr && fault_cursor_ < fault_count_) {
      const Time t = c_.faults_->events()[fault_cursor_].at;
      if (!any || t < w0) {
        w0 = t;
        any = true;
      }
    }
    if (!any) break;  // kQueueDrained
    if (w0 > c_.horizon_) {
      reason = TerminationReason::kHorizon;
      break;
    }
    if (!apply_faults_at(w0)) {
      reason = TerminationReason::kEventBudget;
      break;
    }

    // W1: never wider than the lookahead (cross-lane safety), cut at the
    // next fault transition (fault state is frozen inside a window) and at
    // the horizon. The formula never reads lane state, so the window
    // sequence is identical for every lane count — the determinism anchor.
    Time w1 = w0 + std::max<Time>(lookahead_, 1);
    if (c_.faults_ != nullptr && fault_cursor_ < fault_count_) {
      w1 = std::min(w1, c_.faults_->events()[fault_cursor_].at);
    }
    w1 = std::min(w1, c_.horizon_ + 1);

    // Per-lane runaway valve: a single lane may overshoot the remaining
    // budget by at most one window before the barrier converts the
    // overshoot into kEventBudget.
    std::uint64_t cap =
        c_.cfg_.max_events + 1 - c_.metrics_.events_processed();
    // Zero-lookahead runs (always a single lane) deliver same-instant
    // messages into the window being executed, so a protocol that keeps
    // talking after its last decision never drains the instant — and the
    // termination check only runs at barriers. The serial engine stops
    // mid-instant at its inline check; with no parallelism at stake, match
    // that cadence by forcing a barrier every few thousand events. The
    // quota is a constant, so the event sequence stays deterministic.
    if (lookahead_ <= 0) cap = std::min<std::uint64_t>(cap, 4096);
    const std::uint64_t work_before =
        c_.metrics_.events_processed() + c_.metrics_.messages_sent();
    if (lanes_n_ > 1 && last_window_work >= kInlineWindowWork) {
      parallel_for(*pool_, lanes_n_, [this, w1, cap](std::size_t l) {
        run_window(*c_.lanes_[l], w1, cap);
      });
      ++windows_parallel;
    } else {
      // Lanes share nothing inside a window, so running them in turn on
      // this thread gives the results a parallel window would.
      for (auto& lp : c_.lanes_) run_window(*lp, w1, cap);
      ++windows_inline;
    }
    within_budget = merge_window();
    last_window_work = c_.metrics_.events_processed() +
                       c_.metrics_.messages_sent() - work_before;
    if (!within_budget) reason = TerminationReason::kEventBudget;
  }
  if (c_.stopped_) reason = TerminationReason::kDecided;
  RunResult result = c_.make_result(reason);
  result.profile.windows_parallel = windows_parallel;
  result.profile.windows_inline = windows_inline;
  return result;
}

}  // namespace bftsim
