// Windowed-parallel run driver. See windowed.hpp for the scheme and the
// determinism argument. Only scheduling lives here: the lookahead, the
// lane partition, the window/barrier loop and the product merge. Every
// event, fault transition and decision runs through the controller.
#include "sim/windowed.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/controller.hpp"

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

  // One lane per partition replaces the serial lane, whose queue is empty.
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
    lane->fan_outs.resize(lanes_n_);
    c_.lanes_.push_back(std::move(lane));
  }
  for (NodeId i = 0; i < cfg.n; ++i) c_.bind_lane(i, *c_.lanes_[i % lanes_n_]);
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

void WindowedEngine::receive(Lane& ln) {
  const Arena::Home home(*ln.arena);
  for (auto& lp : c_.lanes_) {
    for (const FanOut& fo : lp->fan_outs[ln.id]) c_.expand(ln, fo);
    lp->fan_outs[ln.id].clear();
    for (const Keyed<Message>& r : lp->outbox[ln.id]) {
      const std::uint32_t env = ln.store.intern(r.item);
      ln.queue.push_keyed(r.at, r.key, MessageDelivery{env, r.item.dst});
    }
    lp->outbox[ln.id].clear();
  }
}

bool WindowedEngine::merge_window() {
  auto& lanes = c_.lanes_;
  // 1. Hand payload blocks released on other lanes back to their arenas.
  for (auto& lp : lanes) lp->arena->return_foreign();
  // 2. Publish cross-lane sends before the next W0 is read, at every
  // barrier (the last included, so each fan-out expands exactly once), on
  // the pool after a heavy window. Queue order is (at, key) with unique
  // keys, so insertion timing cannot affect pop order.
  window_work_ = 0;
  for (const auto& lp : lanes) {
    window_work_ += lp->delta.events_processed() + lp->delta.messages_sent();
  }
  if (lanes_n_ > 1 && window_work_ >= kInlineWindowWork) {
    parallel_for(*pool_, lanes_n_, [this](std::size_t l) {
      receive(*c_.lanes_[l]);
    });
  } else {
    for (auto& lp : lanes) receive(*lp);
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
  // Decisions settle here in merged (at, key) order, so the workload's
  // request latencies and the termination instant are lane-count-invariant
  // like every other product.
  for (const auto& p : merged(lanes, &Lane::decisions)) {
    c_.settle_decision(p.item);
  }
  for (const auto& p : merged(lanes, &Lane::views)) c_.metrics_.on_view(p.item);
  return c_.metrics_.events_processed() <= c_.cfg_.max_events;
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

RunResult WindowedEngine::run() {
  // Start phase: on_start callbacks in node order, exactly like the serial
  // engine; sends route through the same mailboxes as window sends.
  c_.start();
  bool within_budget = merge_window();

  TerminationReason reason = TerminationReason::kQueueDrained;
  if (!within_budget) reason = TerminationReason::kEventBudget;
  std::uint64_t windows_parallel = 0;
  std::uint64_t windows_inline = 0;
  while (within_budget && !c_.decided()) {
    // W0: the earliest pending instant across every lane and the fault
    // timeline — the same instant the serial engine would reach next.
    constexpr Time kNone = std::numeric_limits<Time>::max();
    Time w0 = c_.next_fault_at();
    for (const auto& lp : c_.lanes_) {
      if (!lp->queue.empty()) w0 = std::min(w0, lp->queue.next_time());
    }
    if (w0 == kNone) break;  // kQueueDrained
    if (w0 > c_.horizon_) {
      reason = TerminationReason::kHorizon;
      break;
    }
    // Transitions at W0 apply before any event at W0, as on the serial loop.
    while (within_budget && c_.next_fault_at() == w0) {
      within_budget = c_.apply_next_fault();
    }
    if (!within_budget) {
      reason = TerminationReason::kEventBudget;
      break;
    }

    // W1: never wider than the lookahead (cross-lane safety), cut at the
    // next fault transition (fault state is frozen inside a window) and at
    // the horizon. The formula never reads lane state, so the window
    // sequence is identical for every lane count — the determinism anchor.
    const Time w1 = std::min({w0 + std::max<Time>(lookahead_, 1),
                              c_.next_fault_at(), c_.horizon_ + 1});

    // The event budget is checked at barriers, so a window that crosses
    // it runs to its end and the run stops with every lane count at the
    // same barrier. The per-lane cap is only a runaway valve: a window
    // that alone exceeds the whole budget stops there.
    std::uint64_t cap = c_.cfg_.max_events + 1;
    // Zero-lookahead runs (always a single lane) deliver same-instant
    // messages into the window being executed, so a protocol that keeps
    // talking after its last decision never drains the instant — and
    // decisions settle only at barriers. The serial engine stops
    // mid-instant, settling inline; with no parallelism at stake, match
    // that cadence by forcing a barrier every few thousand events. The
    // quota is a constant, so the event sequence stays deterministic.
    if (lookahead_ <= 0) cap = std::min<std::uint64_t>(cap, 4096);
    if (lanes_n_ > 1 && window_work_ >= kInlineWindowWork) {
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
    if (!within_budget) reason = TerminationReason::kEventBudget;
  }
  if (c_.decided()) reason = TerminationReason::kDecided;
  RunResult result = c_.make_result(reason);
  result.profile.windows_parallel = windows_parallel;
  result.profile.windows_inline = windows_inline;
  return result;
}

}  // namespace bftsim
