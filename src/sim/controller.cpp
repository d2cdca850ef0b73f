// The simulation controller's event path (§III-A1): node/attacker Context
// implementations, the network send path (delay sampling, topology
// penalties, attacker interception), timer management, the optional
// per-node CPU cost model, run-termination bookkeeping, and the serial
// run loop. The windowed-parallel driver (sim/windowed.cpp) executes the
// same per-event path on its lanes; see sim/lane.hpp.
#include "sim/controller.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "attacker/attacks.hpp"
#include "core/log.hpp"
#include "faults/fault_injector.hpp"
#include "protocols/registry.hpp"
#include "sim/windowed.hpp"
#include "workload/workload_manager.hpp"

namespace bftsim {

// ---------------------------------------------------------------------------
// Contexts
// ---------------------------------------------------------------------------

class Controller::NodeCtx final : public Context {
 public:
  NodeCtx(Controller& c, NodeId id, Lane& lane)
      : c_(c), id_(id), lane_(&lane) {}

  NodeId id() const noexcept override { return id_; }
  std::uint32_t n() const noexcept override { return c_.cfg_.n; }
  std::uint32_t f() const noexcept override { return c_.f_; }
  Time lambda() const noexcept override { return c_.lambda_; }
  Time now() const noexcept override { return lane_->now; }

  void send(NodeId dst, PayloadPtr payload) override {
    c_.send(*lane_, id_, dst, std::move(payload));
  }
  void broadcast(PayloadPtr payload, bool include_self) override {
    c_.broadcast(*lane_, id_, std::move(payload), include_self);
  }
  TimerId set_timer(Time delay, std::uint64_t tag) override {
    return c_.set_timer(*lane_, TimerOwner::kNode, id_, delay, tag);
  }
  void cancel_timer(TimerId id) override { lane_->queue.cancel_timer(id); }

  ProposalBatch next_proposal(std::uint64_t slot, Value fresh) override {
    // on_propose touches only this node's arrival stream (client
    // affinity), so the call is lane-safe under the windowed engine.
    if (c_.workload_ == nullptr) return ProposalBatch{fresh, 0, 0};
    return c_.workload_->on_propose(id_, slot, fresh, now());
  }

  void report_decision(Value value) override {
    c_.report_decision(*lane_, id_, value);
  }
  void record_view(View view) override { c_.record_view(*lane_, id_, view); }

  Rng& rng() noexcept override { return c_.node_rngs_[id_]; }
  const Vrf& vrf() const noexcept override { return c_.vrf_; }
  const Signer& signer() const noexcept override { return c_.signer_; }
  Arena& arena() noexcept override { return *lane_->arena; }

  [[nodiscard]] Lane& lane() const noexcept { return *lane_; }
  void bind(Lane& lane) noexcept { lane_ = &lane; }

 private:
  Controller& c_;
  NodeId id_;
  Lane* lane_;
};

// Hot on every delivery and cross-lane send; defined before its uses so it
// inlines (only this file calls it).
inline Lane& Controller::lane_for(NodeId id) noexcept {
  return id < ctxs_.size() ? ctxs_[id].lane() : *lanes_.front();
}

class Controller::AtkCtx final : public AttackerContext {
 public:
  explicit AtkCtx(Controller& c) : c_(c) {}

  std::uint32_t n() const noexcept override { return c_.cfg_.n; }
  std::uint32_t f() const noexcept override { return c_.f_; }
  Time now() const noexcept override { return c_.now(); }

  void inject(Message msg, Time delay) override {
    c_.inject_message(std::move(msg), delay);
  }

  void inject_duplicate(Message msg, Time delay) override {
    c_.metrics_.on_attacker_duplicate();
    c_.inject_message(std::move(msg), delay);
  }

  bool corrupt(NodeId node) override { return c_.corrupt(node); }

  bool is_corrupt(NodeId node) const noexcept override {
    return c_.is_corrupt(node);
  }

  std::uint32_t corrupted_count() const noexcept override {
    return static_cast<std::uint32_t>(c_.corrupted_order_.size());
  }

  Signature sign_as(NodeId node, std::uint64_t digest) override {
    if (!c_.is_corrupt(node)) {
      return Signature{node, digest, 0};  // unforgeable: invalid tag
    }
    return c_.signer_.sign(node, digest);
  }

  TimerId set_timer(Time delay, std::uint64_t tag) override {
    return c_.set_timer(*c_.lanes_.front(), TimerOwner::kAttacker, kNoNode,
                        delay, tag);
  }

  Rng& rng() noexcept override { return c_.atk_rng_; }

 private:
  Controller& c_;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Controller::Controller(SimConfig cfg)
    : cfg_(std::move(cfg)),
      run_rng_(0),
      net_rng_(0),
      atk_rng_(0),
      vrf_(0),
      signer_(0),
      delay_sampler_(cfg_.delay) {
  cfg_.validate();
  const ProtocolInfo& info = ProtocolRegistry::instance().get(cfg_.protocol);

  f_ = info.fault_threshold(cfg_.n);
  lambda_ = from_ms(cfg_.lambda_ms);
  horizon_ = from_ms(cfg_.max_time_ms);

  run_rng_.reseed(cfg_.seed);
  net_rng_ = run_rng_.fork(0x6e6574);            // "net"
  atk_rng_ = run_rng_.fork(0x61746b);            // "atk"
  const std::uint64_t crypto_seed = run_rng_.next_u64();
  vrf_ = Vrf{crypto_seed};
  signer_ = Signer{crypto_seed ^ 0x736967ULL};

  // Choose which nodes are fail-stopped: a random subset of size n - live.
  const std::uint32_t live = cfg_.live_nodes();
  std::vector<NodeId> ids(cfg_.n);
  for (NodeId i = 0; i < cfg_.n; ++i) ids[i] = i;
  Rng pick = run_rng_.fork(0x6673);  // "fs"
  for (std::uint32_t i = 0; i + 1 < cfg_.n; ++i) {  // Fisher-Yates
    const auto j = i + static_cast<std::uint32_t>(pick.next_below(cfg_.n - i));
    std::swap(ids[i], ids[j]);
  }
  std::unordered_set<NodeId> dead;
  for (std::uint32_t i = live; i < cfg_.n; ++i) {
    dead.insert(ids[i]);
    failstopped_.push_back(ids[i]);
  }
  std::sort(failstopped_.begin(), failstopped_.end());
  honest_short_ = live;

  // The serial engine's one lane; a windowed run replaces it in run().
  lanes_.push_back(std::make_unique<Lane>());
  Lane& serial = *lanes_.front();
  serial.arena = &arena_;
  serial.metrics = &metrics_;

  nodes_.resize(cfg_.n);
  ctxs_.reserve(cfg_.n);
  node_rngs_.reserve(cfg_.n);
  Rng node_seed = run_rng_.fork(0x6e6f6465);  // "node"
  for (NodeId i = 0; i < cfg_.n; ++i) {
    node_rngs_.push_back(node_seed.fork(i));
    ctxs_.emplace_back(*this, i, serial);
    if (!dead.contains(i)) nodes_[i] = info.create(i, cfg_);
  }
  decided_count_.assign(cfg_.n, 0);

  if (cfg_.topology.is_object()) {
    topology_ = TopologySpec::from_json(cfg_.topology);
  }
  verify_cost_ = from_ms(cfg_.cost.verify_ms);
  sign_cost_ = from_ms(cfg_.cost.sign_ms);
  cost_model_on_ = cfg_.cost.enabled();
  cpu_free_.assign(cfg_.n, 0);
  corrupt_flags_.assign(cfg_.n, 0);

  // Size the event queue for the steady-state backlog. A broadcast in
  // flight is one message-heap entry however many copies it has, so each
  // heap holds O(n) entries: a few broadcasts and self-deliveries per node
  // in one, about one armed timer per node in the other.
  serial.queue.reserve(kQueueEntriesPerNode * cfg_.n + 256,
                       kTimersPerNode * cfg_.n + 64);
  if (cost_model_on_) serial.cpu_charged.reserve(256);

  attacker_ = make_attacker(cfg_);
  attacker_passive_ = attacker_->is_passive();
  atk_ctx_ = std::make_unique<AtkCtx>(*this);

  // Trace sink: selecting a streaming sink implies tracing (a jsonl/binary
  // sink with nothing flowing through it would be a silent no-op). With the
  // defaults (record_trace off, memory sink) there is no sink at all and
  // every emission site is one null check.
  if (cfg_.record_trace || cfg_.obs.streaming()) {
    trace_sink_ = obs::make_trace_sink(cfg_.obs, trace_);
  }
  if (cfg_.obs.timeline_enabled()) {
    timeline_ = std::make_unique<obs::Timeline>(
        std::max<Time>(from_ms(cfg_.obs.timeline_tick_ms), 1),
        cfg_.obs.timeline_views);
    current_view_.assign(cfg_.n, 0);
  }

  // Fault layer. The fault RNG is forked off run_rng_ last, and only when
  // faults are enabled, so every other stream (net, atk, crypto, fs, node)
  // is untouched and fault-free runs stay bit-identical to the goldens.
  if (cfg_.faults.enabled()) {
    faults_ = std::make_unique<FaultInjector>(cfg_.faults, cfg_.n,
                                              run_rng_.fork(0x666c74));  // "flt"
    // The timeline is sorted by time; the run applies its prefix within
    // the horizon (apply_next_fault).
    const auto& timeline = faults_->events();
    const auto past_horizon = std::partition_point(
        timeline.begin(), timeline.end(),
        [this](const FaultEvent& e) { return e.at <= horizon_; });
    fault_end_ = static_cast<std::size_t>(past_horizon - timeline.begin());
  }

  // WAN transport backend. Like the fault RNG, the overlay RNG is forked
  // off run_rng_ only when the backend is selected, so classic runs keep
  // every other stream aligned with the recorded goldens.
  if (cfg_.net.enabled()) {
    wan_ = std::make_unique<WanModel>(cfg_.net, cfg_.n,
                                      run_rng_.fork(0x77616e));  // "wan"
  }

  // Client workload generator. Like the fault and WAN RNGs, the workload
  // RNG is forked off run_rng_ only when a workload is selected, so
  // workload-free runs keep every stream aligned with the recorded goldens.
  if (cfg_.workload.enabled()) {
    workload_ = std::make_unique<WorkloadManager>(
        cfg_.workload, cfg_.n, run_rng_.fork(0x776c));  // "wl"
  }
}

Controller::~Controller() = default;

// ---------------------------------------------------------------------------
// Network module
// ---------------------------------------------------------------------------

/// One transmission's payload-level facts, computed once and shared by all
/// of its copies: the virtual wire_size()/type_id() calls and the trace
/// fields.
struct Controller::Transmission {
  Transmission(const PayloadPtr& p, NodeId source, Time extra_delay,
               bool traced)
      : payload(p),
        src(source),
        extra(extra_delay),
        wire(p->wire_size()),
        tid(p->type_id()) {
    if (traced) {
      trace_type = std::string(p->type());
      trace_digest = p->digest();
    }
  }

  /// Counts `copies` copies as sent.
  void count(Metrics& metrics, std::uint64_t copies) const {
    metrics.on_send(copies);
    metrics.on_bytes(wire * copies);
    if (tid != PayloadType::kUnknown) {
      metrics.count_type(tid, copies);
    } else {
      metrics.count_type(std::string(payload->type()), copies);
    }
  }

  const PayloadPtr& payload;
  NodeId src;  ///< protocol-visible source (a gossip copy's origin)
  /// Sender-side cost (e.g. signing) already incurred before the message
  /// reaches the wire.
  Time extra;
  std::size_t wire;
  PayloadType tid;
  std::string trace_type;
  std::uint64_t trace_digest = 0;
  std::uint64_t gossip_id = 0;  ///< nonzero for gossip copies
};

namespace {

/// Wraps `original` as a corrupted payload in `ln`'s arena, and counts it.
PayloadPtr corrupt_copy(Lane& ln, PayloadPtr original) {
  ln.metrics->on_corrupt();
  return std::allocate_shared<CorruptedPayload>(
      ArenaAllocator<CorruptedPayload>(ln.arena), std::move(original));
}

}  // namespace

void Controller::send(Lane& ln, NodeId src, NodeId dst, PayloadPtr payload) {
  assert(payload != nullptr);
  // One signature per send call: the message leaves once the CPU is done.
  const Time wire_at = charge_cpu(ln, src, sign_cost_);
  if (dst == src) {
    deliver_self(ln, src, std::move(payload));
    return;
  }
  Transmission tx(payload, src, wire_at - ln.now, trace_sink_ != nullptr);
  send_copy(ln, tx, src, dst);
}

void Controller::broadcast(Lane& ln, NodeId src, PayloadPtr payload,
                           bool include_self) {
  assert(payload != nullptr);
  // One signature covers the whole fan-out.
  const Time extra = charge_cpu(ln, src, sign_cost_) - ln.now;
  Transmission tx(payload, src, extra, trace_sink_ != nullptr);
  if (wan_ != nullptr && wan_->gossip()) {
    // Gossip origination: the origin sends to its overlay peers only.
    tx.gossip_id = next_gossip_id_++;
    gossip_seen_.resize((tx.gossip_id * cfg_.n + 63) / 64);
    mark_gossip_seen(src, tx.gossip_id);  // never re-deliver to the origin
    for (const NodeId peer : wan_->peers_of(src)) send_copy(ln, tx, src, peer);
  } else if (!attacker_passive_ || custom_delivery_hook_) {
    for (NodeId dst = 0; dst < cfg_.n; ++dst) {
      if (dst != src) send_copy(ln, tx, src, dst);
    }
  } else {
    fan_out(ln, tx);
  }
  if (include_self) deliver_self(ln, src, std::move(payload));
}

void Controller::fan_out(Lane& ln, const Transmission& tx) {
  // Position p is destination p, or p + 1 from the sender on; its id and
  // key are the block's base plus p.
  const NodeId src = tx.src;
  const std::uint32_t copies = cfg_.n - 1;
  const std::uint64_t base_id =
      lane_mode_ ? origin_key(src) | key_ctr_[src] : next_msg_id_;
  const std::uint64_t base_key =
      lane_mode_ ? base_id : ln.queue.draw_seqs(copies);
  (lane_mode_ ? key_ctr_[src] : next_msg_id_) += copies;
  FanOut fo{tx.payload, base_id, {ln.now, base_key, 0, src}, tx.extra, {}};
  tx.count(*ln.metrics, copies);
  const bool links_down = faults_ != nullptr && faults_->any_link_down();
  if (trace_sink_ != nullptr || links_down) {
    for (std::uint32_t pos = 0; pos < copies; ++pos) {
      const NodeId dst = pos + (pos >= src ? 1 : 0);
      TraceRecord rec{TraceKind::kSend, ln.now, src, dst, tx.trace_type,
                      tx.trace_digest, base_id + pos, 0, 0};
      if (trace_sink_ != nullptr) emit(ln, rec);
      if (!links_down || !faults_->link_down(src, dst)) continue;
      ln.metrics->on_drop();
      rec.kind = TraceKind::kDrop;
      if (trace_sink_ != nullptr) emit(ln, std::move(rec));
      fo.dropped.push_back(pos);
    }
  }
  // Several lanes each expand their share at the barrier, the sender's
  // too: the copies land after the window, and the draws split evenly.
  if (lanes_.size() == 1) {
    expand(ln, fo);
  } else {
    for (auto& fan_outs : ln.fan_outs) fan_outs.push_back(fo);
  }
}

void Controller::expand(Lane& ln, const FanOut& fo) {
  EventQueue::RunHead head = fo.head;
  const NodeId from = head.sender;
  std::int32_t shared = 0;  // copies on the shared envelope, made lazily
  auto dropped = fo.dropped.begin();
  // Lane l holds nodes l, l + lanes, ... (WindowedEngine's partition).
  const auto stride = static_cast<NodeId>(lanes_.size());
  for (NodeId dst = ln.id; dst < cfg_.n; dst += stride) {
    if (dst == from) continue;
    const std::uint32_t pos = dst - (dst > from ? 1 : 0);
    const std::uint64_t key = head.base + pos;
    // A dropped copy draws too, keeping the serial stream aligned.
    const Time sampled = draw_delay(ln, key, from, dst);
    while (dropped != fo.dropped.end() && *dropped < pos) ++dropped;
    if (dropped != fo.dropped.end() && *dropped == pos) continue;
    const Time at =
        arrival(from, dst, *fo.payload, head.sent, fo.extra, sampled);
    if (faults_ != nullptr &&
        faults_->maybe_corrupt(head.sent, key, lane_mode_)) {
      // A corrupted copy gets its own envelope, around the wrapped payload.
      Message msg{from, dst, head.sent, fo.base_id + pos,
                  corrupt_copy(ln, fo.payload)};
      const std::uint32_t env = ln.store.intern(std::move(msg));
      ln.queue.push_keyed(at, key, MessageDelivery{env, dst});
      continue;
    }
    if (shared++ == 0) {
      head.env =
          ln.store.create(fo.payload, head.sent, fo.base_id, from, true, 0);
    }
    if (EventQueue::fits_run(head.sent, at)) {
      ln.run_build.push_back(
          RunEntry{static_cast<std::uint32_t>(at - head.sent), pos});
    } else {
      ln.queue.push_keyed(at, key, MessageDelivery{head.env, dst});
    }
  }
  if (shared > 0) ln.store.get(head.env).remaining = shared;
  ln.queue.push_run(head, ln.run_build);
}

void Controller::send_copy(Lane& ln, const Transmission& tx, NodeId from,
                           NodeId dst) {
  const std::uint64_t id = draw_id(from);
  tx.count(*ln.metrics, 1);
  if (trace_sink_) {
    emit(ln, TraceRecord{TraceKind::kSend, ln.now, tx.src, dst, tx.trace_type,
                         tx.trace_digest, id, 0, 0});
  }
  const Time sampled = draw_delay(ln, id, from, dst);
  // Link flaps sit below the attacker: the delay is sampled first (keeping
  // the streams aligned with fault-free runs) and a down link drops the
  // message before the attacker ever sees it.
  if (faults_ != nullptr && faults_->any_link_down() &&
      faults_->link_down(from, dst)) {
    ln.metrics->on_drop();
    if (trace_sink_) {
      emit(ln, TraceRecord{TraceKind::kDrop, ln.now, tx.src, dst,
                           tx.trace_type, tx.trace_digest, id, 0, 0});
    }
    return;
  }
  if (!attacker_passive_ || custom_delivery_hook_) {
    intercept(ln, tx, dst, id, sampled);
    return;
  }

  // Fast path (no attack scenario, no subclass hook): no Message is
  // materialized — the envelope interns the transmission and the delivery
  // event carries an 8-byte handle. Bit-identical to the hook path: a
  // passive attacker's attack() observes and changes nothing.
  const bool corrupted =
      faults_ != nullptr && faults_->maybe_corrupt(ln.now, id, lane_mode_);
  Message msg{tx.src, dst, ln.now, id,
              corrupted ? corrupt_copy(ln, tx.payload) : tx.payload};
  const Time at = arrival(from, dst, *tx.payload, ln.now, tx.extra, sampled);
  const Lane& to = lane_for(dst);
  if (&to != &ln) {  // lane mode: interned on its lane at the barrier
    ln.outbox[to.id].push_back({at, id, std::move(msg)});
    return;
  }
  const std::uint32_t env = ln.store.intern(std::move(msg));
  ln.store.get(env).gossip_id = tx.gossip_id;
  ln.queue.push_keyed(at, copy_key(ln, id), MessageDelivery{env, dst});
}

Time Controller::draw_delay([[maybe_unused]] Lane& ln, std::uint64_t id,
                            NodeId from, NodeId dst) {
  BFTSIM_PROFILE_SCOPE(ln.profile, obs::ProfileComponent::kDelaySample);
  std::optional<Rng> keyed;
  if (lane_mode_) keyed = Rng::keyed(net_seed_, id);
  const Time draw = delay_sampler_.sample(keyed ? *keyed : net_rng_);
  // The WAN matrix adds a pure per-region-pair base on top of the same
  // single draw the classic path makes, so disabled-backend runs keep the
  // delay streams bit-aligned with the goldens.
  return wan_ != nullptr ? draw + wan_->base_delay(from, dst)
                         : topology_.adjust(draw, from, dst);
}

Time Controller::arrival(NodeId from, NodeId dst, const Payload& payload,
                         Time sent, Time extra, Time sampled) {
  if (wan_ == nullptr || !wan_->bandwidth_enabled()) {
    return sent + std::max<Time>(extra + sampled, 0);
  }
  const std::size_t wire = payload.wire_size();
  return wan_->delivery_time(from, dst, wire, sent + extra, sampled);
}

void Controller::intercept(Lane& ln, const Transmission& tx, NodeId dst,
                           std::uint64_t id, Time sampled) {
  Metrics& metrics = *ln.metrics;
  Message msg;
  msg.src = tx.src;
  msg.dst = dst;
  msg.send_time = ln.now;
  msg.id = id;
  msg.payload = tx.payload;
  MessageInFlight in_flight{std::move(msg), tx.extra + sampled};
  // Snapshot the pre-attack state so the attacker's edits are countable by
  // comparison — no per-action instrumentation inside attack() needed.
  // Payloads are immutable (shared_ptr<const Payload>), so replacement and
  // rerouting are the only modification channels an attacker has.
  const Time assigned_delay = in_flight.delay;
  const Payload* original_payload = in_flight.msg.payload.get();
  const NodeId original_src = in_flight.msg.src;
  const NodeId original_dst = in_flight.msg.dst;
  const Disposition verdict = [&] {
    BFTSIM_PROFILE_SCOPE(ln.profile, obs::ProfileComponent::kAttackerHook);
    return attacker_->attack(in_flight, *atk_ctx_);
  }();
  if (verdict == Disposition::kDrop) {
    metrics.on_drop();
    metrics.on_attacker_drop();
    trace_message(ln, TraceKind::kDrop, in_flight.msg);
    return;
  }
  if (in_flight.delay != assigned_delay) metrics.on_attacker_delay();
  if (in_flight.msg.payload.get() != original_payload ||
      in_flight.msg.src != original_src || in_flight.msg.dst != original_dst) {
    metrics.on_attacker_modify();
  }
  if (faults_ != nullptr &&
      faults_->maybe_corrupt(ln.now, in_flight.msg.id, lane_mode_)) {
    in_flight.msg.payload = corrupt_copy(ln, std::move(in_flight.msg.payload));
  }
  Time final_delay = std::max<Time>(in_flight.delay, 0);
  if (wan_ != nullptr && wan_->bandwidth_enabled()) {
    // Bandwidth queuing applies after the attacker's verdict, on the link
    // the message actually takes (an attacker may have rerouted it).
    final_delay = wan_->delivery_time(in_flight.msg.src, in_flight.msg.dst,
                                      tx.wire, ln.now, final_delay) -
                  ln.now;
  }
  schedule_network_delivery(std::move(in_flight.msg), final_delay);
}

void Controller::deliver_self(Lane& ln, NodeId id, PayloadPtr payload) {
  // A node's message to itself does not traverse the network or the
  // attacker and is not counted as a transmitted message; it is scheduled
  // (rather than dispatched inline) so handlers never re-enter.
  const std::uint64_t msg_id = draw_id(id);
  const std::uint32_t env =
      ln.store.intern(Message{id, id, ln.now, msg_id, std::move(payload)});
  ln.queue.push_keyed(ln.now, copy_key(ln, msg_id), MessageDelivery{env, id});
}

void Controller::push_timer(Lane& ln, Time at, std::uint64_t key,
                            const TimerFire& fire) {
  if (lane_mode_) {
    ln.queue.push_keyed(at, key, fire);
  } else {
    ln.queue.push(at, fire);
  }
}

std::uint64_t Controller::draw_id(NodeId origin) noexcept {
  return lane_mode_ ? draw_key(origin) : next_msg_id_++;
}

std::uint64_t Controller::draw_key(NodeId origin) noexcept {
  assert(origin < key_ctr_.size());
  return origin_key(origin) | key_ctr_[origin]++;
}

void Controller::emit(Lane& ln, TraceRecord rec) {
  if (lane_mode_) {
    ln.trace.push_back({ln.now, ln.cur_key, std::move(rec)});
  } else {
    trace_sink_->on_record(rec);
  }
}

void Controller::trace_message(Lane& ln, TraceKind kind, const Message& msg) {
  if (trace_sink_ == nullptr || msg.payload == nullptr) return;
  emit(ln, TraceRecord{kind, ln.now, msg.src, msg.dst,
                       std::string(msg.payload->type()), msg.payload->digest(),
                       msg.id, 0, 0});
}

// ---------------------------------------------------------------------------
// WAN gossip backend
// ---------------------------------------------------------------------------
//
// A broadcast under the gossip backend is disseminated epidemically: the
// origin sends to its fanout overlay peers; every node relays the first
// copy it accepts to its own peers and drops subsequent copies (counted as
// gossip duplicates). The overlay's ring edge keeps the digraph strongly
// connected, so every live node is reached. Gossip is serial-engine-only
// and incompatible with attack scenarios (SimConfig::validate) — the
// envelope fast path is therefore always available here.

void Controller::gossip_deliver(const Message& msg, std::uint64_t gid) {
  // Fail-stopped / crashed destinations drop the copy exactly like the
  // classic path — without marking it seen, so a copy arriving after a
  // crash recovery can still be the accepted one.
  if (!is_live(msg.dst) ||
      (faults_ != nullptr && faults_->is_crashed(msg.dst))) {
    deliver_now(msg);
    return;
  }
  Lane& ln = lane_for(msg.dst);
  if (!mark_gossip_seen(msg.dst, gid)) {
    ln.metrics->on_drop();
    ln.metrics->on_gossip_duplicate();
    trace_message(ln, TraceKind::kDrop, msg);
    return;
  }
  // First accepted copy: relay before local processing, so the CPU cost
  // model (which can defer on_message) never slows dissemination down.
  // Relaying forwards the bytes as received — including a fault-corrupted
  // wrapper — and skips the origin, which has the payload by definition.
  // The trace keeps the origin as the source so Send and Deliver records
  // pair up by message id; the relayer shows up in the gossip counters.
  if (msg.payload != nullptr) {
    Transmission tx(msg.payload, msg.src, 0, trace_sink_ != nullptr);
    tx.gossip_id = gid;
    for (const NodeId peer : wan_->peers_of(msg.dst)) {
      if (peer == msg.src) continue;
      ln.metrics->on_gossip_relay();
      send_copy(ln, tx, msg.dst, peer);
    }
  }
  deliver_now(msg);
}

bool Controller::mark_gossip_seen(NodeId node, std::uint64_t gid) {
  const std::uint64_t bit = (gid - 1) * cfg_.n + node;
  std::uint64_t& word = gossip_seen_[bit >> 6];
  const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
  if ((word & mask) != 0) return false;
  word |= mask;
  return true;
}

void Controller::schedule_network_delivery(Message msg, Time delay) {
  schedule_message_at(std::move(msg), now() + delay);
}

void Controller::schedule_message_at(Message msg, Time at) {
  Lane& ln = *lanes_.front();
  const NodeId dst = msg.dst;
  const std::uint32_t env = ln.store.intern(std::move(msg));
  ln.queue.push(std::max(at, ln.now), MessageDelivery{env, dst});
}

void Controller::inject_message(Message msg, Time delay) {
  Lane& ln = *lanes_.front();
  msg.id = next_msg_id_++;
  msg.send_time = ln.now;
  ln.metrics->on_inject();
  trace_message(ln, TraceKind::kSend, msg);
  schedule_message_at(std::move(msg), ln.now + delay);
}

Time Controller::charge_cpu(const Lane& ln, NodeId node, Time cost) {
  if (node >= cpu_free_.size()) return ln.now;
  if (cost <= 0) return std::max(cpu_free_[node], ln.now);
  cpu_free_[node] = std::max(cpu_free_[node], ln.now) + cost;
  return cpu_free_[node];
}

void Controller::deliver_now(const Message& msg) {
  Lane& ln = lane_for(msg.dst);
  if (!is_live(msg.dst)) {
    ln.metrics->on_drop();
    return;
  }
  // A crashed node drops everything that arrives during its outage window
  // (it will resync via the protocol's own catch-up paths after recovery).
  if (faults_ != nullptr && faults_->is_crashed(msg.dst)) {
    ln.metrics->on_drop();
    if (cost_model_on_) ln.cpu_charged.erase(msg.id);
    trace_message(ln, TraceKind::kDrop, msg);
    return;
  }
  // Computation-cost model: verifying a network message occupies the
  // receiver's CPU, and a CPU still busy (verifying or signing) defers the
  // processing of new arrivals — messages queue behind each other, which
  // is what makes throughput saturate. Self-deliveries are internal and
  // free.
  if (cost_model_on_ && msg.src != msg.dst &&
      !ln.cpu_charged.contains(msg.id)) {
    ln.cpu_charged.insert(msg.id);
    const Time free_at = charge_cpu(ln, msg.dst, verify_cost_);
    if (free_at > ln.now) {
      // Redeliver when the CPU frees up. The re-interned envelope keeps
      // the original message identity; on the lane engine the fresh key
      // comes from the destination's counter, whose state is
      // lane-count-invariant.
      ln.queue.push_keyed(free_at,
                          lane_mode_ ? draw_key(msg.dst) : ln.queue.draw_seq(),
                          MessageDelivery{ln.store.intern(msg), msg.dst});
      return;
    }
  }
  if (cost_model_on_) ln.cpu_charged.erase(msg.id);
  if (msg.src != msg.dst) ln.metrics->on_deliver();  // self-delivery is free
  trace_message(ln, TraceKind::kDeliver, msg);
  if (is_corrupt(msg.dst)) return;  // attacker swallows its nodes' input
  BFTSIM_PROFILE_SCOPE(ln.profile, obs::ProfileComponent::kOnMessage);
  nodes_[msg.dst]->on_message(msg, ctxs_[msg.dst]);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

TimerId Controller::set_timer(Lane& ln, TimerOwner owner, NodeId node,
                              Time delay, std::uint64_t tag) {
  // Clock skew/drift distorts the node's view of how long `delay` is.
  if (faults_ != nullptr && owner == TimerOwner::kNode) {
    delay = faults_->adjust_timer_delay(node, delay);
  }
  const TimerFire fire{owner, node, ln.next_timer_id++, tag};
  push_timer(ln, ln.now + std::max<Time>(delay, 0),
             lane_mode_ ? draw_key(node) : 0, fire);
  return fire.timer;
}

void Controller::schedule_system_event(Time at, std::uint64_t tag) {
  Lane& ln = *lanes_.front();
  ln.queue.push(std::max(at, ln.now), TimerFire{TimerOwner::kSystem, kNoNode,
                                                ln.next_timer_id++, tag});
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void Controller::report_decision(Lane& ln, NodeId node, Value value) {
  const Decision d{node, ln.now, decided_count_[node]++, value};
  if (lane_mode_) {
    ln.decisions.push_back({ln.now, ln.cur_key, d});
  } else {
    settle_decision(d);
  }
  if (trace_sink_) {
    emit(ln, TraceRecord{TraceKind::kDecide, ln.now, node, kNoNode, {}, 0, 0,
                         d.height, value});
  }
}

void Controller::settle_decision(const Decision& d) {
  if (workload_ != nullptr) workload_->on_decide(d.value, d.at);
  metrics_.on_decision(d);
  BFTSIM_LOG(kDebug, "node " << d.node << " decided height " << d.height
                             << " value " << d.value << " at " << to_ms(d.at)
                             << "ms");
  if (d.height + 1 == cfg_.decisions && is_honest(d.node)) count_off(d.at);
}

void Controller::record_view(Lane& ln, NodeId node, View view) {
  if (cfg_.record_views) {
    const ViewRecord record{node, ln.now, view};
    if (lane_mode_) {
      ln.views.push_back({ln.now, ln.cur_key, record});
    } else {
      metrics_.on_view(record);
    }
  }
  if (trace_sink_) {
    emit(ln, TraceRecord{TraceKind::kViewChange, ln.now, node, kNoNode, {}, 0,
                         0, view, 0});
  }
  if (!current_view_.empty() && node < current_view_.size()) {
    current_view_[node] = view;
  }
}

bool Controller::corrupt(NodeId node) {
  if (node >= cfg_.n) return false;
  if (is_corrupt(node)) return false;
  if (corrupted_order_.size() + failstopped_.size() >= f_) return false;
  corrupt_flags_[node] = 1;
  corrupted_order_.push_back(node);
  if (trace_sink_) {
    emit(*lanes_.front(), TraceRecord{TraceKind::kCorrupt, now(), node,
                                      kNoNode, {}, 0, 0, 0, 0});
  }
  BFTSIM_LOG(kInfo, "attacker corrupted node " << node << " at "
                                               << to_ms(now()) << "ms");
  // A live node corrupted short of the target no longer holds the run up.
  if (is_live(node) && decided_count_[node] < cfg_.decisions) count_off(now());
  return true;
}

void Controller::count_off(Time at) {
  assert(honest_short_ > 0);
  if (--honest_short_ == 0) termination_time_ = at;
}

bool Controller::is_live(NodeId id) const noexcept {
  return id < cfg_.n && nodes_[id] != nullptr;
}

void Controller::bind_lane(NodeId id, Lane& lane) noexcept {
  ctxs_[id].bind(lane);
}

void Controller::start() {
  attacker_->on_start(*atk_ctx_);
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (!is_live(i)) continue;
    // Lane mode: on-start products carry the node's base key, so the
    // first barrier merges them in node order.
    lane_for(i).cur_key = origin_key(i);
    nodes_[i]->on_start(ctxs_[i]);
  }
}

std::size_t Controller::arena_high_water() const noexcept {
  std::size_t total = arena_.high_water();
  for (const auto& arena : lane_arenas_) total += arena->high_water();
  return total;
}

EventQueue::RunMemory Controller::queue_run_peak() const noexcept {
  EventQueue::RunMemory total;
  for (const auto& lane : lanes_) {
    const EventQueue::RunMemory peak = lane->queue.run_memory_peak();
    total.bytes += peak.bytes;
    total.copies += peak.copies;
    total.runs += peak.runs;
  }
  return total;
}

bool Controller::is_honest(NodeId id) const noexcept {
  return is_live(id) && !is_corrupt(id);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

void Controller::dispatch(Lane& ln, Event& ev) {
  ln.cur_key = ev.seq;
  if (const auto* delivery = std::get_if<MessageDelivery>(&ev.body)) {
    // Every envelope is interned by the lane that delivers it.
    const std::uint64_t gid = ln.store.get(delivery->env).gossip_id;
    const Message msg = ln.store.materialize(delivery->env, delivery->dst);
    if (gid != 0) {
      gossip_deliver(msg, gid);
    } else {
      deliver_now(msg);
    }
    ln.store.release(delivery->env);
    return;
  }
  const auto& fire = std::get<TimerFire>(ev.body);
  if (ln.queue.consume_cancellation(fire.timer)) return;
  // A crashed node's timers are suspended, not lost: the fire is deferred
  // to the recovery instant. Both loops apply a transition before any
  // event at its instant, so when the deferred fire pops the node is back
  // up (on the lane engine the fire keeps its key). Dropping them instead
  // could leave a recovered node with no pending timers — a guaranteed
  // deadlock.
  if (faults_ != nullptr && fire.owner == TimerOwner::kNode &&
      faults_->is_crashed(fire.node)) {
    push_timer(ln, faults_->recovery_time(fire.node), ev.seq, fire);
    return;
  }
  ln.metrics->on_timer();
  const TimerEvent te{fire.timer, fire.tag, ln.now};
  switch (fire.owner) {
    case TimerOwner::kNode:
      if (is_live(fire.node) && !is_corrupt(fire.node)) {
        BFTSIM_PROFILE_SCOPE(ln.profile, obs::ProfileComponent::kOnTimer);
        nodes_[fire.node]->on_timer(te, ctxs_[fire.node]);
      }
      break;
    case TimerOwner::kAttacker: {
      BFTSIM_PROFILE_SCOPE(ln.profile, obs::ProfileComponent::kAttackerHook);
      attacker_->on_timer(te, *atk_ctx_);
      break;
    }
    case TimerOwner::kSystem:
      on_system_event(fire.tag);
      break;
  }
}

Time Controller::next_fault_at() const noexcept {
  return fault_next_ < fault_end_ ? faults_->events()[fault_next_].at
                                  : std::numeric_limits<Time>::max();
}

bool Controller::apply_next_fault() {
  metrics_.on_event();
  if (metrics_.events_processed() > cfg_.max_events) return false;
  metrics_.on_timer();
  BFTSIM_PROFILE_SCOPE(lanes_.front()->profile,
                       obs::ProfileComponent::kFaultHook);
  faults_->apply(fault_next_++);
  return true;
}

RunResult Controller::run() {
  if (ran_) throw std::logic_error("Controller::run() called twice");
  ran_ = true;

  if (custom_delivery_hook_ && wan_ != nullptr) {
    throw std::invalid_argument(
        "config error at $.net: the WAN backend requires the default "
        "delivery path (controllers overriding schedule_network_delivery "
        "model the wire themselves)");
  }

  if (cfg_.engine.per_node_rng()) {
    if (custom_delivery_hook_) {
      throw std::invalid_argument(
          "engine: windowed-parallel execution requires the default delivery "
          "path (controllers overriding schedule_network_delivery are "
          "serial-only)");
    }
    // Closed-loop workloads resubmit requests at decision times, which only
    // the serial engine observes in order; open-loop workloads are per-node
    // streams and stay windowed-parallel safe.
    const bool workload_serial =
        workload_ != nullptr && workload_->serial_only();
    if (attacker_passive_ && !workload_serial) {
      // The lane mode. Ordering keys and message ids come from per-origin
      // counters, and a copy's delay and corruption coin are pure
      // functions of its message id (Rng::keyed), never of the lane that
      // draws them or of when it does.
      lane_mode_ = true;
      key_ctr_.assign(cfg_.n, 0);
      net_seed_ = net_rng_.next_u64();
      win_ = std::make_unique<WindowedEngine>(*this);
      return win_->run();
    }
    // Graceful degradation: a global attacker's observation order (and a
    // closed-loop workload's resubmission order) is not lane-independent,
    // so such a run cannot execute on the windowed driver. Instead of
    // refusing the config (which would kill whole sweeps that set a global
    // engine.intra_jobs), deterministically fall back to the serial engine
    // for this run and record the decision.
    const std::string what = attacker_passive_
                                 ? std::string("closed-loop workload")
                                 : "attack \"" + cfg_.attack + "\"";
    warnings_.push_back(RunWarning{
        "engine-serial-fallback",
        what + " is serial-only: engine.intra_jobs=" +
            std::to_string(cfg_.engine.intra_jobs) +
            " ignored, run executed on the serial engine"});
  }

  start();

  Lane& ln = *lanes_.front();
  // Timeline sampling: reads engine counters only (no events, no RNG), so
  // a sampled run stays bit-identical to an unsampled one.
  const auto advance = [this, &ln](Time at) {
    ln.now = at;
    if (timeline_ != nullptr && ln.now >= timeline_->next_sample_at()) {
      sample_timeline(/*final_sample=*/false);
    }
  };
  TerminationReason reason = TerminationReason::kQueueDrained;
  while (!decided()) {
    // Every transition due by the next event's instant applies first.
    if (fault_next_ < fault_end_ &&
        (ln.queue.empty() || next_fault_at() <= ln.queue.next_time())) {
      advance(next_fault_at());
      if (!apply_next_fault()) {
        reason = TerminationReason::kEventBudget;
        break;
      }
      continue;
    }
    if (ln.queue.empty()) break;
    Event ev = [&] {
      BFTSIM_PROFILE_SCOPE(ln.profile, obs::ProfileComponent::kEventPop);
      return ln.queue.pop();
    }();
    if (ev.at > horizon_) {
      ln.now = horizon_;
      reason = TerminationReason::kHorizon;
      break;
    }
    advance(ev.at);
    metrics_.on_event();
    if (metrics_.events_processed() > cfg_.max_events) {
      reason = TerminationReason::kEventBudget;
      break;
    }
    dispatch(ln, ev);
  }
  if (decided()) reason = TerminationReason::kDecided;
  return make_result(reason);
}

RunResult Controller::make_result(TerminationReason reason) {
  RunResult result;
  result.terminated = decided();
  result.termination_time = termination_time_;
  result.termination_reason = reason;
  result.decisions_target = cfg_.decisions;
  result.messages_sent = metrics_.messages_sent();
  result.bytes_sent = metrics_.bytes_sent();
  result.messages_delivered = metrics_.messages_delivered();
  result.messages_dropped = metrics_.messages_dropped();
  result.messages_injected = metrics_.messages_injected();
  result.messages_corrupted = metrics_.messages_corrupted();
  result.events_processed = metrics_.events_processed();
  result.timers_fired = metrics_.timers_fired();
  result.attacker_dropped = metrics_.attacker_dropped();
  result.attacker_delayed = metrics_.attacker_delayed();
  result.attacker_modified = metrics_.attacker_modified();
  result.attacker_duplicated = metrics_.attacker_duplicated();
  result.gossip_relayed = metrics_.gossip_relayed();
  result.gossip_duplicates = metrics_.gossip_duplicates();
  result.warnings = warnings_;
  result.decisions = metrics_.take_decisions();
  result.views = metrics_.take_views();
  result.failstopped = failstopped_;
  result.corrupted = corrupted_order_;
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (is_honest(i)) result.honest.push_back(i);
  }
  result.trace = std::move(trace_);
  if (workload_ != nullptr) {
    // Books close at the termination time, or at the horizon for every
    // non-decided outcome — a config constant, so the measured span is
    // identical whichever engine executed the run.
    result.workload =
        workload_->finalize(decided() ? termination_time_ : horizon_);
  }
  if (trace_sink_ != nullptr) {
    trace_sink_->flush();  // throws when a streaming sink's storage failed
    result.trace_fingerprint = trace_sink_->fingerprint();
    result.trace_records = trace_sink_->count();
  }
  if (timeline_ != nullptr) {
    sample_timeline(/*final_sample=*/true);
    result.timeline = timeline_->samples();
    result.timeline_tick = timeline_->tick();
  }
  for (const auto& ln : lanes_) result.profile.merge(ln->profile);
  return result;
}

void Controller::sample_timeline(bool final_sample) {
  const EventQueue& queue = lanes_.front()->queue;
  const std::size_t depth = queue.size();
  const std::size_t timers = queue.pending_timer_count();
  const std::size_t tombstones = queue.tombstone_count();

  obs::TimelineSample s;
  s.at = now();
  s.events_processed = metrics_.events_processed();
  s.queue_depth = depth;
  s.in_flight_messages = depth - timers - tombstones;  // exact: see EventQueue
  s.timers_pending = timers;
  s.messages_sent = metrics_.messages_sent();
  s.messages_delivered = metrics_.messages_delivered();
  if (!current_view_.empty()) {
    s.min_view = *std::min_element(current_view_.begin(), current_view_.end());
    s.max_view = *std::max_element(current_view_.begin(), current_view_.end());
    if (timeline_->record_views()) s.node_views = current_view_;
  }
  if (final_sample) {
    timeline_->add_final(std::move(s));
  } else {
    timeline_->add(std::move(s));
  }
}

}  // namespace bftsim
