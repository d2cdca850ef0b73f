// The simulation controller's event loop (§III-A1): node/attacker Context
// implementations, the network send path (delay sampling, topology
// penalties, attacker interception), timer management, the optional
// per-node CPU cost model, and run-termination bookkeeping.
#include "sim/controller.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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
  NodeCtx(Controller& c, NodeId id) : c_(c), id_(id) {}

  NodeId id() const noexcept override { return id_; }
  std::uint32_t n() const noexcept override { return c_.cfg_.n; }
  std::uint32_t f() const noexcept override { return c_.f_; }
  Time lambda() const noexcept override { return c_.lambda_; }
  Time now() const noexcept override {
    // Windowed-parallel runs keep one clock per lane; the serial clock is
    // otherwise authoritative. One predictable branch on the hot path.
    return c_.win_ != nullptr ? c_.win_->ctx_now(id_) : c_.now_;
  }

  void send(NodeId dst, PayloadPtr payload) override {
    if (c_.win_ != nullptr) {
      c_.win_->ctx_send(id_, dst, std::move(payload));
      return;
    }
    // One signature per send call: the message leaves once the CPU is done.
    const Time wire_at = c_.charge_cpu(id_, c_.sign_cost_);
    if (dst == id_) {
      c_.deliver_self(id_, std::move(payload));
    } else {
      c_.network_send(id_, dst, std::move(payload), wire_at - c_.now_);
    }
  }

  void broadcast(PayloadPtr payload, bool include_self) override {
    if (c_.win_ != nullptr) {
      c_.win_->ctx_broadcast(id_, std::move(payload), include_self);
      return;
    }
    // One signature covers the whole fan-out.
    const Time wire_at = c_.charge_cpu(id_, c_.sign_cost_);
    c_.network_broadcast(id_, payload, wire_at - c_.now_);
    if (include_self) c_.deliver_self(id_, std::move(payload));
  }

  TimerId set_timer(Time delay, std::uint64_t tag) override {
    if (c_.win_ != nullptr) return c_.win_->ctx_set_timer(id_, delay, tag);
    return c_.set_timer(TimerOwner::kNode, id_, delay, tag);
  }
  void cancel_timer(TimerId id) override {
    if (c_.win_ != nullptr) {
      c_.win_->ctx_cancel_timer(id_, id);
      return;
    }
    c_.cancel_timer(id);
  }

  ProposalBatch next_proposal(std::uint64_t slot, Value fresh) override {
    // on_propose touches only this node's arrival stream (client
    // affinity), so the call is lane-safe under the windowed engine.
    if (c_.workload_ == nullptr) return ProposalBatch{fresh, 0, 0};
    return c_.workload_->on_propose(id_, slot, fresh, now());
  }

  void report_decision(Value value) override {
    if (c_.win_ != nullptr) {
      c_.win_->ctx_report_decision(id_, value);
      return;
    }
    c_.report_decision(id_, value);
  }
  void record_view(View view) override {
    if (c_.win_ != nullptr) {
      c_.win_->ctx_record_view(id_, view);
      return;
    }
    c_.record_view(id_, view);
  }

  Rng& rng() noexcept override { return c_.node_rngs_[id_]; }
  const Vrf& vrf() const noexcept override { return c_.vrf_; }
  const Signer& signer() const noexcept override { return c_.signer_; }
  Arena& arena() noexcept override {
    return c_.win_ != nullptr ? c_.win_->ctx_arena(id_) : c_.arena_;
  }

 private:
  Controller& c_;
  NodeId id_;
};

class Controller::AtkCtx final : public AttackerContext {
 public:
  explicit AtkCtx(Controller& c) : c_(c) {}

  std::uint32_t n() const noexcept override { return c_.cfg_.n; }
  std::uint32_t f() const noexcept override { return c_.f_; }
  Time now() const noexcept override { return c_.now_; }

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
    return c_.set_timer(TimerOwner::kAttacker, kNoNode, delay, tag);
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

  nodes_.resize(cfg_.n);
  ctxs_.reserve(cfg_.n);
  node_rngs_.reserve(cfg_.n);
  Rng node_seed = run_rng_.fork(0x6e6f6465);  // "node"
  for (NodeId i = 0; i < cfg_.n; ++i) {
    node_rngs_.push_back(node_seed.fork(i));
    ctxs_.emplace_back(*this, i);
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

  // Size the event queue for the steady-state backlog: every node can have
  // a broadcast in flight (n-1 deliveries each) plus timers; the heap's
  // backing vector then recycles its slots for the rest of the run. The n²
  // estimate is capped — at n=4096 it would pin ~1 GB of heap before the
  // first event; beyond the cap the vector grows geometrically on demand,
  // which changes nothing observable (heap order is capacity-independent).
  constexpr std::size_t kMaxQueueReserve = std::size_t{1} << 18;
  queue_.reserve(
      std::min(static_cast<std::size_t>(cfg_.n) * cfg_.n, kMaxQueueReserve) +
      256);
  if (cost_model_on_) cpu_charged_.reserve(256);

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
    const auto& timeline = faults_->events();
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      if (timeline[i].at > horizon_) continue;
      queue_.push(timeline[i].at,
                  TimerFire{TimerOwner::kFault, kNoNode, next_timer_id_++, i});
    }
  }

  // WAN transport backend. Like the fault RNG, the overlay RNG is forked
  // off run_rng_ only when the backend is selected, so classic runs keep
  // every other stream aligned with the recorded goldens.
  if (cfg_.net.enabled()) {
    wan_ = std::make_unique<WanModel>(cfg_.net, cfg_.n,
                                      run_rng_.fork(0x77616e));  // "wan"
    if (wan_->gossip()) gossip_seen_.resize(cfg_.n);
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

void Controller::network_send(NodeId src, NodeId dst, PayloadPtr payload,
                              Time extra_delay) {
  assert(payload != nullptr);
  const std::uint64_t id = next_msg_id_++;
  const std::size_t wire = payload->wire_size();

  metrics_.on_send();
  metrics_.on_bytes(wire);
  const PayloadType tid = payload->type_id();
  if (tid != PayloadType::kUnknown) {
    metrics_.count_type(tid);
  } else {
    metrics_.count_type(std::string(payload->type()));
  }
  if (trace_sink_) {
    trace_sink_->on_record(TraceRecord{TraceKind::kSend, now_, src, dst,
                                       std::string(payload->type()),
                                       payload->digest(), id, 0, 0});
  }

  const Time sampled = [&] {
    BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kDelaySample);
    const Time draw = delay_sampler_.sample(net_rng_);
    // The WAN matrix adds a pure per-region-pair base on top of the same
    // single draw the classic path makes, so disabled-backend runs keep
    // net_rng_ bit-aligned with the goldens.
    return wan_ != nullptr ? draw + wan_->base_delay(src, dst)
                           : topology_.adjust(draw, src, dst);
  }();
  // Link flaps sit below the attacker: the delay is sampled first (keeping
  // net_rng_ aligned with fault-free runs) and a down link drops the
  // message before the attacker ever sees it.
  if (faults_ != nullptr && faults_->any_link_down() &&
      faults_->link_down(src, dst)) {
    metrics_.on_drop();
    if (trace_sink_) {
      trace_sink_->on_record(TraceRecord{TraceKind::kDrop, now_, src, dst,
                                         std::string(payload->type()),
                                         payload->digest(), id, 0, 0});
    }
    return;
  }

  if (attacker_passive_ && !custom_delivery_hook_) {
    // Fast path (no attack scenario, no subclass hook): no Message is
    // materialized — the envelope interns the transmission and the delivery
    // event carries an 8-byte handle. Bit-identical to the hook path below:
    // a passive attacker's attack() observes and changes nothing.
    if (faults_ != nullptr && faults_->maybe_corrupt(now_)) {
      payload = std::allocate_shared<CorruptedPayload>(
          ArenaAllocator<CorruptedPayload>(&arena_), std::move(payload));
      metrics_.on_corrupt();
    }
    const std::uint32_t env =
        env_store_.create(std::move(payload), now_, id, src, false, 1);
    const Time at =
        wan_ != nullptr && wan_->bandwidth_enabled()
            ? wan_->delivery_time(src, dst, wire, now_ + extra_delay, sampled)
            : now_ + std::max<Time>(extra_delay + sampled, 0);
    queue_.push(at, MessageDelivery{env, dst});
    return;
  }

  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.send_time = now_;
  msg.id = id;
  msg.payload = std::move(payload);
  MessageInFlight in_flight{std::move(msg), extra_delay + sampled};
  // Snapshot the pre-attack state so the attacker's edits are countable by
  // comparison — no per-action instrumentation inside attack() needed.
  // Payloads are immutable (shared_ptr<const Payload>), so replacement and
  // rerouting are the only modification channels an attacker has.
  const Time assigned_delay = in_flight.delay;
  const Payload* original_payload = in_flight.msg.payload.get();
  const NodeId original_src = in_flight.msg.src;
  const NodeId original_dst = in_flight.msg.dst;
  const Disposition verdict = [&] {
    BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kAttackerHook);
    return attacker_->attack(in_flight, *atk_ctx_);
  }();
  if (verdict == Disposition::kDrop) {
    metrics_.on_drop();
    metrics_.on_attacker_drop();
    if (trace_sink_) {
      trace_sink_->on_record(
          TraceRecord{TraceKind::kDrop, now_, in_flight.msg.src,
                      in_flight.msg.dst,
                      std::string(in_flight.msg.payload->type()),
                      in_flight.msg.payload->digest(), in_flight.msg.id, 0, 0});
    }
    return;
  }
  if (in_flight.delay != assigned_delay) metrics_.on_attacker_delay();
  if (in_flight.msg.payload.get() != original_payload ||
      in_flight.msg.src != original_src || in_flight.msg.dst != original_dst) {
    metrics_.on_attacker_modify();
  }
  if (faults_ != nullptr && faults_->maybe_corrupt(now_)) {
    in_flight.msg.payload = std::allocate_shared<CorruptedPayload>(
        ArenaAllocator<CorruptedPayload>(&arena_),
        std::move(in_flight.msg.payload));
    metrics_.on_corrupt();
  }
  Time final_delay = std::max<Time>(in_flight.delay, 0);
  if (wan_ != nullptr && wan_->bandwidth_enabled()) {
    // Bandwidth queuing applies after the attacker's verdict, on the link
    // the message actually takes (an attacker may have rerouted it).
    final_delay = wan_->delivery_time(in_flight.msg.src, in_flight.msg.dst,
                                      wire, now_, final_delay) -
                  now_;
  }
  schedule_network_delivery(std::move(in_flight.msg), final_delay);
}

void Controller::network_broadcast(NodeId src, const PayloadPtr& payload,
                                   Time extra_delay) {
  assert(payload != nullptr);
  if (wan_ != nullptr && wan_->gossip()) {
    gossip_broadcast(src, payload, extra_delay);
    return;
  }
  // Hoist everything that depends only on the payload out of the fan-out
  // loop: the virtual wire_size()/type_id() calls, and (when tracing) the
  // type string and digest. The per-destination sequence — message id,
  // delay sample, attacker verdict, scheduling — is unchanged, so a run is
  // bit-identical to one using n-1 network_send calls.
  const std::size_t wire = payload->wire_size();
  const PayloadType tid = payload->type_id();
  const bool tagged = tid != PayloadType::kUnknown;
  std::string trace_type;
  std::uint64_t trace_digest = 0;
  if (trace_sink_) {
    trace_type = std::string(payload->type());
    trace_digest = payload->digest();
  }

  const bool fast = attacker_passive_ && !custom_delivery_hook_;
  // The shared fan-out envelope, created lazily at the first scheduled
  // destination. Its base_id is the id the first destination in the loop
  // gets (dropped or not), so per-destination ids derive by position
  // exactly as next_msg_id_++ assigned them.
  constexpr std::uint32_t kNoEnvelope = 0xffffffffu;
  std::uint32_t env = kNoEnvelope;
  const std::uint64_t base_id = next_msg_id_;

  for (NodeId dst = 0; dst < cfg_.n; ++dst) {
    if (dst == src) continue;
    const std::uint64_t id = next_msg_id_++;

    metrics_.on_send();
    metrics_.on_bytes(wire);
    if (tagged) {
      metrics_.count_type(tid);
    } else {
      metrics_.count_type(std::string(payload->type()));
    }
    if (trace_sink_) {
      trace_sink_->on_record(TraceRecord{TraceKind::kSend, now_, src, dst,
                                         trace_type, trace_digest, id, 0, 0});
    }

    const Time sampled = [&] {
      BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kDelaySample);
      const Time draw = delay_sampler_.sample(net_rng_);
      // The WAN matrix adds a pure per-region-pair base on top of the same
      // single draw the classic path makes, so disabled-backend runs keep
      // net_rng_ bit-aligned with the goldens.
      return wan_ != nullptr ? draw + wan_->base_delay(src, dst)
                             : topology_.adjust(draw, src, dst);
    }();
    if (faults_ != nullptr && faults_->any_link_down() &&
        faults_->link_down(src, dst)) {
      metrics_.on_drop();
      if (trace_sink_) {
        trace_sink_->on_record(TraceRecord{TraceKind::kDrop, now_, src, dst,
                                           trace_type, trace_digest, id, 0,
                                           0});
      }
      continue;
    }

    if (fast) {
      if (faults_ != nullptr && faults_->maybe_corrupt(now_)) {
        // A corrupted copy diverges from the shared body: it gets its own
        // single-delivery envelope carrying the wrapped payload.
        PayloadPtr wrapped = std::allocate_shared<CorruptedPayload>(
            ArenaAllocator<CorruptedPayload>(&arena_), PayloadPtr(payload));
        metrics_.on_corrupt();
        const std::uint32_t solo =
            env_store_.create(std::move(wrapped), now_, id, src, false, 1);
        const Time at =
            wan_ != nullptr && wan_->bandwidth_enabled()
                ? wan_->delivery_time(src, dst, wire, now_ + extra_delay,
                                      sampled)
                : now_ + std::max<Time>(extra_delay + sampled, 0);
        queue_.push(at, MessageDelivery{solo, dst});
        continue;
      }
      if (env == kNoEnvelope) {
        env = env_store_.create(payload, now_, base_id, src, true, 0);
      }
      env_store_.add_pending(env, 1);
      const Time at =
          wan_ != nullptr && wan_->bandwidth_enabled()
              ? wan_->delivery_time(src, dst, wire, now_ + extra_delay, sampled)
              : now_ + std::max<Time>(extra_delay + sampled, 0);
      queue_.push(at, MessageDelivery{env, dst});
      continue;
    }

    Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.send_time = now_;
    msg.id = id;
    msg.payload = payload;
    MessageInFlight in_flight{std::move(msg), extra_delay + sampled};
    const Time assigned_delay = in_flight.delay;
    const Payload* original_payload = in_flight.msg.payload.get();
    const NodeId original_src = in_flight.msg.src;
    const NodeId original_dst = in_flight.msg.dst;
    const Disposition verdict = [&] {
      BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kAttackerHook);
      return attacker_->attack(in_flight, *atk_ctx_);
    }();
    if (verdict == Disposition::kDrop) {
      metrics_.on_drop();
      metrics_.on_attacker_drop();
      if (trace_sink_) {
        trace_sink_->on_record(
            TraceRecord{TraceKind::kDrop, now_, in_flight.msg.src,
                        in_flight.msg.dst,
                        std::string(in_flight.msg.payload->type()),
                        in_flight.msg.payload->digest(), in_flight.msg.id, 0,
                        0});
      }
      continue;
    }
    if (in_flight.delay != assigned_delay) metrics_.on_attacker_delay();
    if (in_flight.msg.payload.get() != original_payload ||
        in_flight.msg.src != original_src || in_flight.msg.dst != original_dst) {
      metrics_.on_attacker_modify();
    }
    if (faults_ != nullptr && faults_->maybe_corrupt(now_)) {
      in_flight.msg.payload = std::allocate_shared<CorruptedPayload>(
          ArenaAllocator<CorruptedPayload>(&arena_),
          std::move(in_flight.msg.payload));
      metrics_.on_corrupt();
    }
    Time final_delay = std::max<Time>(in_flight.delay, 0);
    if (wan_ != nullptr && wan_->bandwidth_enabled()) {
      final_delay = wan_->delivery_time(in_flight.msg.src, in_flight.msg.dst,
                                        wire, now_, final_delay) -
                    now_;
    }
    schedule_network_delivery(std::move(in_flight.msg), final_delay);
  }
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

void Controller::gossip_broadcast(NodeId origin, const PayloadPtr& payload,
                                  Time extra_delay) {
  const std::uint64_t gid = next_gossip_id_++;
  gossip_seen_[origin].insert(gid);  // never re-deliver to the origin
  for (const NodeId peer : wan_->peers_of(origin)) {
    gossip_send_copy(origin, peer, origin, payload, gid, extra_delay);
  }
}

void Controller::gossip_send_copy(NodeId relayer, NodeId peer, NodeId origin,
                                  const PayloadPtr& payload, std::uint64_t gid,
                                  Time extra_delay) {
  const std::uint64_t id = next_msg_id_++;
  const std::size_t wire = payload->wire_size();

  metrics_.on_send();
  metrics_.on_bytes(wire);
  const PayloadType tid = payload->type_id();
  if (tid != PayloadType::kUnknown) {
    metrics_.count_type(tid);
  } else {
    metrics_.count_type(std::string(payload->type()));
  }
  if (trace_sink_) {
    // The trace keeps the protocol-level source (the origin) so Send and
    // Deliver records pair up by message id like on the classic path; the
    // physical relayer shows up in the gossip counters instead.
    trace_sink_->on_record(TraceRecord{TraceKind::kSend, now_, origin, peer,
                                       std::string(payload->type()),
                                       payload->digest(), id, 0, 0});
  }

  const Time sampled = [&] {
    BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kDelaySample);
    return delay_sampler_.sample(net_rng_) + wan_->base_delay(relayer, peer);
  }();
  if (faults_ != nullptr && faults_->any_link_down() &&
      faults_->link_down(relayer, peer)) {
    metrics_.on_drop();
    if (trace_sink_) {
      trace_sink_->on_record(TraceRecord{TraceKind::kDrop, now_, origin, peer,
                                         std::string(payload->type()),
                                         payload->digest(), id, 0, 0});
    }
    return;
  }

  PayloadPtr body = payload;
  if (faults_ != nullptr && faults_->maybe_corrupt(now_)) {
    body = std::allocate_shared<CorruptedPayload>(
        ArenaAllocator<CorruptedPayload>(&arena_), std::move(body));
    metrics_.on_corrupt();
  }
  const std::uint32_t env =
      env_store_.create(std::move(body), now_, id, origin, false, 1);
  env_store_.get(env).gossip_id = gid;
  const Time at =
      wan_->bandwidth_enabled()
          ? wan_->delivery_time(relayer, peer, wire, now_ + extra_delay,
                                sampled)
          : now_ + std::max<Time>(extra_delay + sampled, 0);
  queue_.push(at, MessageDelivery{env, peer});
}

void Controller::gossip_deliver(const Message& msg, std::uint64_t gid) {
  // Fail-stopped / crashed destinations drop the copy exactly like the
  // classic path — without marking it seen, so a copy arriving after a
  // crash recovery can still be the accepted one.
  if (!is_live(msg.dst) ||
      (faults_ != nullptr && faults_->is_crashed(msg.dst))) {
    deliver_now(msg);
    return;
  }
  if (!gossip_seen_[msg.dst].insert(gid).second) {
    metrics_.on_drop();
    metrics_.on_gossip_duplicate();
    if (trace_sink_ != nullptr && msg.payload != nullptr) {
      trace_sink_->on_record(TraceRecord{TraceKind::kDrop, now_, msg.src,
                                         msg.dst,
                                         std::string(msg.payload->type()),
                                         msg.payload->digest(), msg.id, 0, 0});
    }
    return;
  }
  // First accepted copy: relay before local processing, so the CPU cost
  // model (which can defer on_message) never slows dissemination down.
  // Relaying forwards the bytes as received — including a fault-corrupted
  // wrapper — and skips the origin, which has the payload by definition.
  if (msg.payload != nullptr) {
    for (const NodeId peer : wan_->peers_of(msg.dst)) {
      if (peer == msg.src) continue;
      metrics_.on_gossip_relay();
      gossip_send_copy(msg.dst, peer, msg.src, msg.payload, gid, 0);
    }
  }
  deliver_now(msg);
}

void Controller::schedule_network_delivery(Message msg, Time delay) {
  const std::uint32_t env = env_store_.create(
      std::move(msg.payload), msg.send_time, msg.id, msg.src, false, 1);
  queue_.push(now_ + delay, MessageDelivery{env, msg.dst});
}

void Controller::schedule_message_at(Message msg, Time at) {
  const std::uint32_t env = env_store_.create(
      std::move(msg.payload), msg.send_time, msg.id, msg.src, false, 1);
  queue_.push(std::max(at, now_), MessageDelivery{env, msg.dst});
}

void Controller::deliver_self(NodeId id, PayloadPtr payload) {
  // A node's message to itself does not traverse the network or the
  // attacker and is not counted as a transmitted message; it is scheduled
  // (rather than dispatched inline) so handlers never re-enter.
  const std::uint64_t msg_id = next_msg_id_++;
  const std::uint32_t env =
      env_store_.create(std::move(payload), now_, msg_id, id, false, 1);
  queue_.push(now_, MessageDelivery{env, id});
}

void Controller::inject_message(Message msg, Time delay) {
  msg.id = next_msg_id_++;
  msg.send_time = now_;
  metrics_.on_inject();
  if (trace_sink_ != nullptr && msg.payload != nullptr) {
    trace_sink_->on_record(TraceRecord{TraceKind::kSend, now_, msg.src,
                                       msg.dst, std::string(msg.payload->type()),
                                       msg.payload->digest(), msg.id, 0, 0});
  }
  const std::uint32_t env = env_store_.create(
      std::move(msg.payload), msg.send_time, msg.id, msg.src, false, 1);
  queue_.push(now_ + std::max<Time>(delay, 0), MessageDelivery{env, msg.dst});
}

Time Controller::charge_cpu(NodeId node, Time cost) {
  if (node >= cpu_free_.size()) return now_;
  if (cost <= 0) return std::max(cpu_free_[node], now_);
  cpu_free_[node] = std::max(cpu_free_[node], now_) + cost;
  return cpu_free_[node];
}

void Controller::deliver_now(const Message& msg) {
  if (!is_live(msg.dst)) {
    metrics_.on_drop();
    return;
  }
  // A crashed node drops everything that arrives during its outage window
  // (it will resync via the protocol's own catch-up paths after recovery).
  if (faults_ != nullptr && faults_->is_crashed(msg.dst)) {
    metrics_.on_drop();
    if (cost_model_on_) cpu_charged_.erase(msg.id);
    if (trace_sink_ != nullptr && msg.payload != nullptr) {
      trace_sink_->on_record(TraceRecord{TraceKind::kDrop, now_, msg.src,
                                         msg.dst,
                                         std::string(msg.payload->type()),
                                         msg.payload->digest(), msg.id, 0, 0});
    }
    return;
  }
  // Computation-cost model: verifying a network message occupies the
  // receiver's CPU, and a CPU still busy (verifying or signing) defers the
  // processing of new arrivals — messages queue behind each other, which
  // is what makes throughput saturate. Self-deliveries are internal and
  // free.
  if (cost_model_on_ && msg.src != msg.dst && !cpu_charged_.contains(msg.id)) {
    cpu_charged_.insert(msg.id);
    charge_cpu(msg.dst, verify_cost_);
    if (cpu_free_[msg.dst] > now_) {
      schedule_message_at(msg, cpu_free_[msg.dst]);  // redeliver when free
      return;
    }
  }
  cpu_charged_.erase(msg.id);
  if (msg.src != msg.dst) metrics_.on_deliver();  // self-delivery is free
  if (trace_sink_ != nullptr && msg.payload != nullptr) {
    trace_sink_->on_record(TraceRecord{TraceKind::kDeliver, now_, msg.src,
                                       msg.dst,
                                       std::string(msg.payload->type()),
                                       msg.payload->digest(), msg.id, 0, 0});
  }
  if (is_corrupt(msg.dst)) return;  // attacker swallows its nodes' input
  BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kOnMessage);
  nodes_[msg.dst]->on_message(msg, ctxs_[msg.dst]);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

TimerId Controller::set_timer(TimerOwner owner, NodeId node, Time delay,
                              std::uint64_t tag) {
  // Clock skew/drift distorts the node's view of how long `delay` is.
  if (faults_ != nullptr && owner == TimerOwner::kNode) {
    delay = faults_->adjust_timer_delay(node, delay);
  }
  const TimerId id = next_timer_id_++;
  queue_.push(now_ + std::max<Time>(delay, 0), TimerFire{owner, node, id, tag});
  return id;
}

void Controller::cancel_timer(TimerId id) { queue_.cancel_timer(id); }

void Controller::schedule_system_event(Time at, std::uint64_t tag) {
  queue_.push(std::max(at, now_),
              TimerFire{TimerOwner::kSystem, kNoNode, next_timer_id_++, tag});
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void Controller::report_decision(NodeId node, Value value) {
  const std::uint64_t height = decided_count_[node]++;
  if (workload_ != nullptr) workload_->on_decide(value, now_);
  metrics_.on_decision(Decision{node, now_, height, value});
  if (trace_sink_) {
    trace_sink_->on_record(TraceRecord{TraceKind::kDecide, now_, node, kNoNode,
                                       {}, 0, 0, height, value});
  }
  BFTSIM_LOG(kDebug, "node " << node << " decided height " << height
                             << " value " << value << " at " << to_ms(now_) << "ms");
  check_termination();
}

void Controller::record_view(NodeId node, View view) {
  if (cfg_.record_views) metrics_.on_view(ViewRecord{node, now_, view});
  if (trace_sink_) {
    trace_sink_->on_record(TraceRecord{TraceKind::kViewChange, now_, node,
                                       kNoNode, {}, 0, 0, view, 0});
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
    trace_sink_->on_record(
        TraceRecord{TraceKind::kCorrupt, now_, node, kNoNode, {}, 0, 0, 0, 0});
  }
  BFTSIM_LOG(kInfo, "attacker corrupted node " << node << " at " << to_ms(now_) << "ms");
  check_termination();
  return true;
}

void Controller::check_termination() {
  if (stopped_) return;
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (!is_honest(i)) continue;
    if (decided_count_[i] < cfg_.decisions) return;
  }
  stopped_ = true;
  termination_time_ = now_;
}

bool Controller::is_live(NodeId id) const noexcept {
  return id < cfg_.n && nodes_[id] != nullptr;
}

Context& Controller::node_ctx(NodeId id) noexcept { return ctxs_[id]; }

AttackerContext& Controller::attacker_ctx() noexcept { return *atk_ctx_; }

bool Controller::is_honest(NodeId id) const noexcept {
  return is_live(id) && !is_corrupt(id);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

void Controller::dispatch(Event& ev) {
  if (const auto* delivery = std::get_if<MessageDelivery>(&ev.body)) {
    const std::uint64_t gid = env_store_.get(delivery->env).gossip_id;
    const Message msg = env_store_.materialize(delivery->env, delivery->dst);
    if (gid != 0) {
      gossip_deliver(msg, gid);
    } else {
      deliver_now(msg);
    }
    env_store_.release(delivery->env);
    return;
  }
  auto& fire = std::get<TimerFire>(ev.body);
  if (queue_.consume_cancellation(fire.timer)) return;
  // A crashed node's timers are suspended, not lost: the fire is deferred
  // to the recovery instant (the kRecover fault timer carries an earlier
  // sequence number, so at that tie the node is already back up). Dropping
  // them instead could leave a recovered node with no pending timers — a
  // guaranteed deadlock.
  if (faults_ != nullptr && fire.owner == TimerOwner::kNode &&
      faults_->is_crashed(fire.node)) {
    queue_.push(faults_->recovery_time(fire.node),
                TimerFire{fire.owner, fire.node, fire.timer, fire.tag});
    return;
  }
  metrics_.on_timer();
  const TimerEvent te{fire.timer, fire.tag, now_};
  switch (fire.owner) {
    case TimerOwner::kNode:
      if (is_live(fire.node) && !is_corrupt(fire.node)) {
        BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kOnTimer);
        nodes_[fire.node]->on_timer(te, ctxs_[fire.node]);
      }
      break;
    case TimerOwner::kAttacker: {
      BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kAttackerHook);
      attacker_->on_timer(te, *atk_ctx_);
      break;
    }
    case TimerOwner::kSystem:
      on_system_event(fire.tag);
      break;
    case TimerOwner::kFault: {
      BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kFaultHook);
      faults_->apply(fire.tag);
      break;
    }
  }
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
      win_ = std::make_unique<WindowedEngine>(*this);
      return win_->run();
    }
    // Graceful degradation: a global attacker's observation order (and a
    // closed-loop workload's resubmission order) is not lane-independent,
    // so such a run cannot execute on the windowed driver. Instead of
    // refusing the config (which would kill whole sweeps that set a global
    // engine.intra_jobs), deterministically fall back to the serial engine
    // for this run and record the decision.
    warnings_.push_back(RunWarning{
        "engine-serial-fallback",
        attacker_passive_
            ? "closed-loop workload is serial-only: engine.intra_jobs=" +
                  std::to_string(cfg_.engine.intra_jobs) +
                  " ignored, run executed on the serial engine"
            : "attack \"" + cfg_.attack +
                  "\" is serial-only: engine.intra_jobs=" +
                  std::to_string(cfg_.engine.intra_jobs) +
                  " ignored, run executed on the serial engine"});
  }

  attacker_->on_start(*atk_ctx_);
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (is_live(i)) nodes_[i]->on_start(ctxs_[i]);
  }
  check_termination();  // degenerate configs (decisions == 0 is rejected)

  TerminationReason reason = TerminationReason::kQueueDrained;
  while (!stopped_ && !queue_.empty()) {
    Event ev = [&] {
      BFTSIM_PROFILE_SCOPE(profile_, obs::ProfileComponent::kEventPop);
      return queue_.pop();
    }();
    if (ev.at > horizon_) {
      now_ = horizon_;
      reason = TerminationReason::kHorizon;
      break;
    }
    now_ = ev.at;
    // Timeline sampling: reads engine counters only (no events, no RNG), so
    // a sampled run stays bit-identical to an unsampled one.
    if (timeline_ != nullptr && now_ >= timeline_->next_sample_at()) {
      sample_timeline(/*final_sample=*/false);
    }
    metrics_.on_event();
    if (metrics_.events_processed() > cfg_.max_events) {
      reason = TerminationReason::kEventBudget;
      break;
    }
    dispatch(ev);
  }
  if (stopped_) reason = TerminationReason::kDecided;
  return make_result(reason);
}

RunResult Controller::make_result(TerminationReason reason) {
  RunResult result;
  result.terminated = stopped_;
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
  result.decisions = metrics_.decisions();
  result.views = metrics_.views();
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
        workload_->finalize(stopped_ ? termination_time_ : horizon_);
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
  result.profile = profile_;
  return result;
}

void Controller::sample_timeline(bool final_sample) {
  const std::size_t depth = queue_.size();
  const std::size_t timers = queue_.pending_timer_count();
  const std::size_t tombstones = queue_.tombstone_count();

  obs::TimelineSample s;
  s.at = now_;
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
