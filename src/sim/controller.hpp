// The controller (§III-A1): owns the event queue, the simulation clock, the
// consensus module (the n node instances), the network module and the
// attacker module; dispatches events; collects metrics; and decides when
// the run terminates.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "attacker/attacker.hpp"
#include "core/arena.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "crypto/signature.hpp"
#include "crypto/vrf.hpp"
#include "net/delay_model.hpp"
#include "net/topology.hpp"
#include "net/wan/wan_model.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"
#include "protocols/node.hpp"
#include "sim/lane.hpp"
#include "sim/result.hpp"

namespace bftsim {

class FaultInjector;
class WindowedEngine;
class WorkloadManager;

/// Drives one simulation run. Construct with a validated SimConfig, call
/// run() once. The packet-level baseline simulator subclasses this and
/// overrides the network-delivery hook (see src/baseline/).
class Controller {
 public:
  explicit Controller(SimConfig cfg);
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;
  virtual ~Controller();

  /// Runs the simulation to termination / horizon; call at most once.
  RunResult run();

  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

  /// Peak live bytes of the run's arenas (payloads and certificate
  /// bodies), summed over the serial arena and every lane's.
  [[nodiscard]] std::size_t arena_high_water() const noexcept;

  /// Event-queue run storage at each lane's peak, summed over the lanes
  /// (see EventQueue::run_memory_peak).
  [[nodiscard]] EventQueue::RunMemory queue_run_peak() const noexcept;

 protected:
  /// Network-delivery hook: schedules the delivery event for a message that
  /// passed the attacker with final `delay`. The default implementation
  /// models message-level delivery (one event). The baseline simulator
  /// overrides this with per-packet, per-hop event cascades. A subclass
  /// that overrides it must set custom_delivery_hook_ = true in its
  /// constructor: that routes every transmission through the hook as a
  /// materialized Message instead of the envelope fast path (and excludes
  /// the subclass from windowed-parallel execution).
  virtual void schedule_network_delivery(Message msg, Time delay);

  /// Set by subclasses that override schedule_network_delivery (see above).
  bool custom_delivery_hook_ = false;

  /// Schedules delivery of a fully-formed message at absolute time `at`
  /// (clamped to now). For subclasses that bypass delay sampling entirely
  /// (e.g. the trace-replay validator).
  void schedule_message_at(Message msg, Time at);

  /// Hook for subclass-defined system events (e.g. baseline packet hops).
  virtual void on_system_event(std::uint64_t /*tag*/) {}

  /// Schedules a system event (owner kSystem) at absolute time `at`.
  void schedule_system_event(Time at, std::uint64_t tag);

  [[nodiscard]] Time now() const noexcept { return lanes_.front()->now; }

  /// Final-delivery step shared with subclasses: counts, traces and hands
  /// the message to its destination node (if live and honest).
  void deliver_now(const Message& msg);

 private:
  class NodeCtx;
  class AtkCtx;
  struct Transmission;

  // --- network module -------------------------------------------------------
  // One event path serves both engines: every method below runs against
  // the lane executing the current event, and the run's mode (lane_mode_)
  // picks the ordering key, the random streams and where products go.
  void send(Lane& ln, NodeId src, NodeId dst, PayloadPtr payload);
  void broadcast(Lane& ln, NodeId src, PayloadPtr payload, bool include_self);
  /// A passive broadcast's sender side, done once: ids and keys as one
  /// block, bulk counts, Send and link-down Drop records; then expand().
  void fan_out(Lane& ln, const Transmission& tx);
  /// Draws and queues, in position order, the copies of `fo` for `ln`.
  void expand(Lane& ln, const FanOut& fo);
  /// The send sequence of unicast, gossip and attacked copies: id, Send
  /// trace, delay, link-down drop, then the attacker/delivery hook or the
  /// corruption coin, envelope and scheduling. `from` is the physical
  /// sender (a gossip relayer); tx.src the protocol-visible one.
  void send_copy(Lane& ln, const Transmission& tx, NodeId from, NodeId dst);
  /// The attacker verdict and delivery hook for one copy (serial engine:
  /// attacked runs and subclassed delivery never take the lane mode).
  void intercept(Lane& ln, const Transmission& tx, NodeId dst,
                 std::uint64_t id, Time sampled);
  /// A copy's delay (keyed by `id` in lane mode) plus WAN/topology base.
  [[nodiscard]] Time draw_delay(Lane& ln, std::uint64_t id, NodeId from,
                                NodeId dst);
  [[nodiscard]] Time arrival(NodeId from, NodeId dst, const Payload& payload,
                             Time sent, Time extra, Time sampled);
  void deliver_self(Lane& ln, NodeId id, PayloadPtr payload);
  void inject_message(Message msg, Time delay);
  /// The ordering key of a copy with message id `id` that is not part of a
  /// broadcast fan-out: the id on the lane engine, the next insertion
  /// sequence number on the serial engine.
  [[nodiscard]] std::uint64_t copy_key(Lane& ln, std::uint64_t id) noexcept {
    return lane_mode_ ? id : ln.queue.draw_seq();
  }
  /// Message ids: the global counter on the serial engine, the sender's
  /// ordering key on the lane engine.
  [[nodiscard]] std::uint64_t draw_id(NodeId origin) noexcept;
  /// Lane engine: draws the next ordering key of `origin`.
  [[nodiscard]] std::uint64_t draw_key(NodeId origin) noexcept;
  [[nodiscard]] static std::uint64_t origin_key(NodeId origin) noexcept {
    return (static_cast<std::uint64_t>(origin) + 1) << kOriginShift;
  }
  /// Trace emission: straight into the sink on the serial engine, buffered
  /// per lane (merged at the barrier) on the lane engine.
  void emit(Lane& ln, TraceRecord rec);
  /// Emits a `kind` record for `msg` when tracing (and `msg` has a body).
  void trace_message(Lane& ln, TraceKind kind, const Message& msg);

  // --- WAN backend (net/wan/) -------------------------------------------------
  /// Duplicate suppression + relay fan-out on gossip arrival, then the
  /// shared deliver_now step.
  void gossip_deliver(const Message& msg, std::uint64_t gid);
  /// Marks gossip `gid` accepted at `node`; false if it already was.
  bool mark_gossip_seen(NodeId node, std::uint64_t gid);

  // --- timers ---------------------------------------------------------------
  TimerId set_timer(Lane& ln, TimerOwner owner, NodeId node, Time delay,
                    std::uint64_t tag);
  /// Queues a timer fire: by insertion order, or under `key` in lane mode.
  void push_timer(Lane& ln, Time at, std::uint64_t key, const TimerFire& fire);

  /// Charges `cost` of CPU time to `node` (computation-cost model).
  /// Returns when the node's CPU becomes free again.
  Time charge_cpu(const Lane& ln, NodeId node, Time cost);

  // --- reporting --------------------------------------------------------------
  void report_decision(Lane& ln, NodeId node, Value value);
  /// Books one decision into the run's metrics and workload; inline on the
  /// serial engine, in merged order at the barrier on the lane engine.
  void settle_decision(const Decision& d);
  void record_view(Lane& ln, NodeId node, View view);
  bool corrupt(NodeId node);
  /// Counts one honest node off honest_short_; the last stops the run,
  /// at `at`.
  void count_off(Time at);

  // --- run loop ---------------------------------------------------------------
  void dispatch(Lane& ln, Event& ev);
  /// The instant of the fault timeline's next transition within the
  /// horizon; the largest Time once none is left.
  [[nodiscard]] Time next_fault_at() const noexcept;
  /// Applies the next fault transition as one event and one timer firing.
  /// Both loops call it before any event at that transition's instant.
  /// Returns false, applying nothing, when the event exceeds the budget.
  [[nodiscard]] bool apply_next_fault();
  /// Assembles the RunResult from the run's final state; shared by the
  /// serial loop and the windowed-parallel driver.
  RunResult make_result(TerminationReason reason);
  /// Snapshots engine state into the timeline (timeline_ must be set).
  void sample_timeline(bool final_sample);
  [[nodiscard]] bool is_live(NodeId id) const noexcept;
  [[nodiscard]] bool is_honest(NodeId id) const noexcept;
  /// The lane executing `id`'s events (lane 0 for ids outside the run).
  [[nodiscard]] Lane& lane_for(NodeId id) noexcept;
  /// Moves node `id` onto `lane` (the windowed driver's partition).
  void bind_lane(NodeId id, Lane& lane) noexcept;
  /// The start phase of both drivers: attacker and node on_start calls,
  /// in node order.
  void start();
  [[nodiscard]] bool is_corrupt(NodeId id) const noexcept {
    return id < corrupt_flags_.size() && corrupt_flags_[id] != 0;
  }
  [[nodiscard]] bool decided() const noexcept { return honest_short_ == 0; }

  // Lane-engine ordering keys: (origin + 1) << 40 | per-origin counter.
  // Origin slot 0 is reserved (nothing queues under it; global artifacts
  // would sort first at ties). The counter doubles as the message id
  // space, so ids stay unique and per-origin monotone.
  static constexpr unsigned kOriginShift = 40;

  /// Event-queue entries reserved per node: a broadcast in flight is one
  /// message-heap entry, so that heap's backlog is a few broadcasts and
  /// self-deliveries per node, and the timer heap holds about one armed
  /// timer per node.
  static constexpr std::size_t kQueueEntriesPerNode = 3;
  static constexpr std::size_t kTimersPerNode = 1;

  SimConfig cfg_;
  /// Run-scoped arena backing payload allocations. Declared before every
  /// member that can hold a PayloadPtr (lanes_, nodes_, attacker_, faults_,
  /// metrics sinks) so that it is destroyed after all of them — arena-backed
  /// payloads must outlive their last shared_ptr.
  Arena arena_;
  /// Windowed-parallel runs give each lane its own arena (Arena is
  /// single-threaded by design). Owned here rather than by the engine so
  /// the destruction-order guarantee above extends to lane-allocated
  /// payloads; empty for serial runs.
  std::vector<std::unique_ptr<Arena>> lane_arenas_;
  /// The event path's lanes: exactly one on the serial engine, one per
  /// partition on the windowed driver. Each owns an event queue and an
  /// envelope store holding payload pointers, so they are declared after
  /// the arenas (payload pointers release before any arena dies).
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint32_t f_ = 0;       ///< protocol fault threshold (= attacker budget)
  Time lambda_ = 0;           ///< cfg.lambda_ms in Time units
  Time horizon_ = 0;          ///< cfg.max_time_ms in Time units

  /// Honest nodes still short of the decision target. It starts at the
  /// live-node count; settle_decision and corrupt() count nodes off, and
  /// the run stops, decided, when it reaches 0.
  std::uint32_t honest_short_ = 0;
  Time termination_time_ = kNoTime;
  /// The fault timeline's cursor: the next transition to apply, and the
  /// end of the prefix within the horizon (both 0 on fault-free runs).
  std::size_t fault_next_ = 0;
  std::size_t fault_end_ = 0;
  /// The run's mode, chosen once in run(): true when it executes on the
  /// windowed lane engine (per-origin keys, draws keyed by message id,
  /// products buffered per lane), false on the serial engine (insertion
  /// order, shared streams, products written inline).
  bool lane_mode_ = false;

  Rng run_rng_;   ///< master stream (seeds everything else)
  Rng net_rng_;   ///< network delay sampling
  std::uint64_t net_seed_ = 0;  ///< lane mode: the keyed delay draws' seed
  std::vector<std::uint64_t> key_ctr_;  ///< lane mode: per-origin counters
  Rng atk_rng_;   ///< attacker randomness
  Vrf vrf_;
  Signer signer_;
  DelaySampler delay_sampler_;
  TopologySpec topology_;

  std::vector<std::unique_ptr<Node>> nodes_;  ///< nullptr => fail-stopped
  /// Parallel to nodes_. Stored flat (struct-of-arrays style) rather than
  /// as n separate heap allocations: NodeCtx is small and trivially
  /// relocatable, and at n=4096 the flat layout saves 4096 mallocs and
  /// keeps the contexts on a handful of cache lines. NodeCtx is an
  /// incomplete type here; the ctor/dtor instantiating the vector's
  /// members live in controller.cpp.
  std::vector<NodeCtx> ctxs_;
  std::vector<Rng> node_rngs_;
  std::unique_ptr<Attacker> attacker_;
  std::unique_ptr<AtkCtx> atk_ctx_;
  /// Cached attacker_->is_passive(): with a passive attacker (and the
  /// default delivery hook) sends take the envelope fast path and never
  /// materialize a MessageInFlight.
  bool attacker_passive_ = false;
  /// Fault-injection state; nullptr unless cfg.faults is enabled, so the
  /// fault hooks cost one null check on fault-free runs.
  std::unique_ptr<FaultInjector> faults_;

  /// WAN transport backend; nullptr unless cfg.net is enabled, so the
  /// classic network path costs one null check per send.
  std::unique_ptr<WanModel> wan_;
  /// Client workload generator; nullptr unless cfg.workload is enabled, so
  /// workload-free proposals cost one null check in next_proposal.
  std::unique_ptr<WorkloadManager> workload_;
  /// Gossip duplicate suppression: n bits per gossip id, bit
  /// (gid - 1) * n + node set once `node` has accepted gossip `gid`. Ids are
  /// dense from 1, so the bitset grows by n bits per gossip broadcast; it
  /// stays empty unless the gossip backend is selected.
  std::vector<std::uint64_t> gossip_seen_;
  std::uint64_t next_gossip_id_ = 1;

  // Computation-cost model state: per-node CPU availability (the set of
  // deliveries whose verification cost has already been paid is per lane).
  Time verify_cost_ = 0;
  Time sign_cost_ = 0;
  bool cost_model_on_ = false;
  std::vector<Time> cpu_free_;

  std::vector<NodeId> failstopped_;
  std::vector<std::uint8_t> corrupt_flags_;  ///< indexed by NodeId; hot-path check
  std::vector<NodeId> corrupted_order_;
  std::vector<std::uint32_t> decided_count_;

  Metrics metrics_;
  Trace trace_;
  /// Trace destination; nullptr unless tracing is on (record_trace or a
  /// streaming obs sink), so every emission site costs one null check —
  /// exactly what the `record_trace` flag used to cost.
  std::unique_ptr<obs::TraceSink> trace_sink_;
  /// Timeline collector; nullptr unless obs.timeline_tick_ms > 0. Sampled
  /// inline from the run loop — never schedules events or consumes RNG.
  std::unique_ptr<obs::Timeline> timeline_;
  std::vector<View> current_view_;  ///< per-node view, timeline runs only
  std::uint64_t next_msg_id_ = 1;   ///< serial-engine message ids
  bool ran_ = false;
  /// Non-fatal configuration deviations surfaced on the RunResult (e.g.
  /// the serial fallback for attack-carrying windowed configs).
  std::vector<RunWarning> warnings_;

  /// Windowed-parallel driver (sim/windowed.cpp); non-null only while a
  /// windowed run executes. It holds scheduling state only (the lanes are
  /// lanes_), but needs the same deep access to the run state as the
  /// member functions above.
  friend class WindowedEngine;
  std::unique_ptr<WindowedEngine> win_;
};

}  // namespace bftsim
