#include "faults/fault_injector.hpp"

#include <algorithm>
#include <cassert>

namespace bftsim {

namespace {

// Fork salts for the injector's sub-streams. Fixed constants so that a
// given fault stream always splits the same way regardless of which fault
// kinds a scenario enables.
constexpr std::uint64_t kPlanSalt = 1;
constexpr std::uint64_t kCorruptSalt = 2;
constexpr std::uint64_t kClockSalt = 3;
constexpr std::uint64_t kKeyedCorruptSalt = 4;

}  // namespace

FaultInjector::FaultInjector(const FaultConfig& cfg, std::uint32_t n,
                             Rng fault_rng)
    : plan_(FaultPlan::build(cfg, n, fault_rng.fork(kPlanSalt))),
      crashed_(n, 0),
      recovery_time_(n, kNoTime),
      links_(n),
      corruption_(cfg.corruption),
      corrupt_rng_(fault_rng.fork(kCorruptSalt)) {
  if (corruption_.enabled()) {
    corrupt_start_ = from_ms(corruption_.start_ms);
    corrupt_end_ =
        corruption_.end_ms > 0 ? from_ms(corruption_.end_ms) : kNoTime;
  }
  if (cfg.clock.enabled()) {
    clock_enabled_ = true;
    Rng clock_rng = fault_rng.fork(kClockSalt);
    clock_skew_.reserve(n);
    clock_drift_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      clock_skew_.push_back(
          from_ms(clock_rng.uniform(-cfg.clock.max_skew_ms, cfg.clock.max_skew_ms)));
      clock_drift_.push_back(
          1.0 + clock_rng.uniform(-cfg.clock.max_drift, cfg.clock.max_drift));
    }
  }
  // Forked last, so the streams above match runs recorded before it.
  corrupt_seed_ = fault_rng.fork(kKeyedCorruptSalt).next_u64();
}

void FaultInjector::apply(std::size_t index) {
  assert(index < plan_.events().size());
  const FaultEvent& ev = plan_.events()[index];
  switch (ev.kind) {
    case FaultKind::kCrash:
      crashed_[ev.a] = 1;
      recovery_time_[ev.a] = ev.until;
      break;
    case FaultKind::kRecover:
      crashed_[ev.a] = 0;
      recovery_time_[ev.a] = kNoTime;
      break;
    case FaultKind::kLinkDown:
      links_.set_down(ev.a, ev.b);
      break;
    case FaultKind::kLinkUp:
      links_.set_up(ev.a, ev.b);
      break;
  }
}

bool FaultInjector::maybe_corrupt(Time now, std::uint64_t id, bool keyed) {
  if (!corruption_.enabled()) return false;
  if (now < corrupt_start_) return false;
  if (corrupt_end_ != kNoTime && now >= corrupt_end_) return false;
  return (keyed ? Rng::keyed(corrupt_seed_, id).next_double()
                : corrupt_rng_.next_double()) < corruption_.rate;
}

Time FaultInjector::adjust_timer_delay(NodeId node, Time delay) const noexcept {
  if (!clock_enabled_) return delay;
  const double drifted = static_cast<double>(delay) * clock_drift_[node];
  const Time adjusted = static_cast<Time>(drifted) + clock_skew_[node];
  return std::max<Time>(adjusted, 0);
}

}  // namespace bftsim
