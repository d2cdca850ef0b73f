// Lightweight profiling scopes for the engine hot path.
//
// A ProfileScope measures wall time spent inside one engine component
// (event pop, delay sampling, attacker hooks, protocol handlers, fault
// hooks) and accumulates it into a ProfileBreakdown carried on RunResult.
//
// The whole facility compiles to nothing unless the build sets
// BFTSIM_PROFILING (cmake -DBFTSIM_PROFILING=ON): the instrumentation
// macro expands to a no-op statement, so the default build's hot path is
// byte-for-byte the uninstrumented one. Profiling measures real time and
// is for finding where a run spends cycles — it never affects simulated
// time or determinism.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "core/json.hpp"

namespace bftsim::obs {

/// Engine components the hot path is broken down into.
enum class ProfileComponent : std::uint8_t {
  kEventPop,      ///< event-queue pop + bookkeeping
  kDelaySample,   ///< network delay sampling
  kAttackerHook,  ///< attacker on_send/on_deliver interception
  kOnMessage,     ///< protocol on_message handlers
  kOnTimer,       ///< protocol on_timer handlers
  kFaultHook,     ///< fault-layer hooks
  kCount,
};

inline constexpr std::size_t kProfileComponentCount =
    static_cast<std::size_t>(ProfileComponent::kCount);

/// Human-readable name of a profile component.
[[nodiscard]] std::string_view to_string(ProfileComponent c) noexcept;

/// Per-component accumulated wall time and call counts for one run (or,
/// after merge(), for a set of runs).
struct ProfileBreakdown {
  std::array<std::uint64_t, kProfileComponentCount> total_ns{};
  std::array<std::uint64_t, kProfileComponentCount> calls{};
  /// Windowed-engine windows by how their lanes ran: concurrently on the
  /// lane pool, or one after another on the driver thread. Counted in
  /// every build (one increment per window); zero on the serial engine.
  std::uint64_t windows_parallel = 0;
  std::uint64_t windows_inline = 0;

  void record(ProfileComponent c, std::uint64_t ns) noexcept {
    const auto i = static_cast<std::size_t>(c);
    total_ns[i] += ns;
    ++calls[i];
  }

  /// True when no component time has been recorded (profiling off or
  /// unused). Window counts do not count: they are recorded in every build.
  [[nodiscard]] bool empty() const noexcept {
    for (const auto n : calls) {
      if (n != 0) return false;
    }
    return true;
  }

  void merge(const ProfileBreakdown& other) noexcept {
    for (std::size_t i = 0; i < kProfileComponentCount; ++i) {
      total_ns[i] += other.total_ns[i];
      calls[i] += other.calls[i];
    }
    windows_parallel += other.windows_parallel;
    windows_inline += other.windows_inline;
  }

  [[nodiscard]] json::Value to_json() const;
};

/// RAII timer: measures its own lifetime and records it into a breakdown.
class ProfileScope {
 public:
  ProfileScope(ProfileBreakdown& breakdown, ProfileComponent component) noexcept
      : breakdown_(breakdown),
        component_(component),
        start_(std::chrono::steady_clock::now()) {}

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  ~ProfileScope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    breakdown_.record(
        component_,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

 private:
  ProfileBreakdown& breakdown_;
  ProfileComponent component_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bftsim::obs

// Instrumentation seam. The default build defines it away entirely so the
// hot path carries no profiling cost (not even a branch).
#if defined(BFTSIM_PROFILING)
#define BFTSIM_PROFILE_CONCAT_INNER(a, b) a##b
#define BFTSIM_PROFILE_CONCAT(a, b) BFTSIM_PROFILE_CONCAT_INNER(a, b)
#define BFTSIM_PROFILE_SCOPE(breakdown, component)                      \
  ::bftsim::obs::ProfileScope BFTSIM_PROFILE_CONCAT(profile_scope_,     \
                                                    __LINE__)(          \
      (breakdown), (component))
#else
#define BFTSIM_PROFILE_SCOPE(breakdown, component) ((void)0)
#endif
