#include "obs/profile.hpp"

#include <utility>

namespace bftsim::obs {

std::string_view to_string(ProfileComponent c) noexcept {
  switch (c) {
    case ProfileComponent::kEventPop: return "event_pop";
    case ProfileComponent::kDelaySample: return "delay_sample";
    case ProfileComponent::kAttackerHook: return "attacker_hook";
    case ProfileComponent::kOnMessage: return "on_message";
    case ProfileComponent::kOnTimer: return "on_timer";
    case ProfileComponent::kFaultHook: return "fault_hook";
    case ProfileComponent::kCount: break;
  }
  return "?";
}

json::Value ProfileBreakdown::to_json() const {
  json::Object o;
  for (std::size_t i = 0; i < kProfileComponentCount; ++i) {
    if (calls[i] == 0) continue;
    json::Object row;
    row["calls"] = static_cast<double>(calls[i]);
    row["total_ns"] = static_cast<double>(total_ns[i]);
    o[std::string(to_string(static_cast<ProfileComponent>(i)))] =
        json::Value{std::move(row)};
  }
  if (windows_parallel + windows_inline != 0) {
    json::Object windows;
    windows["parallel"] = static_cast<double>(windows_parallel);
    windows["inline"] = static_cast<double>(windows_inline);
    o["windows"] = json::Value{std::move(windows)};
  }
  return json::Value{std::move(o)};
}

}  // namespace bftsim::obs
