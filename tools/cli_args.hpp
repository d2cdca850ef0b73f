// Strict numeric command-line arguments for the tools.
//
// A numeric flag takes one whole decimal token in range: no sign, no
// whitespace, no hex, no trailing characters, no overflow, nothing that is
// not finite. Anything else is a usage error (exit 2), never a silent 0 or
// a wrapped value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/config.hpp"

namespace bftsim::cli {

/// Seeds are stored as JSON numbers (doubles), exact only below 2^53.
inline constexpr std::uint64_t kMaxSeed = (std::uint64_t{1} << 53) - 1;
/// Worker threads a --jobs flag may ask for (0 = one per core).
inline constexpr std::uint64_t kMaxJobs = EngineConfig::kMaxIntraJobs;

/// `token` as a T (std::uint64_t or double) in [lo, hi], or nullopt.
template <typename T>
[[nodiscard]] std::optional<T> parse(std::string_view token, T lo, T hi) {
  const char* end = token.data() + token.size();
  T value{};
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  const bool decimal = !token.empty() && token.front() >= '0' &&
                       token.front() <= '9' && stop == end &&
                       error == std::errc{};
  if (!decimal || !std::isfinite(static_cast<double>(value)) || value < lo ||
      value > hi) {
    return std::nullopt;
  }
  return value;
}

/// parse(), or a usage error naming `flag` and the range (exit 2).
template <typename T>
T arg(const char* tool, std::string_view flag, std::string_view token, T lo,
      T hi) {
  if (const std::optional<T> value = parse(token, lo, hi)) return *value;
  std::ostringstream range;
  range << '[' << lo << ", " << hi << ']';
  std::fprintf(stderr, "%s: %.*s expects a number in %s, got \"%.*s\"\n",
               tool, static_cast<int>(flag.size()), flag.data(),
               range.str().c_str(), static_cast<int>(token.size()),
               token.data());
  std::exit(2);
}

}  // namespace bftsim::cli
