// Deterministic random number generation.
//
// The simulator must be bit-for-bit reproducible across runs and platforms,
// so we do not use <random>'s distribution objects (whose output is
// implementation-defined). Instead we provide our own engine (xoshiro256++)
// and our own samplers (uniform, normal via Box-Muller, exponential).
//
// Every stochastic component (network, attacker, each node, the VRF) gets an
// independent stream derived from the run seed via SplitMix64, so adding a
// random draw to one component never perturbs another component's sequence.
#pragma once

#include <cstdint>

namespace bftsim {

/// SplitMix64 step: the standard 64-bit seed expander / mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A deterministic, high-quality PRNG (xoshiro256++) with explicit samplers.
class Rng {
 public:
  /// Constructs a stream from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0) noexcept { reseed(seed); }

  /// Re-initializes the stream from `seed`.
  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless bounded sampling, debiased.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Fair coin flip.
  [[nodiscard]] bool next_bool() noexcept { return (next_u64() >> 63) != 0; }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Normally distributed double with the given mean / standard deviation
  /// (Box-Muller; one value per call for cross-platform determinism).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Exponentially distributed double with the given mean (= 1/rate).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// A stream that is a pure function of (seed, key): counter-based draws
  /// (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11)
  /// that do not depend on who draws them or in which order.
  [[nodiscard]] static Rng keyed(std::uint64_t seed,
                                 std::uint64_t key) noexcept {
    std::uint64_t sm = seed ^ key;
    return Rng{splitmix64(sm)};
  }

  /// Derives an independent child stream; deterministic in (this stream's
  /// current state, `salt`).
  [[nodiscard]] Rng fork(std::uint64_t salt) noexcept {
    std::uint64_t sm = next_u64() ^ (salt * 0x9e3779b97f4a7c15ULL);
    return Rng{splitmix64(sm)};
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace bftsim
