// Deterministic pseudo-random number generation for the simulator and the
// PEVPM Monte-Carlo sampler.
//
// We use xoshiro256++ (Blackman & Vigna) seeded through splitmix64: fast,
// high-quality, and — unlike std::mt19937 distributions — with sampling
// helpers whose results are identical across standard-library
// implementations, which keeps simulations reproducible everywhere.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace stats {

/// splitmix64's output finaliser: a bijective 64-bit mix, also used to
/// hash small dense keys before masking them to a table size.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  // The draw and the uniform doubles are defined here so that the
  // Monte-Carlo sampler's loop inlines them.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 top bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased (rejection sampling).
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Standard normal via Marsaglia polar method.
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double sigma) noexcept;

  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given mean (not rate).
  double exponential(double mean) noexcept;

  /// True with probability p.
  bool bernoulli(double p) noexcept;

  /// Splits off an independent generator (jump-free: reseeds from output).
  Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace stats
