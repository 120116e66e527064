// Empirical distributions of communication times.
//
// This is the object PEVPM's Monte-Carlo sampler draws from: an inverse-CDF
// sampler built from an MPIBench histogram (with uniform jitter inside each
// bin, so bin width is the granularity/accuracy knob the paper discusses) or
// from raw samples. It also exposes the single-point reductions — minimum
// and average — that the paper shows produce misleading predictions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "stats/histogram.h"
#include "stats/rng.h"

namespace stats {

using Uint128 = unsigned __int128;

/// The multiplier `exact_remainder` needs for divisor `d` (d >= 1):
/// ceil(2^128 / d), which wraps to 0 for d == 1.
[[nodiscard]] constexpr Uint128 remainder_magic(std::uint64_t d) noexcept {
  return ~Uint128{0} / d + 1;
}

/// `a % d` by two multiplications, for every 64-bit `a` and `d >= 1`, given
/// `magic == remainder_magic(d)` (Lemire, Kaser & Kurz, "Faster Remainder
/// by Direct Computation", 2019): the fraction a / d, held in 128 bits, is
/// scaled back up by d and its integer part read off.
[[nodiscard]] constexpr std::uint64_t exact_remainder(
    std::uint64_t a, Uint128 magic, std::uint64_t d) noexcept {
  const Uint128 fraction = magic * a;  // mod 2^128
  const Uint128 low = (fraction & ~std::uint64_t{0}) * d;
  const Uint128 high = (fraction >> 64) * d;
  return static_cast<std::uint64_t>((high + (low >> 64)) >> 64);
}

class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;

  /// Builds from a histogram. `exact_extrema` preserves the histogram's
  /// exact observed min/avg/max for the single-point models even though
  /// sampling resolution stays at bin granularity.
  explicit EmpiricalDistribution(const Histogram& hist);

  /// Builds an exact empirical distribution from raw samples (each sample
  /// is an atom of equal weight). Throws std::invalid_argument on a NaN or
  /// infinite sample.
  static EmpiricalDistribution from_samples(std::span<const double> xs);

  /// A degenerate distribution that always returns `value`.
  static EmpiricalDistribution constant(double value);

  [[nodiscard]] bool valid() const noexcept { return total_ > 0; }
  [[nodiscard]] std::uint64_t sample_count() const noexcept { return total_; }

  /// Draws one value: picks a bin by weight, then jitters uniformly inside
  /// it. For atom (raw-sample) distributions the atom value is returned.
  /// The weighted pick consumes the same draws as `rng.below(total)` and
  /// selects the first cell whose cumulative weight exceeds it, in O(1)
  /// expected time through a guide table.
  [[nodiscard]] double sample(Rng& rng) const;

  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double stddev() const noexcept { return stddev_; }

  /// P(X <= x), piecewise-linear inside bins.
  [[nodiscard]] double cdf(double x) const;

  /// Inverse CDF, piecewise-linear inside bins. q clamped to [0, 1].
  [[nodiscard]] double quantile(double q) const;

  /// Scales the support by `k` (e.g. unit conversion); statistics follow.
  [[nodiscard]] EmpiricalDistribution scaled(double k) const;

  /// Mixture of this and `other` with weight `w` on `other` (0 <= w <= 1);
  /// used to interpolate between adjacent contention levels / message sizes.
  [[nodiscard]] EmpiricalDistribution blended(const EmpiricalDistribution& other,
                                              double w) const;

  /// Serialises as "lo hi weight" lines; round-trips with `load`.
  void save(std::ostream& os) const;
  static EmpiricalDistribution load(std::istream& is);

 private:
  struct Cell {
    double lo = 0.0;
    double hi = 0.0;              // lo == hi means an atom
    std::uint64_t weight = 0;
    std::uint64_t cum = 0;        // cumulative weight through this cell
  };

  void finalize();

  std::vector<Cell> cells_;
  std::uint64_t total_ = 0;
  /// Rng::below's rejection limit for total_: draws at or above it repeat.
  std::uint64_t limit_ = 0;
  /// remainder_magic(total_): the pick is exact_remainder(draw, ...).
  Uint128 remainder_magic_ = 0;
  /// Maps a pick p to bucket (p * bucket_scale_) >> 64, never above
  /// floor(p * cells / total_).
  std::uint64_t bucket_scale_ = 0;
  /// Per bucket j, the first cell whose cum exceeds ceil(j * total_ /
  /// cells): no pick of bucket j lands before it. (A distribution with
  /// 2^32 cells would need 128 GiB of them, so 32 bits index any.)
  std::vector<std::uint32_t> guide_;
  double mean_ = 0.0;
  double stddev_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace stats
