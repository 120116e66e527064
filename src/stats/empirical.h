// Empirical distributions of communication times.
//
// This is the object PEVPM's Monte-Carlo sampler draws from: an inverse-CDF
// sampler built from an MPIBench histogram (with uniform jitter inside each
// bin, so bin width is the granularity/accuracy knob the paper discusses) or
// from raw samples. It also exposes the single-point reductions — minimum
// and average — that the paper shows produce misleading predictions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "stats/histogram.h"
#include "stats/rng.h"

namespace stats {

using Uint128 = unsigned __int128;

/// The multiplier that maps a draw `a` to its 128-bit fraction of `d`
/// (d >= 1): ceil(2^128 / d), which wraps to 0 for d == 1. The fraction
/// `magic * a` (mod 2^128) is (a % d) / d scaled to 2^128, plus an error
/// that stays below one step of it for every draw under Rng::below's
/// rejection limit (see pick_threshold).
[[nodiscard]] constexpr Uint128 remainder_magic(std::uint64_t d) noexcept {
  return ~Uint128{0} / d + 1;
}

/// The least fraction whose pick is at least `c`, for divisor `d` and
/// `magic == remainder_magic(d)`: `c * magic` for c in [1, d), and
/// all-ones for c >= d, which no fraction reaches. For every draw `a`
/// below the rejection limit d * floor((2^64 - 1) / d),
/// `a % d >= c` exactly when `magic * a >= pick_threshold(c, magic, d)`.
///
/// Proof, for d >= 2 (d == 1 has the one pick 0, fraction 0 and a single
/// all-ones threshold). Let m = magic = (2^128 + e) / d with 0 <= e < d,
/// and a = q * d + r with 0 <= r < d. Then m * a = q * 2^128 + r * m +
/// q * e, so the fraction is r * m + q * e if that is below 2^128. The
/// limit gives q + 1 <= floor((2^64 - 1) / d), so (q + 1) * e < 2^64,
/// while m > 2^128 / (2^64 - 1) > 2^64: hence (q + 1) * e < m. Now
/// r * m + q * e <= (d - 1) * m + q * e = 2^128 + e - m + q * e
/// < 2^128, so there is no wrap, and the fraction lies in
/// [r * m, r * m + q * e] with q * e < m. If r >= c it is at least
/// c * m; if r <= c - 1 it is below (c - 1) * m + m = c * m. Since
/// m - (q + 1) * e >= 2, every fraction is at most 2^128 - 2, below the
/// all-ones threshold.
[[nodiscard]] constexpr Uint128 pick_threshold(std::uint64_t c, Uint128 magic,
                                               std::uint64_t d) noexcept {
  return c < d ? magic * c : ~Uint128{0};
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
  /// expected time through a guide table. The one-lane case of the batch
  /// below.
  [[nodiscard]] double sample(Rng& rng) const;

  /// Draws `out[i]` from `rngs[i]` for every lane i: the same value bits
  /// and generator calls as `sample(rngs[i])`, in one call per batch.
  /// `out` has at least `rngs.size()` entries.
  void sample(std::span<Rng> rngs, std::span<double> out) const;

  /// As above on the lanes whose `mask` entry is non-zero; the other
  /// lanes' generators and `out` entries are left alone.
  void sample(std::span<Rng> rngs, const unsigned char* mask,
              std::span<double> out) const;

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
  /// Throws std::overflow_error when the re-weighted total does not fit 64
  /// bits (inputs whose totals are near 2^64 / 2^20 or above).
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
  /// The cell `rng`'s next weighted pick selects.
  [[nodiscard]] std::uint32_t pick(Rng& rng) const;
  /// The value drawn in `cell` (its atom, or a clamped uniform jitter).
  [[nodiscard]] double jitter(const Cell& cell, Rng& rng) const;
  /// The batch draw on the lanes `drawn(lane)` selects.
  template <class Drawn>
  void sample_lanes(std::span<Rng> rngs, Drawn drawn, double* out) const;
  [[noreturn]] static void throw_empty();

  std::vector<Cell> cells_;
  std::uint64_t total_ = 0;
  /// Rng::below's rejection limit for total_: draws at or above it repeat.
  std::uint64_t limit_ = 0;
  /// remainder_magic(total_): a draw's fraction is remainder_magic_ * draw.
  Uint128 remainder_magic_ = 0;
  /// Per cell, pick_threshold(cum): the first cell whose threshold exceeds
  /// a draw's fraction is the cell its pick selects. The last is all-ones.
  std::vector<Uint128> thresholds_;
  /// A power of two, at least 4 buckets per cell, indexed by the fraction's
  /// top bits: bucket j holds the first cell whose threshold exceeds the
  /// smallest fraction of the bucket, so no fraction of it lands before
  /// that cell. (A distribution with 2^32 cells would need 128 GiB of
  /// them, so 32 bits index any.)
  std::vector<std::uint32_t> guide_;
  /// 64 - log2(guide_.size()): the fraction's high word >> guide_shift_
  /// is its bucket.
  int guide_shift_ = 64;
  double mean_ = 0.0;
  double stddev_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// LINT:hot-path begin (the Monte-Carlo draw: no search, no division)
inline std::uint32_t EmpiricalDistribution::pick(Rng& rng) const {
  // rng.below(total_) against the precomputed rejection limit; its
  // `draw % total_` is never formed, only compared in the fraction
  // domain (pick_threshold).
  std::uint64_t draw = rng();
  while (draw >= limit_) draw = rng();
  const Uint128 fraction = remainder_magic_ * draw;
  std::uint32_t index = guide_[static_cast<std::uint64_t>(fraction >> 64) >>
                               guide_shift_];
  while (thresholds_[index] <= fraction) ++index;
  return index;
}

inline double EmpiricalDistribution::jitter(const Cell& cell,
                                            Rng& rng) const {
  if (cell.lo == cell.hi) return cell.lo;
  // Clamp to the exact observed extrema: bins quantise the support, but
  // communication times have a hard physical minimum (the paper's bounded
  // minimum) which sampling must respect.
  return std::clamp(rng.uniform(cell.lo, cell.hi), min_, max_);
}

template <class Drawn>
inline void EmpiricalDistribution::sample_lanes(std::span<Rng> rngs,
                                                Drawn drawn,
                                                double* out) const {
  if (!valid()) [[unlikely]] throw_empty();
  // One pass: a lane's pick and jitter share its generator's state, which
  // stays in registers between them. (Picking every lane before jittering
  // any loads and stores each state twice; it measured about 12 % more CPU
  // per prediction.)
  for (std::size_t lane = 0; lane < rngs.size(); ++lane) {
    if (drawn(lane)) out[lane] = jitter(cells_[pick(rngs[lane])], rngs[lane]);
  }
}

inline double EmpiricalDistribution::sample(Rng& rng) const {
  double value = 0.0;
  sample_lanes(std::span<Rng>{&rng, 1}, [](std::size_t) { return true; },
               &value);
  return value;
}

inline void EmpiricalDistribution::sample(std::span<Rng> rngs,
                                          std::span<double> out) const {
  sample_lanes(rngs, [](std::size_t) { return true; }, out.data());
}

inline void EmpiricalDistribution::sample(std::span<Rng> rngs,
                                          const unsigned char* mask,
                                          std::span<double> out) const {
  sample_lanes(rngs, [mask](std::size_t lane) { return mask[lane] != 0; },
               out.data());
}
// LINT:hot-path end

}  // namespace stats
