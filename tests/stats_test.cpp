// Unit tests for the statistics substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/empirical.h"
#include "stats/fit.h"
#include "stats/histogram.h"
#include "stats/kstest.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace {

TEST(Rng, DeterministicForSeed) {
  stats::Rng a{123};
  stats::Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  stats::Rng a{1};
  stats::Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  stats::Rng rng{7};
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  stats::Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    ASSERT_GE(u, 3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedAndBounded) {
  stats::Rng rng{9};
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.below(10)];
  for (const int c : counts) EXPECT_NEAR(c, 5000, 350);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, NormalMoments) {
  stats::Rng rng{11};
  stats::Summary s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.08);
  EXPECT_NEAR(s.stddev(), 3.0, 0.08);
}

TEST(Rng, ExponentialMean) {
  stats::Rng rng{13};
  stats::Summary s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.06);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, BernoulliProportion) {
  stats::Rng rng{17};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitStreamsIndependent) {
  stats::Rng a{21};
  stats::Rng b = a.split();
  // The split stream must not replay the parent stream.
  stats::Rng a2{21};
  (void)a2();  // advance by the amount split() consumed
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a2() == b();
  EXPECT_LT(same, 2);
}

TEST(Summary, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  stats::Summary s;
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  // Sample variance with n-1 denominator.
  double var = 0.0;
  for (const double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 4.0;
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(Summary, MergeEqualsConcatenation) {
  stats::Rng rng{3};
  stats::Summary all;
  stats::Summary left;
  stats::Summary right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  stats::Summary a;
  a.add(1.0);
  stats::Summary b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(stats::median(xs), 2.5);
}

TEST(Quantile, ThrowsOnEmpty) {
  EXPECT_THROW((void)stats::quantile({}, 0.5), std::invalid_argument);
}

TEST(Histogram, BinsAndDensity) {
  stats::Histogram h{1.0};
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  h.add(5.5);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(), 6u);
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.count_at(1), 2u);
  EXPECT_EQ(h.count_at(5), 1u);
  double integral = 0.0;
  for (const auto& bin : h.bins()) integral += bin.density * (bin.hi - bin.lo);
  EXPECT_NEAR(integral, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.mode(), 1.5);
}

TEST(Histogram, UnderflowClampsToBinZero) {
  stats::Histogram h{1.0, 10.0};
  h.add(3.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.count_at(0), 1u);
  // Exact statistics are preserved even for clamped samples.
  EXPECT_DOUBLE_EQ(h.summary().min(), 3.0);
}

TEST(Histogram, CoarsenPreservesTotalsAndSummary) {
  stats::Rng rng{5};
  stats::Histogram h{0.5};
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform(0.0, 20.0));
  const stats::Histogram c = h.coarsened(4);
  EXPECT_EQ(c.total(), h.total());
  EXPECT_DOUBLE_EQ(c.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(c.summary().mean(), h.summary().mean());
}

TEST(Histogram, MergeRequiresSameBinning) {
  stats::Histogram a{1.0};
  stats::Histogram b{2.0};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  stats::Histogram c{1.0};
  c.add(3.0);
  a.add(1.0);
  a.merge(c);
  EXPECT_EQ(a.total(), 2u);
}

TEST(Histogram, RejectsBadBinWidth) {
  EXPECT_THROW(stats::Histogram{0.0}, std::invalid_argument);
  EXPECT_THROW(stats::Histogram{-1.0}, std::invalid_argument);
}

TEST(Histogram, CsvHasHeaderAndRows) {
  stats::Histogram h{1.0};
  h.add(0.5);
  const std::string csv = h.to_csv();
  EXPECT_NE(csv.find("lo,hi,count,density"), std::string::npos);
  EXPECT_NE(csv.find("0,1,1,"), std::string::npos);
}

TEST(Empirical, SampleStaysInSupport) {
  stats::Histogram h{1.0};
  stats::Rng rng{31};
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform(2.0, 12.0));
  const stats::EmpiricalDistribution d{h};
  stats::Rng sampler{32};
  for (int i = 0; i < 2000; ++i) {
    const double x = d.sample(sampler);
    ASSERT_GE(x, 2.0);
    ASSERT_LE(x, 13.0);  // bin granularity can round up to the bin edge
  }
}

TEST(Empirical, PreservesExactExtremaFromHistogram) {
  stats::Histogram h{10.0};
  h.add(3.25);
  h.add(17.5);
  const stats::EmpiricalDistribution d{h};
  EXPECT_DOUBLE_EQ(d.min(), 3.25);
  EXPECT_DOUBLE_EQ(d.max(), 17.5);
  EXPECT_DOUBLE_EQ(d.mean(), (3.25 + 17.5) / 2);
}

TEST(Empirical, CdfAndQuantileAreInverse) {
  std::vector<double> xs;
  stats::Rng rng{41};
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(50.0, 5.0));
  stats::Histogram h{0.5};
  for (const double x : xs) h.add(x);
  const stats::EmpiricalDistribution d{h};
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(d.cdf(d.quantile(q)), q, 0.02) << "q=" << q;
  }
}

TEST(Empirical, ConstantDistribution) {
  const auto d = stats::EmpiricalDistribution::constant(4.5);
  stats::Rng rng{1};
  EXPECT_DOUBLE_EQ(d.sample(rng), 4.5);
  EXPECT_DOUBLE_EQ(d.mean(), 4.5);
  EXPECT_DOUBLE_EQ(d.min(), 4.5);
}

TEST(Empirical, FromSamplesIsExact) {
  const std::vector<double> xs{1.0, 2.0, 2.0, 3.0};
  const auto d = stats::EmpiricalDistribution::from_samples(xs);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 3.0);
  stats::Rng rng{2};
  for (int i = 0; i < 100; ++i) {
    const double x = d.sample(rng);
    EXPECT_TRUE(x == 1.0 || x == 2.0 || x == 3.0);
  }
}

TEST(Empirical, FromSamplesRejectsNonFiniteSamples) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    const std::vector<double> xs{1.0, bad, 2.0};
    EXPECT_THROW((void)stats::EmpiricalDistribution::from_samples(xs),
                 std::invalid_argument);
  }
}

TEST(Empirical, BlendedMeanInterpolates) {
  const auto a = stats::EmpiricalDistribution::constant(10.0);
  const auto b = stats::EmpiricalDistribution::constant(20.0);
  const auto mix = a.blended(b, 0.25);
  EXPECT_NEAR(mix.mean(), 12.5, 0.01);
  EXPECT_DOUBLE_EQ(a.blended(b, 0.0).mean(), 10.0);
  EXPECT_DOUBLE_EQ(a.blended(b, 1.0).mean(), 20.0);
}

TEST(Empirical, ScaledScalesSupport) {
  const auto d =
      stats::EmpiricalDistribution::from_samples(std::vector<double>{1, 2, 3});
  const auto s = d.scaled(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(Empirical, SaveLoadRoundTrips) {
  stats::Histogram h{0.25};
  stats::Rng rng{55};
  for (int i = 0; i < 300; ++i) h.add(rng.exponential(3.0));
  const stats::EmpiricalDistribution d{h};
  std::stringstream ss;
  d.save(ss);
  const auto loaded = stats::EmpiricalDistribution::load(ss);
  EXPECT_EQ(loaded.sample_count(), d.sample_count());
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(loaded.quantile(q), d.quantile(q), 0.26);
  }
}

TEST(Empirical, CdfIsRightContinuousAtPointMasses) {
  // P[X <= x] must include the mass AT x for atom distributions...
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const auto d = stats::EmpiricalDistribution::from_samples(xs);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(d.cdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(0.999), 0.0);
  // ...including atoms that lie INSIDE a continuous cell, as blended
  // mixtures produce (the cell list then has overlapping supports).
  stats::Histogram h{2.0};
  h.add(0.5);
  h.add(1.5);
  const stats::EmpiricalDistribution wide{h};  // one cell [0, 2), weight 2
  // Same total weight as `wide` so the 50/50 blend is an exact half-half
  // mixture (blended() weights cells, not normalised inputs).
  const auto atom = stats::EmpiricalDistribution::from_samples(
      std::vector<double>{1.0, 1.0});
  const auto mix = wide.blended(atom, 0.5);
  // Half the mass is the atom at 1 (all <= 1), half is uniform on [0, 2)
  // (half <= 1): cdf(1) = 0.5 * 1 + 0.5 * 0.5 = 0.75.
  EXPECT_DOUBLE_EQ(mix.cdf(1.0), 0.75);
  EXPECT_DOUBLE_EQ(mix.cdf(2.0), 1.0);
  // KS-style check: cdf is monotone across the jump.
  EXPECT_LT(mix.cdf(0.999), mix.cdf(1.0));
}

TEST(Empirical, BlendedExtremeWeightsKeepBothSupportsHonest) {
  const auto a = stats::EmpiricalDistribution::from_samples(
      std::vector<double>{10.0, 11.0});
  const auto b = stats::EmpiricalDistribution::from_samples(
      std::vector<double>{20.0, 21.0});
  // Weights below the fixed-point resolution collapse to the dominant
  // input — crucially WITHOUT inserting the other input's cells at zero
  // weight, which used to corrupt min()/max() and the sampling clamp.
  const auto tiny = a.blended(b, 1e-18);
  EXPECT_DOUBLE_EQ(tiny.mean(), a.mean());
  EXPECT_DOUBLE_EQ(tiny.min(), a.min());
  EXPECT_DOUBLE_EQ(tiny.max(), a.max());
  const auto huge = a.blended(b, 1.0 - 1e-18);
  EXPECT_DOUBLE_EQ(huge.mean(), b.mean());
  EXPECT_DOUBLE_EQ(huge.min(), b.min());
  EXPECT_DOUBLE_EQ(huge.max(), b.max());
  // Just above the resolution both inputs survive with rounded (not
  // truncated) weights, so the mixture mean tracks w.
  const double w = 1e-4;
  const auto mix = a.blended(b, w);
  EXPECT_DOUBLE_EQ(mix.min(), a.min());
  EXPECT_DOUBLE_EQ(mix.max(), b.max());
  EXPECT_NEAR(mix.mean(), (1.0 - w) * a.mean() + w * b.mean(), 1e-3);
}

TEST(Empirical, LoadRejectsMalformedTables) {
  const auto load_text = [](const char* text) {
    std::stringstream ss{text};
    return stats::EmpiricalDistribution::load(ss);
  };
  EXPECT_THROW((void)load_text("bogus"), std::runtime_error);
  EXPECT_THROW((void)load_text("2\n1 2 5\n"), std::runtime_error);  // truncated
  EXPECT_THROW((void)load_text("1\ninf inf 5\n"), std::runtime_error);
  EXPECT_THROW((void)load_text("1\nnan 1 5\n"), std::runtime_error);
  EXPECT_THROW((void)load_text("1\n2 1 5\n"), std::runtime_error);  // lo > hi
  EXPECT_THROW((void)load_text("2\n3 4 1\n1 2 1\n"),
               std::runtime_error);  // unsorted
  EXPECT_THROW((void)load_text("2\n1 2 0\n3 4 0\n"),
               std::runtime_error);  // zero total weight
  EXPECT_THROW((void)load_text("2\n1 2 18446744073709551615\n3 4 1\n"),
               std::runtime_error);  // cumulative weight overflow
  // A well-formed table still loads, and zero-weight rows are dropped
  // rather than allowed to pollute the support extrema.
  const auto ok = load_text("3\n0 1 0\n1 2 4\n2 3 4\n");
  EXPECT_EQ(ok.sample_count(), 8u);
  EXPECT_DOUBLE_EQ(ok.min(), 1.0);
  EXPECT_DOUBLE_EQ(ok.max(), 3.0);
}

TEST(Empirical, SaveLoadRoundTripIsExact) {
  // save() writes max_digits10 precision, so reloading reproduces the
  // distribution bit-for-bit (the coarse NEAR tolerance in
  // SaveLoadRoundTrips predates that).
  const auto d = stats::EmpiricalDistribution::from_samples(
      std::vector<double>{1.0 / 3.0, 2.0 / 7.0, 1e-6, 0.1234567890123456});
  std::stringstream ss;
  d.save(ss);
  const auto loaded = stats::EmpiricalDistribution::load(ss);
  EXPECT_EQ(loaded.sample_count(), d.sample_count());
  EXPECT_EQ(loaded.mean(), d.mean());
  EXPECT_EQ(loaded.min(), d.min());
  EXPECT_EQ(loaded.max(), d.max());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(loaded.quantile(q), d.quantile(q));
  }
}

TEST(Empirical, EmptyThrowsOnUse) {
  const stats::EmpiricalDistribution d;
  stats::Rng rng{1};
  EXPECT_FALSE(d.valid());
  EXPECT_THROW((void)d.sample(rng), std::logic_error);
  EXPECT_THROW((void)d.cdf(0.0), std::logic_error);
}

/// sample() as a binary search over the cells save() writes: the draw
/// the guide table replaces.
class UpperBoundSampler {
 public:
  explicit UpperBoundSampler(const stats::EmpiricalDistribution& d)
      : min_{d.min()}, max_{d.max()} {
    std::stringstream ss;
    d.save(ss);
    std::size_t n = 0;
    ss >> n;
    cells_.resize(n);
    for (Cell& cell : cells_) {
      std::uint64_t weight = 0;
      ss >> cell.lo >> cell.hi >> weight;
      total_ += weight;
      cell.cum = total_;
    }
  }

  double sample(stats::Rng& rng) const {
    const std::uint64_t pick = rng.below(total_);
    const auto it = std::upper_bound(
        cells_.begin(), cells_.end(), pick,
        [](std::uint64_t value, const Cell& cell) { return value < cell.cum; });
    if (it->lo == it->hi) return it->lo;
    return std::clamp(rng.uniform(it->lo, it->hi), min_, max_);
  }

 private:
  struct Cell {
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t cum = 0;
  };
  std::vector<Cell> cells_;
  std::uint64_t total_ = 0;
  double min_;
  double max_;
};

/// Draws `draws` values from `d` and from the reference with twin
/// generators: same bits each time, same generator state afterwards.
void expect_matches_upper_bound(const stats::EmpiricalDistribution& d,
                                int draws, std::uint64_t seed) {
  const UpperBoundSampler reference_sampler{d};
  stats::Rng guided{seed};
  stats::Rng reference{seed};
  for (int i = 0; i < draws; ++i) {
    const double got = d.sample(guided);
    const double want = reference_sampler.sample(reference);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "draw " << i << ": " << got << " vs " << want;
  }
  EXPECT_EQ(guided(), reference());
}

stats::EmpiricalDistribution load_text(const char* text) {
  std::stringstream ss{text};
  return stats::EmpiricalDistribution::load(ss);
}

TEST(EmpiricalGuide, MatchesUpperBoundOnEveryConstructor) {
  stats::Rng rng{77};
  stats::Histogram skewed{0.5};
  stats::Histogram wide{1e-6};
  for (int i = 0; i < 4000; ++i) {
    skewed.add(rng.lognormal(1.0, 0.9));
    wide.add((60.0 + (i * 37 % 400)) * 1e-6);
  }
  const stats::EmpiricalDistribution hist{skewed};
  const stats::EmpiricalDistribution other{wide};
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(std::floor(rng.normal(20, 4)));
  std::stringstream saved;
  hist.save(saved);
  const stats::EmpiricalDistribution cases[] = {
      hist,
      other,
      hist.blended(other.scaled(1e6), 0.3),
      other.blended(stats::EmpiricalDistribution::constant(70e-6), 1e-3),
      hist.scaled(3.0),
      hist.scaled(-2.0),
      stats::EmpiricalDistribution::from_samples(xs),
      stats::EmpiricalDistribution::from_samples(std::vector<double>{1, 2, 3}),
      stats::EmpiricalDistribution::constant(4.5),
      stats::EmpiricalDistribution::load(saved),
  };
  std::uint64_t seed = 1;
  for (const auto& d : cases) {
    SCOPED_TRACE(seed);
    expect_matches_upper_bound(d, 5000, seed++);
  }
}

TEST(EmpiricalGuide, MatchesUpperBoundAtTotalsNear2To64) {
  const char* tables[] = {
      // total 2^64 - 1: the rejection limit rejects one value only.
      "4\n0 1 1\n1 2 9223372036854775808\n2 3 4611686018427387904\n"
      "3 3 4611686018427387902\n",
      // total 2^63 + 1: almost half of all draws are rejected.
      "2\n0 1 9223372036854775808\n5 5 1\n",
      // One cell holds nearly all the weight; the light ones sit in the
      // first bucket and the last.
      "5\n0 0 1\n1 1 1\n2 3 18446744073709551600\n4 4 1\n5 6 1\n",
      // As many cells as weight: every bucket holds exactly one cell.
      "3\n0 0 1\n1 1 1\n2 2 1\n",
  };
  std::uint64_t seed = 100;
  for (const char* text : tables) {
    SCOPED_TRACE(text);
    expect_matches_upper_bound(load_text(text), 5000, seed++);
  }
}

TEST(PickThreshold, MatchesModuloAtEdgeDivisorsAndDividends) {
  // The fraction-domain rule sample() picks a cell by: below the rejection
  // limit, `a % d >= c` exactly when `magic * a >= pick_threshold(c)`.
  // Each dividend is checked against the thresholds that bracket its
  // remainder, the first and last picks, and d itself (all-ones).
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  const std::uint64_t divisors[] = {1,      2,          3,          7,
                                    kTwo32 - 1, kTwo32, kTwo32 + 1, kTwo63,
                                    kTwo63 + 1, kMax};
  stats::Rng rng{2019};
  for (const std::uint64_t d : divisors) {
    SCOPED_TRACE(d);
    const stats::Uint128 magic = stats::remainder_magic(d);
    const std::uint64_t limit = kMax - kMax % d;
    std::vector<std::uint64_t> dividends{0, 1, d - 1, d, d + 1, kMax,
                                         limit - 1};
    for (int i = 0; i < 100000; ++i) dividends.push_back(rng());
    std::size_t checked = 0;
    std::size_t wrong = 0;
    for (const std::uint64_t a : dividends) {
      if (a >= limit) continue;  // rejected: sample() draws again
      ++checked;
      const std::uint64_t r = a % d;
      const stats::Uint128 fraction = magic * a;
      for (const std::uint64_t c : {std::uint64_t{0}, std::uint64_t{1}, r,
                                    r + 1, d - 1, d}) {
        if (c > d) continue;
        const bool at_least =
            stats::pick_threshold(c, magic, d) <= fraction;
        if (at_least != (r >= c)) {
          if (wrong++ == 0) ADD_FAILURE() << a << " % " << d << " vs " << c;
        }
      }
    }
    EXPECT_EQ(wrong, 0u);
    // Under half the draws are rejected, at d just above 2^63.
    EXPECT_GT(checked, 40000u);
  }
}

TEST(PickThreshold, DrawsMatchUpperBoundWhereFractionsMeetThresholds) {
  // At a total of 2^k the fraction of pick r is exactly r * 2^(128 - k),
  // the threshold of a cell whose cumulative weight is r. With 2^k above
  // the guide's bucket count that threshold lies inside a bucket, so only
  // the scan can step past it, and 1 draw in 16, 32 or 64 needs it to.
  const char* tables[] = {
      "2\n0 0 5\n1 1 11\n",
      "3\n0 1 3\n1 1 17\n2 3 12\n",
      "2\n0 0 3\n1 2 61\n",
  };
  std::uint64_t seed = 200;
  for (const char* text : tables) {
    SCOPED_TRACE(text);
    expect_matches_upper_bound(load_text(text), 5000, seed++);
  }
}

/// The distributions EmpiricalGuide.* draws from: every constructor, and
/// totals near 2^64.
std::vector<stats::EmpiricalDistribution> guide_cases() {
  stats::Rng rng{77};
  stats::Histogram skewed{0.5};
  stats::Histogram wide{1e-6};
  for (int i = 0; i < 4000; ++i) {
    skewed.add(rng.lognormal(1.0, 0.9));
    wide.add((60.0 + (i * 37 % 400)) * 1e-6);
  }
  const stats::EmpiricalDistribution hist{skewed};
  const stats::EmpiricalDistribution other{wide};
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(std::floor(rng.normal(20, 4)));
  std::stringstream saved;
  hist.save(saved);
  return {
      hist,
      other,
      hist.blended(other.scaled(1e6), 0.3),
      other.blended(stats::EmpiricalDistribution::constant(70e-6), 1e-3),
      hist.scaled(3.0),
      hist.scaled(-2.0),
      stats::EmpiricalDistribution::from_samples(xs),
      stats::EmpiricalDistribution::from_samples(std::vector<double>{1, 2, 3}),
      stats::EmpiricalDistribution::constant(4.5),
      stats::EmpiricalDistribution::load(saved),
      load_text("4\n0 1 1\n1 2 9223372036854775808\n2 3 4611686018427387904\n"
                "3 3 4611686018427387902\n"),
      load_text("2\n0 1 9223372036854775808\n5 5 1\n"),
      load_text("5\n0 0 1\n1 1 1\n2 3 18446744073709551600\n4 4 1\n5 6 1\n"),
      load_text("3\n0 0 1\n1 1 1\n2 2 1\n"),
  };
}

std::vector<stats::Rng> lane_rngs(int lanes, std::uint64_t seed) {
  std::vector<stats::Rng> rngs;
  for (int lane = 0; lane < lanes; ++lane) {
    rngs.emplace_back(seed * 1000 + static_cast<std::uint64_t>(lane));
  }
  return rngs;
}

TEST(EmpiricalLanes, BatchMatchesScalarSampleOnEveryGuideCase) {
  // 1-16 lanes (PEVPM batches hold at most 16), and two wider batches.
  std::vector<int> widths;
  for (int lanes = 1; lanes <= 16; ++lanes) widths.push_back(lanes);
  widths.push_back(17);
  widths.push_back(40);
  const std::vector<stats::EmpiricalDistribution> cases = guide_cases();
  for (std::size_t k = 0; k < cases.size(); ++k) {
    for (const int lanes : widths) {
      SCOPED_TRACE(testing::Message() << "case " << k << ", " << lanes
                                      << " lanes");
      std::vector<stats::Rng> batch = lane_rngs(lanes, k + 1);
      std::vector<stats::Rng> solo = lane_rngs(lanes, k + 1);
      std::vector<double> out(static_cast<std::size_t>(lanes));
      for (int round = 0; round < 60; ++round) {
        cases[k].sample(batch, out);
        for (int lane = 0; lane < lanes; ++lane) {
          const double want = cases[k].sample(solo[lane]);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out[lane]),
                    std::bit_cast<std::uint64_t>(want))
              << "round " << round << ", lane " << lane;
        }
      }
      for (int lane = 0; lane < lanes; ++lane) {
        EXPECT_EQ(batch[lane](), solo[lane]()) << "lane " << lane;
      }
    }
  }
}

TEST(EmpiricalLanes, MaskedBatchDrawsOnlyOnMaskedLanes) {
  const std::vector<stats::EmpiricalDistribution> cases = guide_cases();
  constexpr int kLanes = 19;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(k);
    std::vector<stats::Rng> batch = lane_rngs(kLanes, k + 1);
    std::vector<stats::Rng> solo = lane_rngs(kLanes, k + 1);
    std::vector<double> out(kLanes);
    std::vector<unsigned char> mask(kLanes);
    constexpr double kUntouched = -12345.0;
    for (int round = 0; round < 60; ++round) {
      for (int lane = 0; lane < kLanes; ++lane) {
        mask[lane] = (lane * 7 + round) % 3 == 0 ? 0 : 1;
      }
      std::fill(out.begin(), out.end(), kUntouched);
      cases[k].sample(batch, mask.data(), out);
      for (int lane = 0; lane < kLanes; ++lane) {
        if (mask[lane] == 0) {
          ASSERT_EQ(out[lane], kUntouched) << "lane " << lane;
          continue;
        }
        const double want = cases[k].sample(solo[lane]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[lane]),
                  std::bit_cast<std::uint64_t>(want))
            << "round " << round << ", lane " << lane;
      }
    }
    // An unmasked lane's generator was never called.
    for (int lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(batch[lane](), solo[lane]()) << "lane " << lane;
    }
  }
}

TEST(EmpiricalLanes, EmptyDistributionThrowsBeforeAnyLaneDraws) {
  const stats::EmpiricalDistribution empty;
  std::vector<stats::Rng> rngs = lane_rngs(3, 9);
  std::vector<stats::Rng> twins = lane_rngs(3, 9);
  std::vector<double> out(3);
  EXPECT_THROW(empty.sample(rngs, out), std::logic_error);
  for (std::size_t lane = 0; lane < rngs.size(); ++lane) {
    EXPECT_EQ(rngs[lane](), twins[lane]());
  }
}

TEST(Empirical, BlendedRejectsOverflowingWeights) {
  // Blending scales each weight by up to 2^20: totals of 2^50 load, but
  // their mixture's total is about 2^70. It used to wrap silently (equal
  // totals wrapped to an empty distribution).
  const auto a = load_text("1\n1 2 1125899906842624\n");
  const auto b = load_text("1\n3 4 1125899906842624\n");
  try {
    (void)a.blended(b, 0.5);
    FAIL() << "expected an overflow_error";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string{e.what()}.find("overflow"), std::string::npos)
        << e.what();
  }
  // Unequal totals used to wrap to a non-empty, wrongly weighted mixture.
  const auto c = load_text("2\n1 2 35184372088832\n2 3 3\n");
  EXPECT_THROW((void)c.blended(b, 0.25), std::overflow_error);
  // 2^43 * 2^20 still fits: the mixture keeps both halves' weight.
  const auto fits_a = load_text("1\n1 2 8796093022208\n");
  const auto fits_b = load_text("1\n3 4 8796093022208\n");
  const auto mixed = fits_a.blended(fits_b, 0.5);
  EXPECT_EQ(mixed.sample_count(), std::uint64_t{8796093022208} << 20);
  EXPECT_DOUBLE_EQ(mixed.mean(), 2.5);
}

struct FitCase {
  stats::FitFamily family;
  const char* name;
};

class FitRecovery : public ::testing::TestWithParam<FitCase> {};

TEST_P(FitRecovery, RecoversSyntheticDistribution) {
  const FitCase fit_case = GetParam();
  // Generate from a known member of the family, fit, and check KS distance.
  stats::Rng rng{77};
  stats::FittedDistribution truth;
  truth.family = fit_case.family;
  truth.shift = 100.0;
  switch (fit_case.family) {
    case stats::FitFamily::kNormal:
      truth.shift = 0.0;
      truth.p1 = 150.0;
      truth.p2 = 12.0;
      break;
    case stats::FitFamily::kShiftedLognormal:
      truth.p1 = 2.0;
      truth.p2 = 0.4;
      break;
    case stats::FitFamily::kShiftedGamma:
      truth.p1 = 4.0;
      truth.p2 = 3.0;
      break;
    case stats::FitFamily::kShiftedExponential:
      truth.p1 = 8.0;
      break;
  }
  stats::Histogram h{0.25};
  for (int i = 0; i < 20000; ++i) h.add(truth.sample(rng));
  const stats::EmpiricalDistribution d{h};
  const auto fitted = stats::fit(d, fit_case.family);
  EXPECT_NEAR(fitted.mean(), d.mean(), 0.02 * d.mean());
  EXPECT_LT(stats::ks_distance(d, fitted), 0.08) << fit_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FitRecovery,
    ::testing::Values(
        FitCase{stats::FitFamily::kNormal, "normal"},
        FitCase{stats::FitFamily::kShiftedLognormal, "lognormal"},
        FitCase{stats::FitFamily::kShiftedGamma, "gamma"},
        FitCase{stats::FitFamily::kShiftedExponential, "exponential"}),
    [](const auto& param_info) { return std::string{param_info.param.name}; });

TEST(Fit, DegenerateInputsCollapseToPointMass) {
  // Regression: constant inputs used to reach the shifted families'
  // moment matching, whose 1e-12 anchors vanish at large magnitudes and
  // leave NaN parameters. Every family must return a point mass instead.
  stats::Rng rng{7};
  for (const double value : {42.0, 3.5e-5, 1.0e9}) {
    const auto d = stats::EmpiricalDistribution::constant(value);
    for (const auto family :
         {stats::FitFamily::kNormal, stats::FitFamily::kShiftedLognormal,
          stats::FitFamily::kShiftedGamma,
          stats::FitFamily::kShiftedExponential}) {
      const auto fitted = stats::fit(d, family);
      EXPECT_TRUE(std::isfinite(fitted.p1));
      EXPECT_TRUE(std::isfinite(fitted.p2));
      EXPECT_DOUBLE_EQ(fitted.mean(), value);
      EXPECT_DOUBLE_EQ(fitted.sample(rng), value);
      EXPECT_DOUBLE_EQ(fitted.cdf(value), 1.0);
      EXPECT_DOUBLE_EQ(fitted.cdf(value * 0.99 - 1.0), 0.0);
    }
  }
}

TEST(Fit, DegeneratePointMassDoesNotConsumeRandomness) {
  // The point-mass fallback must leave the RNG stream untouched so a
  // degenerate cell cannot shift every later draw of a replication.
  const auto d = stats::EmpiricalDistribution::constant(2.5);
  const auto fitted = stats::fit(d, stats::FitFamily::kShiftedGamma);
  stats::Rng a{123};
  stats::Rng b{123};
  (void)fitted.sample(a);
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Fit, BestFitHandlesDegenerateInput) {
  const auto d = stats::EmpiricalDistribution::constant(7.75);
  const auto best = stats::fit_best(d);
  EXPECT_DOUBLE_EQ(best.distribution.mean(), 7.75);
  EXPECT_TRUE(std::isfinite(best.ks));
}

TEST(Fit, BestFitPrefersGeneratingFamily) {
  stats::Rng rng{99};
  stats::Histogram h{0.1};
  for (int i = 0; i < 20000; ++i) h.add(50.0 + rng.exponential(5.0));
  const stats::EmpiricalDistribution d{h};
  const auto best = stats::fit_best(d);
  EXPECT_LT(best.ks, 0.05);
  // Exponential data must not be best-fit by a symmetric normal.
  EXPECT_NE(best.distribution.family, stats::FitFamily::kNormal);
}

TEST(KsTest, SameDistributionHighPValue) {
  stats::Rng rng{101};
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.normal(0.0, 1.0));
    b.push_back(rng.normal(0.0, 1.0));
  }
  const auto result = stats::ks_two_sample(a, b);
  EXPECT_GT(result.p_value, 0.01);
  EXPECT_LT(result.statistic, 0.06);
}

TEST(KsTest, ShiftedDistributionRejected) {
  stats::Rng rng{103};
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.normal(0.0, 1.0));
    b.push_back(rng.normal(0.5, 1.0));
  }
  const auto result = stats::ks_two_sample(a, b);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(KsTest, ThrowsOnEmpty) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)stats::ks_two_sample({}, xs), std::invalid_argument);
}

TEST(TailSummary, EmptySampleIsZeroFilled) {
  const auto t = stats::tail_summary({});
  EXPECT_EQ(t.count, 0u);
  EXPECT_EQ(t.mean, 0.0);
  EXPECT_EQ(t.median, 0.0);
  EXPECT_EQ(t.p99, 0.0);
  EXPECT_EQ(t.p999, 0.0);
  EXPECT_EQ(t.max, 0.0);
}

TEST(TailSummary, SingleValueEverywhere) {
  const std::vector<double> xs{3.5};
  const auto t = stats::tail_summary(xs);
  EXPECT_EQ(t.count, 1u);
  EXPECT_DOUBLE_EQ(t.mean, 3.5);
  EXPECT_DOUBLE_EQ(t.median, 3.5);
  EXPECT_DOUBLE_EQ(t.p99, 3.5);
  EXPECT_DOUBLE_EQ(t.max, 3.5);
}

TEST(TailSummary, HeavyTailShowsUpInHighQuantilesOnly) {
  // 999 fast samples plus one 200 ms retransmission outlier: the median
  // stays at the bulk, p99.9 and max catch the spike.
  std::vector<double> xs(999, 100e-6);
  xs.push_back(200e-3);
  const auto t = stats::tail_summary(xs);
  EXPECT_EQ(t.count, 1000u);
  EXPECT_DOUBLE_EQ(t.median, 100e-6);
  EXPECT_DOUBLE_EQ(t.p99, 100e-6);
  // Type-7 interpolation between the 999th and 1000th order statistics
  // pulls p99.9 part-way toward the outlier — well above the bulk.
  EXPECT_GT(t.p999, 2e-4);
  EXPECT_DOUBLE_EQ(t.max, 200e-3);
  EXPECT_NEAR(t.mean, (999 * 100e-6 + 200e-3) / 1000.0, 1e-12);
}

TEST(TailSummary, MatchesQuantileOnSortedInput) {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(static_cast<double>(i));
  const auto t = stats::tail_summary(xs);
  EXPECT_DOUBLE_EQ(t.median, stats::quantile(xs, 0.5));
  EXPECT_DOUBLE_EQ(t.p99, stats::quantile(xs, 0.99));
  EXPECT_DOUBLE_EQ(t.p999, stats::quantile(xs, 0.999));
  EXPECT_DOUBLE_EQ(t.max, 1000.0);
}

}  // namespace
