// Property and regression tests for the strong unit types (core/units.h)
// and the des::time converter boundary.
//
// Covered here: dimensional arithmetic identities, the symmetric
// (half-away-from-zero) rounding of the floating-point boundary including
// negative spans, kNever/kForever saturation round trips, integer
// round-trip exactness under an LCG sweep, and — in checked builds —
// that overflowing arithmetic aborts instead of wrapping. The rejections
// (SimTime + SimTime and friends) live in tests/compile_fail/, since they
// must fail to *compile*.
#include <gtest/gtest.h>

#include <cstdint>

#include "des/time.h"

namespace {

using units::Bytes;
using units::Duration;
using units::PartitionId;
using units::Rank;
using units::SeqNo;
using units::SimTime;

TEST(Units, SimTimeDurationAlgebra) {
  const SimTime t0{1'000};
  const Duration d{250};
  EXPECT_EQ((t0 + d).ns(), 1'250);
  EXPECT_EQ((d + t0).ns(), 1'250);
  EXPECT_EQ((t0 - d).ns(), 750);
  EXPECT_EQ((t0 + d) - t0, d);
  EXPECT_EQ(t0.since_start(), Duration{1'000});

  SimTime t = t0;
  t += d;
  t -= Duration{50};
  EXPECT_EQ(t.ns(), 1'200);

  EXPECT_EQ((Duration{100} + Duration{23}).ns(), 123);
  EXPECT_EQ((Duration{100} - Duration{123}).ns(), -23);
  EXPECT_EQ((-Duration{7}).ns(), -7);
  EXPECT_EQ((Duration{40} * std::int64_t{3}).ns(), 120);
  EXPECT_EQ((std::int64_t{3} * Duration{40}).ns(), 120);
  EXPECT_EQ((Duration{120} / std::int64_t{7}).ns(), 17);
  // Ratio of spans is dimensionless.
  EXPECT_EQ(Duration{1'000} / Duration{64}, 15);
}

TEST(Units, BytesAndSeqNoAlgebra) {
  const Bytes mtu{1'500};
  EXPECT_EQ((mtu + Bytes{38}).count(), 1'538u);
  EXPECT_EQ((mtu - Bytes{500}).count(), 1'000u);
  EXPECT_EQ((mtu * std::uint64_t{4}).count(), 6'000u);
  EXPECT_EQ(Bytes{10'000} / mtu, 6u);       // truncating segment count
  EXPECT_EQ((Bytes{10'000} % mtu).count(), 1'000u);
  EXPECT_DOUBLE_EQ(mtu.to_double(), 1500.0);

  SeqNo head{100};
  head += Bytes{1'400};
  EXPECT_EQ(head.value(), 1'500u);
  EXPECT_EQ((head + Bytes{36}).value(), 1'536u);
  EXPECT_EQ(head - SeqNo{100}, Bytes{1'400});
  EXPECT_EQ((head - Bytes{1'500}).value(), 0u);
}

TEST(Units, IdentifiersCompareButCarryNoArithmetic) {
  EXPECT_LT(Rank{0}, Rank{3});
  EXPECT_EQ(Rank{2}, Rank{2});
  EXPECT_EQ(Rank{}.value(), -1);  // default: "no rank"
  EXPECT_LT(PartitionId{1}, PartitionId{2});
  EXPECT_EQ(PartitionId{}.value(), 0);
}

TEST(Units, RoundingIsHalfAwayFromZeroSymmetricInSign) {
  // 2.5 ns rounds away from zero in both directions — the old truncating
  // converter rounded -2.5 to -2 and biased negative spans toward zero.
  EXPECT_EQ(Duration::from_micros(0.0025).ns(), 3);
  EXPECT_EQ(Duration::from_micros(-0.0025).ns(), -3);
  EXPECT_EQ(Duration::from_micros(0.0024).ns(), 2);
  EXPECT_EQ(Duration::from_micros(-0.0024).ns(), -2);
  EXPECT_EQ(Duration::from_micros(-1.5e-3).ns(), -2);
  EXPECT_EQ(Duration::from_seconds(-2.5e-9).ns(), -3);
  EXPECT_EQ(Duration::from_millis(-0.5e-6).ns(), -1);
  EXPECT_EQ(SimTime::from_micros(-0.0025).ns(), -3);

  // And the converters agree with each other across scales.
  EXPECT_EQ(Duration::from_seconds(1.5), Duration::from_millis(1500.0));
  EXPECT_EQ(Duration::from_millis(2.25), Duration::from_micros(2250.0));
}

TEST(Units, NeverAndForeverSurviveTheFloatBoundary) {
  EXPECT_EQ(SimTime::from_micros(des::kNever.to_micros()), des::kNever);
  EXPECT_EQ(SimTime::from_seconds(des::kNever.to_seconds()), des::kNever);
  EXPECT_EQ(Duration::from_micros(des::kForever.to_micros()), des::kForever);
  EXPECT_EQ(Duration::from_seconds(1e300), des::kForever);
  // Negative overflow saturates symmetrically instead of wrapping.
  EXPECT_EQ(Duration::from_seconds(-1e300).ns(), INT64_MIN);
  // kNever orders after every reachable instant.
  EXPECT_LT(SimTime{INT64_MAX - 1}, des::kNever);
}

TEST(Units, IntegerRoundTripThroughMicrosIsExactInRange) {
  // Deterministic LCG sweep over +/- 1e14 ns (~27 hours of virtual time):
  // ns -> micros(double) -> ns must be the identity. At this magnitude the
  // double's relative error is ~1e-2 ns, far under the 0.5 ns round step.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 10'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto magnitude =
        static_cast<std::int64_t>(state % 100'000'000'000'000ull);
    const std::int64_t ns = (state >> 63) != 0u ? -magnitude : magnitude;
    const Duration d{ns};
    EXPECT_EQ(Duration::from_micros(d.to_micros()), d) << ns;
    EXPECT_EQ(SimTime::from_micros(SimTime{ns}.to_micros()), SimTime{ns})
        << ns;
  }
}

#if PEVPM_UNITS_CHECKED

using UnitsDeathTest = ::testing::Test;

TEST(UnitsDeathTest, OverflowAbortsInsteadOfWrapping) {
  EXPECT_DEATH((void)(des::kNever + Duration{1}), "units: overflow");
  EXPECT_DEATH((void)(SimTime{INT64_MIN + 1} - Duration{2}),
               "units: overflow");
  EXPECT_DEATH((void)(des::kForever * std::int64_t{2}), "units: overflow");
  EXPECT_DEATH((void)(Bytes{1} - Bytes{2}), "units: overflow");
  EXPECT_DEATH((void)(SeqNo{0} - Bytes{1}), "units: overflow");
}

#endif  // PEVPM_UNITS_CHECKED

}  // namespace
