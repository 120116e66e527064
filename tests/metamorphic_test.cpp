// Metamorphic oracles over the MPIBench Isend sweep: relations between
// runs that must hold whatever the exact numbers are, in the style of
// PGMPI's self-consistent performance guidelines.
//
//   * Without contention or faults, more bytes is never faster: on a
//     2-node Perseus the mean and the median one-way time rise strictly
//     along 256 B -> 1 KiB -> 4 KiB -> 16 KiB -> 64 KiB, for every seed.
//   * More nodes is never faster: a 32-node (two-switch) sweep, with its
//     pairs contending for the switches and the trunk, never has a lower
//     mean than the 2-node sweep at the same size.
//
// The 2-node sweeps run 200 repetitions: the host model's rare scheduling
// spikes (net::HostParams::spike_prob, hundreds of microseconds each)
// move a short sweep's mean by several microseconds, which is the size of
// the contention gap at 256 B (131.5-134.6 us on 2 nodes vs 136.7-140.8 us
// on 32 for seeds 1-5). A failure here is a simulator defect, not a
// tolerance to widen.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace {

constexpr std::array<std::uint64_t, 5> kSizes{256, 1024, 4096, 16384, 65536};

struct Point {
  double mean_us = 0.0;
  double median_us = 0.0;
};

std::array<Point, kSizes.size()> sweep(int nodes, int reps,
                                       std::uint64_t seed) {
  mpibench::Options options;
  options.cluster = net::perseus(nodes);
  options.repetitions = reps;
  options.warmup = std::max(8, reps / 10);  // as the mpibench CLI does
  options.seed = seed;
  EXPECT_FALSE(options.cluster.fault.enabled());
  std::array<Point, kSizes.size()> points{};
  for (std::size_t i = 0; i < kSizes.size(); ++i) {
    const mpibench::PointToPointResult result =
        mpibench::run_isend(options, net::Bytes{kSizes[i]});
    EXPECT_GT(result.messages, 0u);
    points[i].mean_us = result.oneway.summary().mean() * 1e6;
    points[i].median_us = result.distribution().quantile(0.5) * 1e6;
  }
  return points;
}

class IsendMetamorphic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsendMetamorphic, MoreBytesIsSlowerWithoutContention) {
  const auto points = sweep(2, 200, GetParam());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].mean_us, points[i].mean_us)
        << "mean, " << kSizes[i - 1] << " B -> " << kSizes[i] << " B";
    EXPECT_LT(points[i - 1].median_us, points[i].median_us)
        << "median, " << kSizes[i - 1] << " B -> " << kSizes[i] << " B";
  }
}

TEST_P(IsendMetamorphic, MoreNodesIsNeverFaster) {
  const auto pair = sweep(2, 200, GetParam());
  const auto wide = sweep(32, 10, GetParam());
  for (std::size_t i = 0; i < kSizes.size(); ++i) {
    EXPECT_GE(wide[i].mean_us, pair[i].mean_us) << kSizes[i] << " B";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsendMetamorphic,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
