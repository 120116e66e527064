// Pins the DeliverySampler's draws bit for bit.
//
// One fixed seed drives a mixed script of sender, one-way and late-receive
// draws and measured and synthesised collectives, at contention below,
// on, between and above the measured levels, on and off the measured
// sizes. Each configuration (prediction mode, contention source, scaling
// fallback) hashes the bit patterns of every draw; the digests were
// recorded on the sampler before cells were shared across replications, so
// a change to how cells are found, keyed or shared that moves a single
// draw shows here.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sampler.h"
#include "digest.h"
#include "mpibench/table.h"
#include "scaling/model.h"
#include "stats/empirical.h"
#include "stats/histogram.h"

namespace {

using mpibench::OpKind;
using pevpm::CollOp;

/// Three sizes and three contention levels of one-way (binned, so draws
/// jitter inside a bin), sender (raw samples) and bcast (binned) entries.
/// No barrier, reduce or alltoall entries, so those collectives are
/// synthesised from the one-way data.
mpibench::DistributionTable golden_table() {
  mpibench::DistributionTable table;
  for (const net::Bytes s :
       {net::Bytes{256}, net::Bytes{1024}, net::Bytes{4096}}) {
    for (const int p : {2, 4, 8}) {
      const double base = 4e-6 + 1.5e-9 * s.to_double() * (1.0 + 0.25 * p);
      stats::Histogram oneway{base / 16.0};
      stats::Histogram bcast{base / 8.0};
      std::vector<double> sender;
      for (int i = 0; i < 48; ++i) {
        const double spread = 0.85 + 0.4 * ((i * 7) % 48) / 48.0;
        oneway.add(base * spread);
        bcast.add(2.5 * base * spread);
        sender.push_back(0.2 * base * (0.9 + 0.01 * (i % 11)));
      }
      table.insert(OpKind::kPtpOneWay, s, p,
                   stats::EmpiricalDistribution{oneway});
      table.insert(OpKind::kBcast, s, p, stats::EmpiricalDistribution{bcast});
      table.insert(OpKind::kPtpSender, s, p,
                   stats::EmpiricalDistribution::from_samples(sender));
    }
  }
  return table;
}

/// Runs the script three times over (cold, then warm keys) and hashes the
/// bit pattern of every draw.
std::string script_digest(pevpm::DeliverySampler& s) {
  testdigest::Digest digest;
  for (int pass = 0; pass < 3; ++pass) {
    // One-way: below (0, 1), on (2, 4, 8), between (3, 5) and above (12,
    // 40) the measured levels, on and between the measured sizes, and
    // sizes below and above them.
    for (const int c : {0, 1, 2, 3, 4, 5, 8, 12, 40}) {
      digest.add(s.delivery_seconds(net::Bytes{256}, c));
      digest.add(s.delivery_seconds(net::Bytes{2000}, c));
    }
    digest.add(s.delivery_seconds(net::Bytes{64}, 3));
    digest.add(s.delivery_seconds(net::Bytes{16384}, 9));
    digest.add(s.delivery_seconds(net::Bytes{4096}, 6));
    // Sender and late-receive draws (both from the sender table).
    digest.add(s.sender_seconds(net::Bytes{256}, 0));
    digest.add(s.sender_seconds(net::Bytes{4096}, 5));
    digest.add(s.sender_seconds(net::Bytes{1024}, 30));
    digest.add(s.late_recv_seconds(net::Bytes{256}, 7));
    digest.add(s.late_recv_seconds(net::Bytes{3000}, 2));
    // Collectives: bcast is measured (nprocs is its contention key);
    // barrier, reduce, allreduce and alltoall are synthesised.
    digest.add(s.collective_seconds(CollOp::kBcast, net::Bytes{256}, 4));
    digest.add(s.collective_seconds(CollOp::kBcast, net::Bytes{4096}, 16));
    digest.add(s.collective_seconds(CollOp::kBcast, net::Bytes{1024}, 1));
    digest.add(s.collective_seconds(CollOp::kBarrier, net::Bytes{}, 8));
    digest.add(s.collective_seconds(CollOp::kReduce, net::Bytes{256}, 3));
    digest.add(s.collective_seconds(CollOp::kAllreduce, net::Bytes{1024}, 6));
    digest.add(s.collective_seconds(CollOp::kAlltoall, net::Bytes{256}, 5));
    // Contention at and past 2^16: extrapolated with a scaling model,
    // clamped to the top level without one.
    digest.add(s.delivery_seconds(net::Bytes{256}, 65535));
    digest.add(s.delivery_seconds(net::Bytes{256}, 65536));
    digest.add(s.delivery_seconds(net::Bytes{16384}, 70000));
    digest.add(s.sender_seconds(net::Bytes{4096}, 100000));
  }
  return digest.hex();
}

struct Config {
  pevpm::PredictionMode mode = pevpm::PredictionMode::kDistribution;
  pevpm::ContentionSource contention = pevpm::ContentionSource::kScoreboard;
  int fixed_contention = 2;
  bool extrapolate = false;
};

std::string run(const Config& config) {
  const mpibench::DistributionTable table = golden_table();
  const scaling::ScalingModel model = scaling::fit_scaling_model(table);
  pevpm::SamplerOptions options;
  options.mode = config.mode;
  options.contention = config.contention;
  options.fixed_contention = config.fixed_contention;
  options.scaling = config.extrapolate ? &model : nullptr;
  pevpm::DeliverySampler sampler{table, options, 20261019};
  return script_digest(sampler);
}

TEST(SamplerGolden, DistributionScoreboard) {
  EXPECT_EQ(run({}), "4fa243056751df84");
}

TEST(SamplerGolden, DistributionFixedContention) {
  EXPECT_EQ(run({.contention = pevpm::ContentionSource::kFixed,
                 .fixed_contention = 3}),
            "06d67110be67b8c3");
}

TEST(SamplerGolden, AverageScoreboard) {
  EXPECT_EQ(run({.mode = pevpm::PredictionMode::kAverage}),
            "2bade5f13310cf02");
}

TEST(SamplerGolden, MinimumScoreboard) {
  EXPECT_EQ(run({.mode = pevpm::PredictionMode::kMinimum}),
            "806802c648d664d4");
}

TEST(SamplerGolden, ExtrapolatedScoreboard) {
  EXPECT_EQ(run({.extrapolate = true}), "23084eea01063801");
}

TEST(SamplerGolden, ExtrapolatedFixedAboveDenseBound) {
  EXPECT_EQ(run({.contention = pevpm::ContentionSource::kFixed,
                 .fixed_contention = 100000,
                 .extrapolate = true}),
            "7a02eb9ff7d4f3f1");
}

TEST(SamplerGolden, ExtrapolatedAverageFixed) {
  EXPECT_EQ(run({.mode = pevpm::PredictionMode::kAverage,
                 .contention = pevpm::ContentionSource::kFixed,
                 .fixed_contention = 3,
                 .extrapolate = true}),
            "8bf5fc9a4b1fc106");
}

}  // namespace
