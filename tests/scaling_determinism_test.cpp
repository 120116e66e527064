// Determinism contract of the scaling pipeline: a model fitted from a
// measured table is byte-identical at any benchmark job count, and
// extrapolated predictions through
// run_request are byte-identical at any Monte-Carlo thread count. Also
// covers the DeliverySampler's scaling fallback against the table edge.
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/request.h"
#include "core/sampler.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"
#include "scaling/model.h"
#include "stats/empirical.h"

namespace {

using mpibench::OpKind;

mpibench::Options bench_options() {
  mpibench::Options opt;
  opt.cluster = net::perseus(2);
  opt.procs_per_node = 1;
  opt.repetitions = 40;
  opt.warmup = 8;
  opt.seed = 20260808;
  return opt;
}

std::string fit_artifact(int jobs) {
  const std::vector<net::Bytes> sizes{net::Bytes{256}, net::Bytes{4096}};
  const std::vector<mpibench::Config> configs{{2, 1}, {4, 1}, {8, 1}};
  const auto table = mpibench::measure_isend_table(
      bench_options(), sizes, configs, jobs);
  std::ostringstream out;
  scaling::fit_scaling_model(table).save(out);
  return out.str();
}

TEST(ScalingDeterminism, ArtifactIdenticalAcrossSimThreadsAndJobs) {
  const std::string baseline = fit_artifact(1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(fit_artifact(2), baseline);  // measurement fan-out
}

/// Synthetic table with a clear size/contention law, for the sampler and
/// request tests (no simulator run needed).
mpibench::DistributionTable law_table() {
  mpibench::DistributionTable table;
  for (const net::Bytes s :
       {net::Bytes{256}, net::Bytes{1024}, net::Bytes{4096}}) {
    for (const int p : {1, 2, 4}) {
      const double base =
          5e-6 + 2e-9 * s.to_double() * std::log2(p + 1.0);
      std::vector<double> samples;
      for (int i = 0; i < 32; ++i) {
        samples.push_back(base * (0.9 + 0.2 * (i + 0.5) / 32.0));
      }
      table.insert(OpKind::kPtpOneWay, s, p,
                   stats::EmpiricalDistribution::from_samples(samples));
      table.insert(OpKind::kPtpSender, s, p,
                   stats::EmpiricalDistribution::constant(1e-6));
    }
  }
  return table;
}

TEST(SamplerScaling, OffGridKeysUseModelInsteadOfEdgeClamp) {
  const auto table = law_table();
  const scaling::ScalingModel model = scaling::fit_scaling_model(table);

  pevpm::SamplerOptions with_model;
  with_model.mode = pevpm::PredictionMode::kAverage;
  // Scoreboard contention passes the outstanding count straight through,
  // so one sampler can probe on-grid and off-grid levels alike.
  with_model.contention = pevpm::ContentionSource::kScoreboard;
  with_model.scaling = &model;
  pevpm::SamplerOptions without_model = with_model;
  without_model.scaling = nullptr;

  pevpm::DeliverySampler extrapolating{table, with_model, 1};
  pevpm::DeliverySampler clamping{table, without_model, 1};
  // 4x the largest measured size at 2x the largest level.
  const double predicted = extrapolating.delivery_seconds(net::Bytes{16384}, 8);
  const double clamped = clamping.delivery_seconds(net::Bytes{16384}, 8);
  const double law = 5e-6 + 2e-9 * 16384.0 * std::log2(9.0);
  EXPECT_NEAR(predicted, law, 0.15 * law);
  // The edge clamp answers with the (4096, 4) cell — far below the law.
  EXPECT_LT(clamped, 0.5 * predicted);

  // On-grid keys keep answering from the table, model present or not.
  EXPECT_EQ(extrapolating.delivery_seconds(net::Bytes{1024}, 2),
            clamping.delivery_seconds(net::Bytes{1024}, 2));
}

TEST(SamplerScaling, ModelCoversOpsWithNoTableEntries) {
  const auto table = law_table();  // no collective entries at all
  mpibench::DistributionTable bcast_source;
  for (const net::Bytes s : {net::Bytes{256}, net::Bytes{1024}}) {
    for (const int p : {2, 4}) {
      bcast_source.insert(
          OpKind::kBcast, s, p,
          stats::EmpiricalDistribution::constant(1e-5 * p));
    }
  }
  const scaling::ScalingModel model =
      scaling::fit_scaling_model(bcast_source);

  pevpm::SamplerOptions options;
  options.mode = pevpm::PredictionMode::kAverage;
  options.scaling = &model;
  pevpm::DeliverySampler sampler{table, options, 1};
  const double t = sampler.collective_seconds(pevpm::CollOp::kBcast, net::Bytes{512}, 4);
  EXPECT_NEAR(t, 4e-5, 1e-6);
}

TEST(SamplerScaling, NonFinitePredictionIsAModelError) {
  // Every track is 1e308 * log2(s + 1): infinite anywhere off the grid.
  std::string text = "pevpm-scaling v1\n1 16\n0\n";
  for (int t = 0; t < scaling::ScalingModel::kTracks; ++t) {
    text += "0 1e308 0 1 0 0\n";
  }
  std::istringstream in{text};
  const scaling::ScalingModel model = scaling::ScalingModel::load(in);
  pevpm::SamplerOptions options;
  options.mode = pevpm::PredictionMode::kAverage;
  options.scaling = &model;
  const auto table = law_table();
  pevpm::DeliverySampler sampler{table, options, 1};
  try {
    (void)sampler.delivery_seconds(net::Bytes{100000}, 2);
    FAIL() << "expected a ModelError";
  } catch (const pevpm::ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ptp_oneway"), std::string::npos) << what;
    EXPECT_NE(what.find("100000 bytes"), std::string::npos) << what;
  }
  // On-grid keys never consult the model.
  EXPECT_GT(sampler.delivery_seconds(net::Bytes{1024}, 2), 0.0);
}

const char* kChainModel = R"(
loop 8 {
  runon procnum % 2 == 0 {
    runon procnum != numprocs - 1 {
      message send size = 16384 to = procnum + 1
      message recv size = 16384 from = procnum + 1
    }
  } else {
    message recv size = 16384 from = procnum - 1
    message send size = 16384 to = procnum - 1
  }
  serial time = 0.0001
}
)";

TEST(ScalingDeterminism, ExtrapolatedReportIdenticalAtAnyThreadCount) {
  const auto table = law_table();
  std::ostringstream table_text;
  table.save(table_text);

  pevpm::PredictRequest request;
  request.model_text = kChainModel;
  request.model_name = "chain";
  request.table_text = table_text.str();
  request.table_label = "law-table";
  request.procs = {8};  // drives contention past the measured levels
  request.options.replications = 9;
  request.options.seed = 4242;
  request.extrapolate = true;

  request.options.threads = 1;
  const pevpm::PredictReport serial = pevpm::run_request(request);
  for (const int threads : {2, 3}) {
    request.options.threads = threads;
    const pevpm::PredictReport parallel = pevpm::run_request(request);
    EXPECT_EQ(parallel.summary, serial.summary);
  }

  // A pre-fitted artifact shipped via scaling_text gives the same bytes as
  // fitting on demand from the same table.
  std::ostringstream artifact;
  scaling::fit_scaling_model(table).save(artifact);
  request.scaling_text = artifact.str();
  request.options.threads = 2;
  EXPECT_EQ(pevpm::run_request(request).summary, serial.summary);
}

}  // namespace
