// End-to-end integration: the full benchmark -> table -> model -> predict
// pipeline against "actual" execution on the simulated cluster. These are
// the repository's accuracy gates; tolerances reflect what the paper's
// methodology achieves on each workload class.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/parse.h"
#include "core/predict.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace {

mpibench::DistributionTable halo_table(int max_nodes, int reps = 120) {
  mpibench::Options opt;
  opt.repetitions = reps;
  opt.warmup = 12;
  opt.seed = 5150;
  std::vector<net::Bytes> sizes{net::Bytes{1024}};
  std::vector<mpibench::Config> configs;
  for (int n = 2; n <= max_nodes; n *= 2) configs.push_back({n, 1});
  return mpibench::measure_isend_table(opt, sizes, configs);
}

double actual_pingpong_chain(int procs, int iterations, double serial) {
  smpi::Runtime::Options opt;
  opt.cluster = net::perseus(procs);
  opt.nprocs = procs;
  opt.seed = 2027;
  smpi::Runtime rt{opt};
  rt.run([&](smpi::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    std::vector<std::byte> buf(1024);
    for (int i = 0; i < iterations; ++i) {
      if (r % 2 == 0) {
        if (r != p - 1) {
          comm.send(buf, r + 1, 0);
          comm.recv(buf, r + 1, 0);
        }
      } else {
        comm.recv(buf, r - 1, 0);
        comm.send(buf, r - 1, 0);
      }
      comm.compute(serial / p);
    }
  });
  return rt.elapsed().to_seconds();
}

pevpm::Model pingpong_chain_model(double serial) {
  const std::string text = "param serial = " + std::to_string(serial) + R"(
loop 200 {
  runon procnum % 2 == 0 {
    runon procnum != numprocs - 1 {
      message send size = 1024 to = procnum + 1
      message recv size = 1024 from = procnum + 1
    }
  } else {
    message recv size = 1024 from = procnum - 1
    message send size = 1024 to = procnum - 1
  }
  serial time = serial / numprocs
}
)";
  return pevpm::parse_model(text, "chain");
}

TEST(Integration, ComputeWeightedWorkloadWithinFivePercent) {
  // The paper's regime: compute-weighted, like the Jacobi example. PEVPM
  // must land within 5% at every machine size (paper: "always within 5%,
  // usually within 1%").
  const auto table = halo_table(16);
  const double serial = 0.05;  // 50 ms serial chunk per iteration
  const auto model = pingpong_chain_model(serial);
  for (const int procs : {2, 4, 8, 16}) {
    const double actual = actual_pingpong_chain(procs, 200, serial);
    pevpm::PredictOptions opts;
    opts.replications = 3;
    const auto prediction = pevpm::predict(model, procs, {}, table, opts);
    const double err =
        100.0 * (prediction.seconds() - actual) / actual;
    EXPECT_LT(std::abs(err), 5.0) << "P=" << procs << " err=" << err << "%";
  }
}

TEST(Integration, CommunicationBoundWithinTwentyPercent) {
  // Far outside the paper's evaluated regime: nearly pure communication.
  // The distribution-based prediction must stay in the right ballpark
  // (documented limitation: same-sender wire serialisation is invisible to
  // the table abstraction).
  const auto table = halo_table(16);
  const double serial = 0.0005;
  const auto model = pingpong_chain_model(serial);
  for (const int procs : {2, 8, 16}) {
    const double actual = actual_pingpong_chain(procs, 200, serial);
    pevpm::PredictOptions opts;
    opts.replications = 5;
    const auto prediction = pevpm::predict(model, procs, {}, table, opts);
    const double err =
        100.0 * (prediction.seconds() - actual) / actual;
    EXPECT_LT(std::abs(err), 20.0) << "P=" << procs << " err=" << err << "%";
  }
}

TEST(Integration, DistributionModeBeatsNaiveModesCommBound) {
  const auto table = halo_table(16);
  const double serial = 0.0005;
  const auto model = pingpong_chain_model(serial);
  const int procs = 16;
  const double actual = actual_pingpong_chain(procs, 200, serial);

  auto err_of = [&](pevpm::SamplerOptions sampler) {
    pevpm::PredictOptions opts;
    opts.sampler = sampler;
    opts.replications = 5;
    const auto prediction = pevpm::predict(model, procs, {}, table, opts);
    return std::abs(prediction.seconds() - actual) / actual;
  };
  pevpm::SamplerOptions dist;
  pevpm::SamplerOptions min_2x1;
  min_2x1.mode = pevpm::PredictionMode::kMinimum;
  min_2x1.contention = pevpm::ContentionSource::kFixed;
  min_2x1.fixed_contention = 1;
  // The paper's central comparison: full distributions with scoreboard
  // contention beat ideal ping-pong numbers.
  EXPECT_LT(err_of(dist), err_of(min_2x1));
}

TEST(Integration, TableRoundTripPreservesPredictions) {
  const auto table = halo_table(8, 80);
  const auto model = pingpong_chain_model(0.01);
  pevpm::PredictOptions opts;
  opts.replications = 3;
  const auto before = pevpm::predict(model, 8, {}, table, opts);
  std::stringstream ss;
  table.save(ss);
  const auto loaded = mpibench::DistributionTable::load(ss);
  const auto after = pevpm::predict(model, 8, {}, loaded, opts);
  // Serialisation quantises to bin resolution; predictions agree closely.
  EXPECT_NEAR(after.seconds(), before.seconds(),
              0.01 * before.seconds());
}

TEST(Integration, WholePipelineIsDeterministic) {
  auto once = [] {
    const auto table = halo_table(4, 60);
    const auto model = pingpong_chain_model(0.002);
    pevpm::PredictOptions opts;
    opts.replications = 2;
    return pevpm::predict(model, 4, {}, table, opts).seconds();
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

}  // namespace
