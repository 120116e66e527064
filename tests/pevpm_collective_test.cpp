// Collective directives in the PEVPM and theoretical distribution tables.
#include <gtest/gtest.h>

#include "core/parse.h"
#include "core/predict.h"
#include "core/sampler.h"
#include "core/theoretical.h"
#include "core/vm.h"
#include "mpibench/table.h"

namespace {

using mpibench::DistributionTable;
using mpibench::OpKind;

DistributionTable ptp_table(double oneway_s, double sender_s) {
  DistributionTable table;
  for (const net::Bytes size : {net::Bytes{0}, net::Bytes{1ULL << 20}}) {
    table.insert(OpKind::kPtpOneWay, size, 1,
                 stats::EmpiricalDistribution::constant(oneway_s));
    table.insert(OpKind::kPtpSender, size, 1,
                 stats::EmpiricalDistribution::constant(sender_s));
  }
  return table;
}

pevpm::SimulationResult run(const pevpm::Model& model, int nprocs,
                            const DistributionTable& table,
                            pevpm::SamplerOptions opts = {}) {
  pevpm::DeliverySampler sampler{table, opts, 7};
  return pevpm::simulate(model, nprocs, {}, sampler);
}

TEST(VmCollective, BarrierSynchronisesStaggeredProcesses) {
  const char* text = R"(
serial time = procnum * 0.1
barrier
serial time = 0.05
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 4, ptp_table(1e-3, 0.0));
  ASSERT_FALSE(result.deadlocked);
  // Everyone leaves the barrier after the slowest arrival (0.3 s) plus the
  // synthesised barrier cost (2 tree rounds x 1 ms), then computes 0.05 s.
  for (const auto& proc : result.processes) {
    EXPECT_NEAR(proc.finish, 0.3 + 2e-3 + 0.05, 1e-9);
  }
  // Process 0 waited the longest.
  EXPECT_NEAR(result.processes[0].blocked, 0.3 + 2e-3, 1e-9);
  EXPECT_NEAR(result.processes[3].blocked, 2e-3, 1e-9);
}

TEST(VmCollective, RepeatedBarriersKeepLockstep) {
  const auto model = pevpm::parse_model(R"(
loop 5 {
  serial time = 0.01
  barrier
}
)");
  const auto result = run(model, 3, ptp_table(1e-3, 0.0));
  ASSERT_FALSE(result.deadlocked);
  EXPECT_NEAR(result.makespan, 5 * (0.01 + 2e-3), 1e-9);
}

TEST(VmCollective, BcastUsesMeasuredTableWhenPresent) {
  DistributionTable table = ptp_table(1e-3, 0.0);
  table.insert(OpKind::kBcast, net::Bytes{4096}, 4,
               stats::EmpiricalDistribution::constant(7e-3));
  const auto model = pevpm::parse_model("bcast size = 4096 root = 0\n");
  const auto result = run(model, 4, table);
  ASSERT_FALSE(result.deadlocked);
  EXPECT_NEAR(result.makespan, 7e-3, 1e-9);
}

TEST(VmCollective, BcastFallsBackToLogTreeSynthesis) {
  const auto model = pevpm::parse_model("bcast size = 1024 root = 0\n");
  const auto result = run(model, 8, ptp_table(2e-3, 0.0));
  ASSERT_FALSE(result.deadlocked);
  // 8 processes -> 3 tree rounds of 2 ms each.
  EXPECT_NEAR(result.makespan, 6e-3, 1e-9);
}

TEST(VmCollective, AllreduceComposesReduceAndBcast) {
  const auto model = pevpm::parse_model("allreduce size = 64\n");
  const auto result = run(model, 4, ptp_table(1e-3, 0.0));
  // 2 rounds for the tree, doubled: 4 ms.
  EXPECT_NEAR(result.makespan, 4e-3, 1e-9);
}

TEST(VmCollective, AlltoallScalesWithProcessCount) {
  const auto model = pevpm::parse_model("alltoall size = 128\n");
  const auto r4 = run(model, 4, ptp_table(1e-3, 0.0));
  const auto r8 = run(model, 8, ptp_table(1e-3, 0.0));
  EXPECT_NEAR(r4.makespan, 3e-3, 1e-9);  // P-1 rounds
  EXPECT_NEAR(r8.makespan, 7e-3, 1e-9);
}

TEST(VmCollective, MixedWithPointToPointTraffic) {
  const char* text = R"(
runon procnum == 0 {
  message send size = 256 to = 1
} else {
  runon procnum == 1 {
    message recv size = 256 from = 0
  }
}
barrier
serial time = 0.01
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 3, ptp_table(1e-3, 1e-4));
  ASSERT_FALSE(result.deadlocked);
  EXPECT_GT(result.makespan, 0.01);
}

TEST(VmCollective, MismatchedCollectivesAreAnError) {
  const char* text = R"(
runon procnum == 0 {
  barrier
} else {
  bcast size = 64 root = 0
}
)";
  const auto model = pevpm::parse_model(text);
  EXPECT_THROW((void)run(model, 2, ptp_table(1e-3, 0.0)),
               pevpm::ModelError);
}

TEST(VmCollective, MissingParticipantIsDeadlock) {
  const char* text = R"(
runon procnum != 0 {
  barrier
}
)";
  const auto model = pevpm::parse_model(text);
  const auto result = run(model, 3, ptp_table(1e-3, 0.0));
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.deadlocked_processes.size(), 2u);
}

TEST(VmCollective, ParserRoundTripsCollectives) {
  const char* text = R"(
barrier
bcast size = 1024 root = 2
reduce size = 512 root = 0
allreduce size = 8
alltoall size = 2048
)";
  const auto model = pevpm::parse_model(text, "colls");
  ASSERT_EQ(model.body.size(), 5u);
  const auto again = pevpm::parse_model(model.str(), "colls");
  EXPECT_EQ(again.str(), model.str());
}

TEST(Theoretical, TableMatchesHockneyMeans) {
  pevpm::TheoreticalMachine machine;
  machine.latency_s = 100e-6;
  machine.bandwidth_Bps = 10e6;
  machine.noise_sigma = 0.05;
  const std::vector<net::Bytes> sizes{net::Bytes{0}, net::Bytes{1024},
                                      net::Bytes{65536}};
  const std::vector<int> contentions{1, 32};
  const auto table =
      pevpm::make_theoretical_table(machine, sizes, contentions);
  // 12 entries: 3 sizes x 2 levels x 2 ops.
  EXPECT_EQ(table.size(), 12u);
  const auto quiet = table.lookup(OpKind::kPtpOneWay, net::Bytes{65536}, 1);
  // Base time: 100 us + 65536/10e6 = 6.65 ms; the noise term only adds.
  EXPECT_GE(quiet.min(), 6.6e-3);
  EXPECT_LT(quiet.mean(), 7.5e-3);
  // Contention level 32 is slower on average.
  const auto busy = table.lookup(OpKind::kPtpOneWay, net::Bytes{65536}, 32);
  EXPECT_GT(busy.mean(), quiet.mean());
}

TEST(Theoretical, DrivesEndToEndPrediction) {
  pevpm::TheoreticalMachine machine;
  const std::vector<net::Bytes> sizes{net::Bytes{1024}};
  const std::vector<int> contentions{1, 8};
  const auto table =
      pevpm::make_theoretical_table(machine, sizes, contentions);
  const auto model = pevpm::parse_model(R"(
loop 10 {
  runon procnum == 0 {
    message send size = 1024 to = 1
    message recv size = 1024 from = 1
  } else {
    message recv size = 1024 from = 0
    message send size = 1024 to = 0
  }
}
)");
  pevpm::PredictOptions opts;
  opts.replications = 4;
  const auto prediction = pevpm::predict(model, 2, {}, table, opts);
  // 20 one-way messages of ~175+ us each, plus sender costs.
  EXPECT_GT(prediction.seconds(), 3e-3);
  EXPECT_LT(prediction.seconds(), 10e-3);
}

}  // namespace
