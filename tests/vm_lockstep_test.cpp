// Lockstep replications: a Vm whose sampler has one lane per seed must
// give, on every lane, the result of that seed's replication run alone,
// bit for bit and field by field, and fail with the same error. Models
// cover blocking and nonblocking messages, runon, every collective (from
// measured tables and synthesised from point-to-point data), receives
// that find their message already delivered on some lanes only, a
// deadlock and a model error in mid-run; batches of 1, 2, 3, 8 and 16
// lanes over seeds 1-5. predict() must match the replications run alone
// at any thread count, whatever batches the threads split them into.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parse.h"
#include "core/predict.h"
#include "core/sampler.h"
#include "core/vm.h"
#include "jacobi_workload.h"
#include "mpibench/table.h"
#include "scaling/model.h"

namespace {

using mpibench::DistributionTable;
using mpibench::OpKind;

constexpr int kBatchSizes[] = {1, 2, 3, 8, 16};

/// Spread point-to-point distributions at several contention levels, so
/// draws are random, keys move with the scoreboard and deliveries often
/// overtake a receiver's clock on some lanes and not on others.
DistributionTable spread_table() {
  DistributionTable table;
  for (const int level : {1, 2, 8, 32, 64}) {
    stats::Histogram oneway{1e-6};
    stats::Histogram sender{1e-6};
    for (int i = 0; i < 40; ++i) {
      oneway.add((60.0 + level + (i * 37 % 80)) * 1e-6);
      sender.add((10.0 + (i * 13 % 20)) * 1e-6);
    }
    const stats::EmpiricalDistribution d_oneway{oneway};
    const stats::EmpiricalDistribution d_sender{sender};
    table.insert(OpKind::kPtpOneWay, net::Bytes{64}, level, d_oneway);
    table.insert(OpKind::kPtpOneWay, net::Bytes{1 << 16}, level,
                 d_oneway.scaled(4.0));
    table.insert(OpKind::kPtpSender, net::Bytes{64}, level, d_sender);
    table.insert(OpKind::kPtpSender, net::Bytes{1 << 16}, level,
                 d_sender.scaled(3.0));
  }
  return table;
}

/// spread_table()'s deliveries with free sends: a receive that finds its
/// message delivered blocks for no time, so on that lane it adds no loss
/// entry, while a lane whose receive waited adds one.
DistributionTable free_sender_table() {
  DistributionTable table;
  for (const int level : {1, 2, 8, 32, 64}) {
    stats::Histogram oneway{1e-6};
    for (int i = 0; i < 40; ++i) oneway.add((60.0 + level + (i * 37 % 80)) * 1e-6);
    for (const net::Bytes size : {net::Bytes{64}, net::Bytes{1 << 16}}) {
      table.insert(OpKind::kPtpOneWay, size, level,
                   stats::EmpiricalDistribution{oneway});
      table.insert(OpKind::kPtpSender, size, level,
                   stats::EmpiricalDistribution::constant(0.0));
    }
  }
  return table;
}

/// spread_table() plus measured barrier, bcast, reduce and alltoall.
DistributionTable collective_table() {
  DistributionTable table = spread_table();
  const OpKind ops[] = {OpKind::kBarrier, OpKind::kBcast, OpKind::kReduce,
                        OpKind::kAlltoall};
  for (std::size_t op = 0; op < std::size(ops); ++op) {
    for (const int procs : {2, 4, 8}) {
      stats::Histogram h{1e-6};
      for (int i = 0; i < 30; ++i) {
        h.add((100.0 * static_cast<double>(op + 1) + procs + i * 7 % 30) *
              1e-6);
      }
      table.insert(ops[op], net::Bytes{64}, procs,
                   stats::EmpiricalDistribution{h});
      table.insert(ops[op], net::Bytes{4096}, procs,
                   stats::EmpiricalDistribution{h}.scaled(2.0));
    }
  }
  return table;
}

void expect_same(const pevpm::SimulationResult& lane,
                 const pevpm::SimulationResult& solo, const std::string& at) {
  SCOPED_TRACE(at);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lane.makespan),
            std::bit_cast<std::uint64_t>(solo.makespan));
  EXPECT_EQ(lane.deadlocked, solo.deadlocked);
  EXPECT_EQ(lane.deadlocked_processes, solo.deadlocked_processes);
  EXPECT_EQ(lane.deadlocked_directives, solo.deadlocked_directives);
  EXPECT_EQ(lane.messages, solo.messages);
  EXPECT_EQ(lane.sweep_phases, solo.sweep_phases);
  EXPECT_EQ(lane.match_phases, solo.match_phases);
  EXPECT_EQ(lane.stream_lookups, solo.stream_lookups);
  ASSERT_EQ(lane.processes.size(), solo.processes.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t p = 0; p < solo.processes.size(); ++p) {
    const pevpm::ProcessReport& a = lane.processes[p];
    const pevpm::ProcessReport& b = solo.processes[p];
    EXPECT_EQ(bits(a.finish), bits(b.finish)) << "process " << p;
    EXPECT_EQ(bits(a.compute), bits(b.compute)) << "process " << p;
    EXPECT_EQ(bits(a.send_overhead), bits(b.send_overhead)) << "process " << p;
    EXPECT_EQ(bits(a.blocked), bits(b.blocked)) << "process " << p;
    ASSERT_EQ(a.blocked_by_directive.size(), b.blocked_by_directive.size())
        << "process " << p;
    auto it = b.blocked_by_directive.begin();
    for (const auto& [directive, loss] : a.blocked_by_directive) {
      EXPECT_EQ(directive, it->first) << "process " << p;
      EXPECT_EQ(bits(loss), bits(it->second))
          << "process " << p << " directive " << directive;
      ++it;
    }
  }
}

/// Every lane of a batch of each size, over seeds 1-5, against the same
/// replication run alone. Returns how many lanes differed from lane 0 in
/// makespan, so a caller can check the model really draws.
int check_lockstep(const pevpm::Model& model, int procs,
                   const DistributionTable& table,
                   pevpm::SamplerOptions sampler_options = {}) {
  int varied = 0;
  pevpm::SamplerCells cells{table, sampler_options.scaling};
  for (const int batch : kBatchSizes) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      pevpm::PredictOptions options;
      options.replications = batch;
      options.seed = seed;
      const std::vector<std::uint64_t> seeds =
          pevpm::replication_seeds(options);
      pevpm::DeliverySampler sampler{cells, sampler_options, seeds};
      const std::vector<pevpm::SimulationResult> lanes =
          pevpm::simulate_lanes(model, procs, {}, sampler);
      EXPECT_EQ(lanes.size(), seeds.size());
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        pevpm::DeliverySampler alone{cells, sampler_options, seeds[lane]};
        const pevpm::SimulationResult solo =
            pevpm::simulate(model, procs, {}, alone);
        expect_same(lanes[lane], solo,
                    "batch " + std::to_string(batch) + " seed " +
                        std::to_string(seed) + " lane " +
                        std::to_string(lane));
        if (lanes[lane].makespan != lanes.front().makespan) ++varied;
      }
    }
  }
  return varied;
}

TEST(VmLockstep, JacobiLanesMatchTheirSoloRuns) {
  const pevpm::Model model = jacobi::looped_model(5);
  for (const int procs : {1, 8, 64}) {
    SCOPED_TRACE("procs " + std::to_string(procs));
    const int varied = check_lockstep(model, procs, spread_table());
    if (procs > 1) {
      EXPECT_GT(varied, 0);
    }
  }
}

TEST(VmLockstep, JacobiLanesMatchAtFixedContentionAndInAverageMode) {
  const pevpm::Model model = jacobi::looped_model(3);
  pevpm::SamplerOptions fixed;
  fixed.contention = pevpm::ContentionSource::kFixed;
  fixed.fixed_contention = 8;
  EXPECT_GT(check_lockstep(model, 16, spread_table(), fixed), 0);
  pevpm::SamplerOptions average;
  average.mode = pevpm::PredictionMode::kAverage;
  EXPECT_EQ(check_lockstep(model, 16, spread_table(), average), 0);
}

TEST(VmLockstep, NonblockingRunonAndLateReceives) {
  // The serial time before each wait sits inside the delivery spread, so
  // a wait finds its message already delivered on some lanes (the
  // late-receive draw) and still in flight on others.
  const auto model = pevpm::parse_model(R"(
param block = 64
loop 4 as it {
  loop numprocs - 1 as k {
    message isend size = block to = (procnum + k + 1) % numprocs handle = s
    message irecv size = block from = (procnum - k - 1 + numprocs) % numprocs handle = r
    serial time = 0.00004 + 0.00002 * ((procnum + it) % 5)
    wait r
    wait s
  }
  runon procnum % 2 == 0 {
    runon procnum + 1 < numprocs {
      message send size = 65536 to = procnum + 1
      message recv size = 64 from = procnum + 1
    }
  } else {
    serial time = 0.0002
    message recv size = 65536 from = procnum - 1
    message send size = 64 to = procnum - 1
  }
}
)",
                                        "nonblocking");
  for (const int procs : {2, 5}) {
    SCOPED_TRACE("procs " + std::to_string(procs));
    EXPECT_GT(check_lockstep(model, procs, spread_table()), 0);
    EXPECT_GT(check_lockstep(model, procs, free_sender_table()), 0);
  }
}

constexpr const char* kCollectives = R"(
loop 2 as it {
  serial time = 0.0001 * (procnum + 1)
  barrier
  bcast size = 64 root = it % numprocs
  runon procnum % 2 == 0 {
    serial time = 0.00005
  }
  reduce size = 4096 root = 0
  allreduce size = 64
  alltoall size = 4096
}
)";

TEST(VmLockstep, CollectivesFromMeasuredTables) {
  const auto model = pevpm::parse_model(kCollectives, "collectives");
  EXPECT_GT(check_lockstep(model, 4, collective_table()), 0);
}

TEST(VmLockstep, CollectivesSynthesisedFromPointToPoint) {
  const auto model = pevpm::parse_model(kCollectives, "collectives");
  for (const int procs : {1, 3, 8}) {
    SCOPED_TRACE("procs " + std::to_string(procs));
    const int varied = check_lockstep(model, procs, spread_table());
    if (procs > 1) {
      EXPECT_GT(varied, 0);
    }
  }
}

TEST(VmLockstep, DeadlockIsReportedOnEveryLane) {
  // Rank 3 waits for a message nobody sends, after timed work.
  const auto model = pevpm::parse_model(R"(
loop 2 {
  message isend size = 64 to = (procnum + 1) % numprocs handle = s
  message irecv size = 64 from = (procnum + numprocs - 1) % numprocs handle = r
  wait r
  wait s
}
runon procnum == 3 {
  message recv size = 64 from = 0
}
)",
                                        "deadlock");
  const DistributionTable table = spread_table();
  pevpm::SamplerCells cells{table, nullptr};
  const std::vector<std::uint64_t> seeds{11, 12, 13};
  pevpm::DeliverySampler sampler{cells, {}, seeds};
  const auto lanes = pevpm::simulate_lanes(model, 6, {}, sampler);
  for (const pevpm::SimulationResult& lane : lanes) {
    EXPECT_TRUE(lane.deadlocked);
    EXPECT_EQ(lane.deadlocked_processes, std::vector<int>{3});
  }
  EXPECT_GT(check_lockstep(model, 6, spread_table()), 0);
}

/// The error message a run raises, or "" when it raises none.
template <class Run>
std::string error_of(Run&& run) {
  try {
    run();
  } catch (const pevpm::ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(VmLockstep, MidRunModelErrorFailsTheBatchLikeASoloRun) {
  // Messages flow for two iterations before the third names rank
  // numprocs.
  const auto model = pevpm::parse_model(R"(
loop 3 as it {
  message isend size = 64 to = (procnum + 1) % numprocs handle = s
  message irecv size = 64 from = (procnum + numprocs - 1) % numprocs handle = r
  wait r
  wait s
  runon it == 2 {
    message send size = 64 to = numprocs + procnum
  }
}
)",
                                        "error");
  const DistributionTable table = spread_table();
  pevpm::SamplerCells cells{table, nullptr};
  pevpm::DeliverySampler alone{cells, {}, 5};
  const std::string solo =
      error_of([&] { (void)pevpm::simulate(model, 4, {}, alone); });
  ASSERT_NE(solo.find("out of range"), std::string::npos) << solo;
  for (const int batch : kBatchSizes) {
    pevpm::PredictOptions options;
    options.replications = batch;
    const std::vector<std::uint64_t> seeds = pevpm::replication_seeds(options);
    pevpm::DeliverySampler sampler{cells, {}, seeds};
    EXPECT_EQ(error_of([&] {
                (void)pevpm::simulate_lanes(model, 4, {}, sampler);
              }),
              solo)
        << "batch " << batch;
  }
}

TEST(VmLockstep, LateReceiveErrorFailsOnlyTheLanesThatDrawIt) {
  // The send cost comes only from a scaling law, 1e300 * s * p^12: finite
  // for every send here (64 KiB at contention 1, 64 B at 2) and infinite
  // for the late-receive draw of the 64 KiB message at contention 2. So a
  // replication fails exactly when rank 1's receive finds that message
  // already delivered, which depends on its sampled arrival.
  scaling::ScalingModel law;
  scaling::ScalingModel::Series series;
  for (scaling::NormalForm& track : series.tracks) {
    track.coefficient = 1e300;
    track.size = scaling::AxisTerm{1.0, 0};
    track.procs = scaling::AxisTerm{12.0, 0};
  }
  law.set_series(OpKind::kPtpSender, series);
  DistributionTable table;
  for (const int level : {1, 2}) {
    stats::Histogram oneway{1e-6};
    for (int i = 0; i < 40; ++i) oneway.add((60.0 + i * 37 % 80) * 1e-6);
    table.insert(OpKind::kPtpOneWay, net::Bytes{64}, level,
                 stats::EmpiricalDistribution{oneway});
    table.insert(OpKind::kPtpOneWay, net::Bytes{65536}, level,
                 stats::EmpiricalDistribution{oneway}.scaled(4.0));
  }
  pevpm::SamplerOptions sampler_options;
  sampler_options.scaling = &law;
  pevpm::SamplerCells cells{table, sampler_options.scaling};
  const auto model = pevpm::parse_model(R"(
runon procnum == 0 {
  message send size = 65536 to = 1
  message send size = 64 to = 1
} else {
  serial time = 0.0004
  message recv size = 65536 from = 0
  message recv size = 64 from = 0
}
)",
                                        "late-error");
  int failed = 0;
  int passed = 0;
  for (const int batch : kBatchSizes) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      pevpm::PredictOptions options;
      options.replications = batch;
      options.seed = seed;
      const std::vector<std::uint64_t> seeds =
          pevpm::replication_seeds(options);
      std::string first_error;
      std::vector<pevpm::SimulationResult> solo;
      for (const std::uint64_t lane_seed : seeds) {
        pevpm::DeliverySampler alone{cells, sampler_options, lane_seed};
        const std::string error = error_of([&] {
          solo.push_back(pevpm::simulate(model, 2, {}, alone));
        });
        if (error.empty()) {
          ++passed;
        } else {
          ++failed;
          if (first_error.empty()) first_error = error;
        }
      }
      pevpm::DeliverySampler sampler{cells, sampler_options, seeds};
      std::vector<pevpm::SimulationResult> lanes;
      const std::string error = error_of(
          [&] { lanes = pevpm::simulate_lanes(model, 2, {}, sampler); });
      const std::string at =
          "batch " + std::to_string(batch) + " seed " + std::to_string(seed);
      EXPECT_EQ(error, first_error) << at;
      if (first_error.empty()) {
        ASSERT_EQ(lanes.size(), solo.size()) << at;
        for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
          expect_same(lanes[lane], solo[lane], at);
        }
      }
    }
  }
  // The seeds give both outcomes, so some batches mix them.
  EXPECT_GT(failed, 0);
  EXPECT_GT(passed, 0);
}

TEST(VmLockstep, SimulateWantsOneLane) {
  const auto model = pevpm::parse_model("serial time = 1\n");
  const DistributionTable table = spread_table();
  pevpm::SamplerCells cells{table, nullptr};
  const std::vector<std::uint64_t> seeds{1, 2};
  pevpm::DeliverySampler sampler{cells, {}, seeds};
  EXPECT_THROW((void)pevpm::simulate(model, 2, {}, sampler),
               std::logic_error);
}

TEST(VmLockstep, PredictMatchesReplicationsRunAlone) {
  // 17 replications: every thread count splits them into different,
  // uneven batches, and the summary and detail stay those of the
  // replications run alone, reduced in order.
  const pevpm::Model model = jacobi::looped_model(4);
  const DistributionTable table = spread_table();
  pevpm::PredictOptions options;
  options.replications = 17;
  options.seed = 3;
  std::vector<pevpm::SimulationResult> alone;
  const std::vector<std::uint64_t> seeds = pevpm::replication_seeds(options);
  for (std::size_t rep = 0; rep < seeds.size(); ++rep) {
    alone.push_back(pevpm::run_replication(model, 16, {}, table, options,
                                           static_cast<int>(rep), seeds[rep]));
  }
  const pevpm::Prediction expected =
      pevpm::reduce_replications(std::move(alone));
  for (const int threads : {1, 2, 3, 4, 5}) {
    options.threads = threads;
    const pevpm::Prediction got = pevpm::predict(model, 16, {}, table, options);
    EXPECT_EQ(got.makespan.count(), expected.makespan.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.makespan.mean()),
              std::bit_cast<std::uint64_t>(expected.makespan.mean()))
        << "threads " << threads;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.makespan.stddev()),
              std::bit_cast<std::uint64_t>(expected.makespan.stddev()))
        << "threads " << threads;
    expect_same(got.detail, expected.detail,
                "detail at threads " + std::to_string(threads));
  }
}

}  // namespace
