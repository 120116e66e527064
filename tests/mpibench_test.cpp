// MPIBench: clock synchronisation, benchmark patterns and tables.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/benchmark.h"
#include "mpibench/clocksync.h"
#include "mpibench/table.h"
#include "net/cluster.h"

namespace {

using mpibench::DistributionTable;
using mpibench::OpKind;

mpibench::Options bench_options(int nodes, int ppn, std::uint64_t seed = 9) {
  mpibench::Options opt;
  opt.cluster = net::perseus(nodes);
  opt.procs_per_node = ppn;
  opt.repetitions = 60;
  opt.warmup = 8;
  opt.seed = seed;
  return opt;
}

TEST(ClockSync, RecoversTrueOffsetsToMicroseconds) {
  smpi::Runtime::Options opt;
  opt.cluster = net::perseus(4);
  opt.nprocs = 4;
  opt.seed = 5;
  opt.clock_offset_max_s = 5e-3;  // +-5 ms of raw clock error
  smpi::Runtime rt{opt};
  std::vector<double> estimated(4);
  std::vector<double> spread_before(4);
  std::vector<double> spread_after(4);
  rt.run([&](smpi::Comm& comm) {
    const auto clock = mpibench::SyncedClock::synchronise(comm, 32);
    comm.barrier();
    spread_before[comm.rank()] = comm.wtime();
    spread_after[comm.rank()] = clock.now(comm);
    estimated[comm.rank()] = clock.offset();
  });
  auto spread = [](const std::vector<double>& xs) {
    double lo = xs[0];
    double hi = xs[0];
    for (const double x : xs) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    return hi - lo;
  };
  // Raw clocks disagree by milliseconds; synchronised clocks by < 100 us.
  EXPECT_GT(spread(spread_before), 1e-4);
  EXPECT_LT(spread(spread_after), 1e-4);
  EXPECT_LT(spread(spread_after), spread(spread_before) / 10.0);
}

TEST(ClockSync, DriftEstimationImprovesLongRuns) {
  smpi::Runtime::Options opt;
  opt.cluster = net::perseus(2);
  opt.nprocs = 2;
  opt.seed = 6;
  opt.clock_drift_max = 5e-5;  // strong drift
  smpi::Runtime rt{opt};
  std::vector<double> err_plain(2);
  std::vector<double> err_drift(2);
  rt.run([&](smpi::Comm& comm) {
    const auto plain = mpibench::SyncedClock::synchronise(comm, 32);
    const auto with_drift =
        mpibench::SyncedClock::synchronise_with_drift(comm, 32, 0.5);
    comm.compute(5.0);  // a long quiet period lets drift accumulate
    comm.barrier();
    const double truth = comm.sim_now().to_seconds();
    err_plain[comm.rank()] = std::abs(plain.now(comm) - truth -
                                      (comm.rank() == 0 ? 0.0 : 0.0));
    err_drift[comm.rank()] = std::abs(with_drift.now(comm) - truth);
  });
  // Synchronised clocks estimate rank 0's clock, so compare rank 1's error
  // relative to rank 0's (the global reference is rank 0, not sim time).
  const double rel_plain = std::abs(err_plain[1] - err_plain[0]);
  const double rel_drift = std::abs(err_drift[1] - err_drift[0]);
  EXPECT_LT(rel_drift, rel_plain + 1e-6);
}

TEST(MpiBench, IsendResultHasSaneShape) {
  const auto result = mpibench::run_isend(bench_options(2, 1), net::Bytes{1024});
  EXPECT_EQ(result.messages, 120u);  // 60 reps x 2 directions
  const auto& s = result.oneway.summary();
  EXPECT_GT(s.min(), 0.0);
  EXPECT_GE(s.mean(), s.min());
  EXPECT_GE(s.max(), s.mean());
  // A 1 KB one-way time on simulated Perseus: 150-500 us.
  EXPECT_GT(s.mean(), 100e-6);
  EXPECT_LT(s.mean(), 600e-6);
  EXPECT_GT(result.sender_op.count(), 0u);
  EXPECT_GT(result.sender_hist.total(), 0u);
}

TEST(MpiBench, ContentionRaisesAverageNotMinimum) {
  const auto quiet = mpibench::run_isend(bench_options(2, 1), net::Bytes{1024});
  const auto busy = mpibench::run_isend(bench_options(32, 2), net::Bytes{1024});
  // Average rises with contention; the minimum stays near the quiet floor
  // (the paper's central observation about min vs avg).
  EXPECT_GT(busy.oneway.summary().mean(), quiet.oneway.summary().mean());
  EXPECT_LT(busy.oneway.summary().min(),
            quiet.oneway.summary().mean() * 1.3);
}

TEST(MpiBench, OddProcessCountRejected) {
  EXPECT_THROW((void)mpibench::run_isend(bench_options(3, 1), net::Bytes{64}),
               std::invalid_argument);
}

TEST(MpiBench, CollectivePatternsProduceTimings) {
  const auto barrier = mpibench::run_barrier(bench_options(4, 1));
  EXPECT_EQ(barrier.operations, 240u);  // 60 reps x 4 procs
  EXPECT_GT(barrier.completion.summary().mean(), 0.0);

  const auto bcast = mpibench::run_bcast(bench_options(4, 1), net::Bytes{4096});
  EXPECT_GT(bcast.completion.summary().mean(),
            0.0);
  const auto alltoall = mpibench::run_alltoall(bench_options(4, 1), net::Bytes{1024});
  EXPECT_GT(alltoall.completion.summary().mean(),
            bcast.completion.summary().min());
}

TEST(Table, InsertLookupExact) {
  DistributionTable table;
  table.insert(OpKind::kPtpOneWay, net::Bytes{1024}, 8,
               stats::EmpiricalDistribution::constant(3e-3));
  ASSERT_NE(table.exact(OpKind::kPtpOneWay, net::Bytes{1024}, 8), nullptr);
  EXPECT_EQ(table.exact(OpKind::kPtpOneWay, net::Bytes{1024}, 4), nullptr);
  EXPECT_EQ(table.exact(OpKind::kBarrier, net::Bytes{1024}, 8), nullptr);
  EXPECT_DOUBLE_EQ(table.lookup(OpKind::kPtpOneWay, net::Bytes{1024}, 8).mean(), 3e-3);
}

TEST(Table, LookupInterpolatesAcrossSizeAndContention) {
  DistributionTable table;
  table.insert(OpKind::kPtpOneWay, net::Bytes{1024}, 1,
               stats::EmpiricalDistribution::constant(1e-3));
  table.insert(OpKind::kPtpOneWay, net::Bytes{4096}, 1,
               stats::EmpiricalDistribution::constant(3e-3));
  table.insert(OpKind::kPtpOneWay, net::Bytes{1024}, 16,
               stats::EmpiricalDistribution::constant(5e-3));
  table.insert(OpKind::kPtpOneWay, net::Bytes{4096}, 16,
               stats::EmpiricalDistribution::constant(7e-3));
  // Between sizes at level 1: mean strictly between the endpoints.
  const double mid_size = table.lookup(OpKind::kPtpOneWay, net::Bytes{2048}, 1).mean();
  EXPECT_GT(mid_size, 1e-3);
  EXPECT_LT(mid_size, 3e-3);
  // Between contention levels at one size.
  const double mid_cont = table.lookup(OpKind::kPtpOneWay, net::Bytes{1024}, 4).mean();
  EXPECT_GT(mid_cont, 1e-3);
  EXPECT_LT(mid_cont, 5e-3);
  // Clamping outside the table edges.
  EXPECT_DOUBLE_EQ(table.lookup(OpKind::kPtpOneWay, net::Bytes{100}, 1).mean(), 1e-3);
  EXPECT_DOUBLE_EQ(table.lookup(OpKind::kPtpOneWay, net::Bytes{1<<20}, 64).mean(), 7e-3);
}

TEST(Table, LookupWithoutEntriesThrows) {
  DistributionTable table;
  EXPECT_THROW((void)table.lookup(OpKind::kPtpOneWay, net::Bytes{10}, 1),
               std::out_of_range);
}

TEST(Table, AxesEnumerateInsertions) {
  DistributionTable table;
  table.insert(OpKind::kPtpOneWay, net::Bytes{64}, 1,
               stats::EmpiricalDistribution::constant(1.0));
  table.insert(OpKind::kPtpOneWay, net::Bytes{1024}, 4,
               stats::EmpiricalDistribution::constant(1.0));
  EXPECT_EQ(table.sizes(OpKind::kPtpOneWay),
            (std::vector<net::Bytes>{net::Bytes{64}, net::Bytes{1024}}));
  EXPECT_EQ(table.contentions(OpKind::kPtpOneWay), (std::vector<int>{1, 4}));
  EXPECT_TRUE(table.sizes(OpKind::kBarrier).empty());
}

TEST(Table, SaveLoadRoundTrips) {
  DistributionTable table;
  stats::Histogram h{1e-5};
  h.add(1e-3);
  h.add(2e-3);
  h.add(2e-3);
  table.insert(OpKind::kPtpOneWay, net::Bytes{256}, 2, stats::EmpiricalDistribution{h});
  table.insert(OpKind::kPtpSender, net::Bytes{256}, 2,
               stats::EmpiricalDistribution::constant(5e-5));
  std::stringstream ss;
  table.save(ss);
  const DistributionTable loaded = DistributionTable::load(ss);
  EXPECT_EQ(loaded.size(), 2u);
  // Serialisation keeps bin resolution, not the exact sample extrema, so
  // agreement is to within half a bin width.
  EXPECT_NEAR(loaded.lookup(OpKind::kPtpOneWay, net::Bytes{256}, 2).mean(),
              table.lookup(OpKind::kPtpOneWay, net::Bytes{256}, 2).mean(), 1e-5);
  std::stringstream bad{"not-a-table v9"};
  EXPECT_THROW((void)DistributionTable::load(bad), std::runtime_error);
}

TEST(Table, LoadRejectsUnknownOp) {
  DistributionTable table;
  table.insert(OpKind::kPtpOneWay, net::Bytes{256}, 2,
               stats::EmpiricalDistribution::constant(5e-5));
  std::stringstream ss;
  table.save(ss);
  std::string text = ss.str();
  const std::string key = "\n0 256 2\n";
  ASSERT_NE(text.find(key), std::string::npos);
  text.replace(text.find(key), key.size(), "\n99 256 2\n");
  std::istringstream unknown{text};
  EXPECT_THROW((void)DistributionTable::load(unknown), std::runtime_error);
}

TEST(Table, MeasureIsendTableCoversGrid) {
  mpibench::Options opt = bench_options(2, 1);
  opt.repetitions = 30;
  const std::vector<net::Bytes> sizes{net::Bytes{64}, net::Bytes{1024}};
  const std::vector<mpibench::Config> configs{{2, 1}, {4, 1}};
  const DistributionTable table =
      mpibench::measure_isend_table(opt, sizes, configs);
  // 2 sizes x 2 configs x 2 ops.
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.contentions(OpKind::kPtpOneWay), (std::vector<int>{1, 2}));
  EXPECT_EQ(table.sizes(OpKind::kPtpOneWay),
            (std::vector<net::Bytes>{net::Bytes{64}, net::Bytes{1024}}));
}

}  // namespace
