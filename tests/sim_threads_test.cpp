// Thread-count determinism of the simulator. smpi::Runtime always
// partitions the cluster by switch and --sim-threads N only sets how many
// workers execute the conservative windows, so every table MPIBench emits
// must be byte-identical at every N — including under fault injection and
// for collectives. sim_threads = 0 (one worker, inline) is the reference.
//
// The differential grid below sweeps seeds x topologies (1, 2, 3 and 5
// switches) x fault injection off/on x thread counts, for Isend at
// eager/rendezvous sizes and for barrier, bcast and alltoall;
// MatchesPerseusSeedOneTable pins the 64-node Perseus case whose table
// used to change with the thread count.
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mpibench/benchmark.h"
#include "net/cluster.h"
#include "stats/histogram.h"

namespace {

/// 12 nodes on 4-port switches -> 3 switches, so partitioned runs use
/// three logical processes and every pair in the Isend pattern
/// (i <-> i + P/2) crosses at least one trunk.
mpibench::Options multi_switch_options() {
  mpibench::Options opt;
  opt.cluster = net::perseus(12);
  opt.cluster.ports_per_switch = 4;
  opt.procs_per_node = 1;
  opt.repetitions = 25;
  opt.warmup = 8;
  opt.seed = 97;
  return opt;
}

/// Bin-for-bin equality, which is what byte-identical CSV output means.
/// Compared directly because a lossy run's RTO tail spans seconds of 1 us
/// bins, too many to render as text in a quick test.
void expect_same_histogram(const stats::Histogram& a,
                           const stats::Histogram& b) {
  EXPECT_EQ(a.bin_width(), b.bin_width());
  EXPECT_EQ(a.origin(), b.origin());
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.summary().mean(), b.summary().mean());
  EXPECT_EQ(a.summary().min(), b.summary().min());
  EXPECT_EQ(a.summary().max(), b.summary().max());
  ASSERT_EQ(a.bin_count(), b.bin_count());
  for (std::size_t bin = 0; bin < a.bin_count(); ++bin) {
    ASSERT_EQ(a.count_at(bin), b.count_at(bin)) << "bin " << bin;
  }
}

void expect_identical(const mpibench::PointToPointResult& a,
                      const mpibench::PointToPointResult& b) {
  EXPECT_EQ(a.messages, b.messages);
  expect_same_histogram(a.oneway, b.oneway);
  expect_same_histogram(a.sender_hist, b.sender_hist);
  EXPECT_EQ(a.sender_op.count(), b.sender_op.count());
  EXPECT_EQ(a.sender_op.mean(), b.sender_op.mean());
  EXPECT_EQ(a.tcp_timeouts, b.tcp_timeouts);
  EXPECT_EQ(a.tcp_retransmits, b.tcp_retransmits);
  EXPECT_EQ(a.tcp_fast_retransmits, b.tcp_fast_retransmits);
  EXPECT_EQ(a.link_drops, b.link_drops);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

// ---- differential grid ----------------------------------------------------

/// (switch count, seed).
using GridParam = std::tuple<int, int>;

class SimThreadsDifferential : public ::testing::TestWithParam<GridParam> {};

/// Two ports per switch keeps every run small, and every Isend pair
/// (i <-> i + P/2) of a multi-switch topology crosses at least one trunk.
mpibench::Options grid_options(int switches, int seed) {
  mpibench::Options opt;
  opt.cluster = net::perseus(2 * switches);
  opt.cluster.ports_per_switch = 2;
  opt.procs_per_node = 1;
  opt.repetitions = 4;
  opt.warmup = 1;
  opt.sync_rounds = 4;
  opt.seed = static_cast<std::uint64_t>(seed);
  return opt;
}

TEST_P(SimThreadsDifferential, EveryThreadCountMatchesTheInlineRun) {
  const auto [switches, seed] = GetParam();
  mpibench::Options opt = grid_options(switches, seed);
  ASSERT_EQ(opt.cluster.switch_count(), switches);
  for (const bool faults : {false, true}) {
    opt.cluster.fault.loss_rate = faults ? 0.03 : 0.0;
    opt.cluster.fault.seed = opt.seed;
    // Below and at the eager threshold: eager and rendezvous protocols.
    for (const net::Bytes size :
         {net::Bytes{1024}, opt.cluster.mpi.eager_threshold}) {
      SCOPED_TRACE("faults " + std::to_string(faults) + " size " +
                   std::to_string(size.count()));
      opt.sim_threads = 0;
      const auto reference = mpibench::run_isend(opt, size);
      ASSERT_GT(reference.messages, 0u);
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("sim_threads " + std::to_string(threads));
        opt.sim_threads = threads;
        expect_identical(mpibench::run_isend(opt, size), reference);
      }
    }
  }
}

void expect_identical(const mpibench::CollectiveResult& a,
                      const mpibench::CollectiveResult& b) {
  EXPECT_EQ(a.operations, b.operations);
  expect_same_histogram(a.completion, b.completion);
  EXPECT_EQ(a.tcp_timeouts, b.tcp_timeouts);
  EXPECT_EQ(a.tcp_retransmits, b.tcp_retransmits);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

TEST_P(SimThreadsDifferential, CollectivesMatchTheInlineRun) {
  const auto [switches, seed] = GetParam();
  mpibench::Options opt = grid_options(switches, seed);
  using Collective =
      mpibench::CollectiveResult (*)(const mpibench::Options& options);
  const std::pair<const char*, Collective> collectives[] = {
      {"barrier", [](const mpibench::Options& o) {
         return mpibench::run_barrier(o);
       }},
      {"bcast", [](const mpibench::Options& o) {
         return mpibench::run_bcast(o, net::Bytes{4096});
       }},
      {"alltoall", [](const mpibench::Options& o) {
         return mpibench::run_alltoall(o, net::Bytes{1024});
       }},
  };
  for (const bool faults : {false, true}) {
    opt.cluster.fault.loss_rate = faults ? 0.03 : 0.0;
    opt.cluster.fault.seed = opt.seed;
    for (const auto& [name, run] : collectives) {
      SCOPED_TRACE(std::string{name} + " faults " + std::to_string(faults));
      opt.sim_threads = 0;
      const auto reference = run(opt);
      ASSERT_GT(reference.operations, 0u);
      // 1 worker is the reference's own code path. 2 and 4 split the
      // partitions unevenly, and 4 leaves workers idle on 2 or 3 switches.
      for (const int threads : {2, 4}) {
        SCOPED_TRACE("sim_threads " + std::to_string(threads));
        opt.sim_threads = threads;
        expect_identical(run(opt), reference);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SwitchesAndSeeds, SimThreadsDifferential,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Range(1, 11)),
    [](const ::testing::TestParamInfo<GridParam>& param_info) {
      return "sw" + std::to_string(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(SimThreads, FaultGridActuallyLosesPackets) {
  // Guards the grid's fault half against silently testing nothing.
  mpibench::Options opt = grid_options(3, 1);
  opt.cluster.fault.loss_rate = 0.03;
  opt.cluster.fault.seed = opt.seed;
  EXPECT_GT(mpibench::run_isend(opt, net::Bytes{1024}).faults_injected, 0u);
}

TEST(SimThreads, MatchesPerseusSeedOneTable) {
  // `mpibench --nodes 64 --sizes 1024 --reps 20 --seed 1 --table T`, the
  // 64-node (three-switch) cell: a single engine over all switches (the
  // old --sim-threads 0) broke same-time ties on trunk.0 differently from
  // the partitioned engine here, shifting one-way samples by a bin.
  mpibench::Options opt;
  opt.cluster = net::perseus(64);
  opt.repetitions = 20;
  opt.warmup = 8;
  opt.seed = 1;
  const std::vector<net::Bytes> sizes{net::Bytes{1024}};
  const std::vector<mpibench::Config> configs{{64, 1}};
  std::string tables[2];
  for (const int threads : {0, 2}) {
    opt.sim_threads = threads;
    std::ostringstream out;
    mpibench::measure_isend_table(opt, sizes, configs, 1).save(out);
    tables[threads / 2] = out.str();
  }
  EXPECT_EQ(tables[1], tables[0]);
}

// ---- focused cases -------------------------------------------------------

TEST(SimThreads, EngineCountersMatchAndHeapStaysBounded) {
  // One 64-node Perseus cell (three partitions). Every ACK disarms a TCP
  // retransmission timer; the engines purge those cancelled entries, so
  // the heaps stay within twice the live events plus each engine's fixed
  // slack (64) instead of growing with every timer ever armed.
  mpibench::Options opt;
  opt.cluster = net::perseus(64);
  opt.repetitions = 4;
  opt.warmup = 2;
  opt.seed = 1;
  const int partitions = opt.cluster.switch_count();
  opt.sim_threads = 0;
  const auto one = mpibench::run_isend(opt, net::Bytes{1024});
  opt.sim_threads = 2;
  const auto two = mpibench::run_isend(opt, net::Bytes{1024});
  EXPECT_GT(one.events_cancelled, 0u);
  EXPECT_LE(one.heap_high_water,
            2 * one.pending_high_water + 64u * partitions);
  EXPECT_EQ(one.events_cancelled, two.events_cancelled);
  EXPECT_EQ(one.heap_high_water, two.heap_high_water);
  EXPECT_EQ(one.pending_high_water, two.pending_high_water);
}

TEST(SimThreads, IsendIsBitIdenticalAtEveryThreadCount) {
  mpibench::Options opt = multi_switch_options();
  ASSERT_EQ(opt.cluster.switch_count(), 3);
  for (const net::Bytes size : {net::Bytes{256}, net::Bytes{16384}}) {
    SCOPED_TRACE("size " + std::to_string(size.count()));
    opt.sim_threads = 0;
    const auto reference = mpibench::run_isend(opt, size);
    ASSERT_GT(reference.messages, 0u);
    // 2 and 4 exercise both fewer and more workers than partitions (4 > 3
    // leaves one idle).
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("sim_threads " + std::to_string(threads));
      opt.sim_threads = threads;
      expect_identical(mpibench::run_isend(opt, size), reference);
    }
  }
}

TEST(SimThreads, FaultInjectionStaysDeterministic) {
  // Loss forces retransmissions and RTO timers — the paths where an
  // execution-order-dependent engine would diverge first. The fault seeder
  // runs in construction order, which is independent of the thread count.
  mpibench::Options opt = multi_switch_options();
  opt.cluster.fault.loss_rate = 0.02;
  opt.cluster.fault.seed = opt.seed;
  opt.sim_threads = 0;
  const auto reference = mpibench::run_isend(opt, net::Bytes{8192});
  ASSERT_GT(reference.faults_injected, 0u) << "fault path not exercised";
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("sim_threads " + std::to_string(threads));
    opt.sim_threads = threads;
    expect_identical(mpibench::run_isend(opt, net::Bytes{8192}), reference);
  }
}

TEST(SimThreads, AlltoallIsBitIdentical) {
  // All-to-all saturates every trunk in both directions at once — the
  // densest cross-partition traffic any benchmark generates.
  mpibench::Options opt = multi_switch_options();
  opt.repetitions = 10;
  opt.warmup = 2;
  opt.sim_threads = 0;
  const auto reference = mpibench::run_alltoall(opt, net::Bytes{1024});
  ASSERT_GT(reference.operations, 0u);
  opt.sim_threads = 3;
  const auto threaded = mpibench::run_alltoall(opt, net::Bytes{1024});
  EXPECT_EQ(threaded.operations, reference.operations);
  EXPECT_EQ(threaded.completion.to_csv(), reference.completion.to_csv());
  EXPECT_EQ(threaded.tcp_retransmits, reference.tcp_retransmits);
  EXPECT_EQ(threaded.tcp_timeouts, reference.tcp_timeouts);
}

TEST(SimThreads, TableAssemblyComposesWithJobFanOut) {
  // sim_threads (parallelism inside one simulation) and jobs (parallelism
  // across independent sweep cells) are orthogonal; combined they must
  // still reproduce the inline single-job table byte for byte.
  mpibench::Options opt = multi_switch_options();
  const std::vector<net::Bytes> sizes{net::Bytes{512}, net::Bytes{4096}};
  const std::vector<mpibench::Config> configs{{12, 1}};
  opt.sim_threads = 0;
  const auto reference = mpibench::measure_isend_table(opt, sizes, configs, 1);
  opt.sim_threads = 3;
  const auto combined = mpibench::measure_isend_table(opt, sizes, configs, 2);
  std::ostringstream want;
  std::ostringstream got;
  reference.save(want);
  combined.save(got);
  EXPECT_EQ(got.str(), want.str());
}

TEST(SimThreads, SmpAndMultiRankNodesStayDeterministic) {
  // Two ranks per node shares NIC links within a partition and keeps the
  // SMP fast path (same-node sends never cross a partition boundary).
  mpibench::Options opt = multi_switch_options();
  opt.procs_per_node = 2;
  opt.repetitions = 15;
  opt.sim_threads = 0;
  const auto reference = mpibench::run_isend(opt, net::Bytes{2048});
  ASSERT_GT(reference.messages, 0u);
  opt.sim_threads = 2;
  expect_identical(mpibench::run_isend(opt, net::Bytes{2048}), reference);
}

}  // namespace
