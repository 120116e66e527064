// Pinned output of the switch-partitioned simulator. smpi::Runtime always
// partitions the cluster by switch and runs every partition on one event
// heap, so every table MPIBench emits is a pure function of its options.
// These cases used to compare runs at several worker counts; the threaded
// window loop is gone, so each now asserts a digest recorded at the last
// commit that still had it (whose runs at every worker count agreed with
// these values). A change that moves one changes simulator output.
//
// The grid below sweeps seeds x topologies (1, 2, 3 and 5 switches) x
// fault injection off/on, for Isend at two eager sizes (1 KiB and the
// eager threshold itself, the largest eager message) and for barrier,
// bcast and alltoall; MatchesPerseusSeedOneTable pins the 64-node
// Perseus table that once changed with the worker count.
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "digest.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace {

using testdigest::Digest;

/// 12 nodes on 4-port switches -> 3 switches, so runs use three logical
/// processes and every pair in the Isend pattern (i <-> i + P/2) crosses
/// at least one trunk.
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

/// Every field a byte-identical CSV or table depends on. Histograms are
/// hashed bin for bin because a lossy run's RTO tail spans seconds of 1 us
/// bins, too many to render as text in a quick test.
void add(Digest& digest, const mpibench::PointToPointResult& result) {
  digest.add(result.messages);
  digest.add(result.oneway);
  digest.add(result.sender_hist);
  digest.add(result.sender_op);
  digest.add(result.tcp_timeouts);
  digest.add(result.tcp_retransmits);
  digest.add(result.tcp_fast_retransmits);
  digest.add(result.link_drops);
  digest.add(result.faults_injected);
}

void add(Digest& digest, const mpibench::CollectiveResult& result) {
  digest.add(result.operations);
  digest.add(result.completion);
  digest.add(result.tcp_timeouts);
  digest.add(result.tcp_retransmits);
  digest.add(result.faults_injected);
}

template <typename Result>
std::string digest_of(const Result& result) {
  Digest digest;
  add(digest, result);
  return digest.hex();
}

// ---- pinned grid ----------------------------------------------------------

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

/// One row per switch count (1, 2, 3, 5), one digest per seed 1-10.
using GridDigests = const char* const[4][10];

const char* expected_digest(const GridDigests& table, int switches,
                            int seed) {
  const int row = switches == 5 ? 3 : switches - 1;
  return table[row][seed - 1];
}

// Isend: faults off/on x 1 KiB and the eager threshold (both eager: a
// message of exactly eager_threshold bytes is still sent eagerly), hashed
// in that order.
GridDigests kIsendDigests = {
    {"f31146751182a4ca", "e3e8fab571254a78", "3770d55adb1658da",
     "787443522ed2a287", "393a0113844984f2", "81cd715090a4a9cc",
     "e7d744b941691f9a", "c8e9ae758499f407", "ca0ec32a6af18d72",
     "0c475c6413339e6d"},
    {"45b6cd3289cd280e", "76f63f1048b9f4e9", "06b787f66441a8a6",
     "1c26c94074ee4f77", "ef6e1b143f48091f", "3d28336fb333ee50",
     "50f7a57664c3162f", "ddf04b9753bd10fb", "7dec96aee40833f8",
     "e57e34118e485b4e"},
    {"f5e4f7b9b9098456", "08400f8d1e8cb4ae", "ea2cd53a4394290f",
     "5baaef51840cabea", "d9970d18f9d8db6c", "63ceee9255033187",
     "39e0c773ba16272e", "b5d48ce267699298", "80501dc5f8a9ab45",
     "f3c23881846c0184"},
    {"c87020a018df39fb", "2fe46d64a107d246", "d2c4ac997a935730",
     "21f993341f804af8", "6bef2ab5e02ae953", "073f841d432e121b",
     "010318dd6b639985", "a74cdee359b3a405", "d7d4a069f41f7522",
     "e00424384cff2bb9"},
};

// Collectives: faults off/on x barrier, bcast 4 KiB, alltoall 1 KiB.
GridDigests kCollectiveDigests = {
    {"4a9e530e98409944", "4e40444ef6af1250", "7ab13d5aaf1cd389",
     "d48e861975aab6af", "45277c9ffbb3c046", "60a6fca066391db1",
     "8dc77fc3c1711ed9", "d742f06fe210910d", "e1efb0f5672aba50",
     "3d42574c7bef0a9a"},
    {"9a5c6c8af66304da", "9b8fcaa08f2788c0", "972b48eac4d69ad0",
     "d8dbc837d63cd071", "b9752a971135b968", "13a8c1436d5cfd1d",
     "0b556855a231214e", "943dcd3f4b5625e5", "18b6d079751cfcd1",
     "860c99093ae4c3c2"},
    {"cfee7e00e77aff06", "7f35a8928387d05e", "43133de14ad6f9ef",
     "e08bd89dd466f1ef", "c2cb3ff579d2a700", "2c9963e9e88bebcc",
     "7f0abd98bc946a9d", "5e31deb14df0c166", "3791158ffa776dce",
     "515791afbc6d5e25"},
    {"8979047e1e577326", "23e28656d3046bb1", "8d53ced3f6409e91",
     "97833d5f99d88064", "47aba8e7e970000c", "a3a8cadd08aa1620",
     "99409c561aae5a54", "c56eaa3ac51a6105", "9d1257bbf43c9d66",
     "791c48083cb9c748"},
};

TEST_P(SimThreadsDifferential, EveryThreadCountMatchesTheInlineRun) {
  const auto [switches, seed] = GetParam();
  mpibench::Options opt = grid_options(switches, seed);
  ASSERT_EQ(opt.cluster.switch_count(), switches);
  Digest digest;
  for (const bool faults : {false, true}) {
    opt.cluster.fault.loss_rate = faults ? 0.03 : 0.0;
    opt.cluster.fault.seed = opt.seed;
    for (const net::Bytes size :
         {net::Bytes{1024}, opt.cluster.mpi.eager_threshold}) {
      const auto result = mpibench::run_isend(opt, size);
      ASSERT_GT(result.messages, 0u);
      add(digest, result);
    }
  }
  EXPECT_EQ(digest.hex(), expected_digest(kIsendDigests, switches, seed));
}

TEST_P(SimThreadsDifferential, CollectivesMatchTheInlineRun) {
  const auto [switches, seed] = GetParam();
  mpibench::Options opt = grid_options(switches, seed);
  using Collective =
      mpibench::CollectiveResult (*)(const mpibench::Options& options);
  const Collective collectives[] = {
      [](const mpibench::Options& o) { return mpibench::run_barrier(o); },
      [](const mpibench::Options& o) {
        return mpibench::run_bcast(o, net::Bytes{4096});
      },
      [](const mpibench::Options& o) {
        return mpibench::run_alltoall(o, net::Bytes{1024});
      },
  };
  Digest digest;
  for (const bool faults : {false, true}) {
    opt.cluster.fault.loss_rate = faults ? 0.03 : 0.0;
    opt.cluster.fault.seed = opt.seed;
    for (const Collective run : collectives) {
      const auto result = run(opt);
      ASSERT_GT(result.operations, 0u);
      add(digest, result);
    }
  }
  EXPECT_EQ(digest.hex(),
            expected_digest(kCollectiveDigests, switches, seed));
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
  // 64-node (three-switch) cell: a single engine over all switches broke
  // same-time ties on trunk.0 differently from the partitioned engine,
  // shifting one-way samples by a bin.
  mpibench::Options opt;
  opt.cluster = net::perseus(64);
  opt.repetitions = 20;
  opt.warmup = 8;
  opt.seed = 1;
  const std::vector<net::Bytes> sizes{net::Bytes{1024}};
  const std::vector<mpibench::Config> configs{{64, 1}};
  std::ostringstream out;
  mpibench::measure_isend_table(opt, sizes, configs, 1).save(out);
  Digest digest;
  digest.add(out.str());
  EXPECT_EQ(digest.hex(), "7128d20813748b67");
}

// ---- focused cases -------------------------------------------------------

TEST(SimThreads, EngineCountersMatchAndHeapStaysBounded) {
  // One 64-node Perseus cell (three partitions on one engine). Every ACK
  // disarms a TCP retransmission timer; the engine purges those cancelled
  // entries, so the heap stays within twice the live events plus the fixed
  // slack (64) instead of growing with every timer ever armed.
  mpibench::Options opt;
  opt.cluster = net::perseus(64);
  opt.repetitions = 4;
  opt.warmup = 2;
  opt.seed = 1;
  ASSERT_EQ(opt.cluster.switch_count(), 3);
  const auto result = mpibench::run_isend(opt, net::Bytes{1024});
  EXPECT_GT(result.events_cancelled, 0u);
  EXPECT_LE(result.heap_high_water, 2 * result.pending_high_water + 64u);
  // The counters are deterministic; these were recorded with the output.
  // The high-water marks are one heap's peaks (they were sums of
  // per-partition peaks while each partition had its own engine).
  EXPECT_EQ(result.events_cancelled, 5409u);
  EXPECT_EQ(result.heap_high_water, 341u);
  EXPECT_EQ(result.pending_high_water, 154u);
}

TEST(SimThreads, ResumeCountIsPinnedAndEqualAcrossJobs) {
  // Rank hand-offs (des::Process resumes summed over partitions) are a
  // deterministic count: a cell's value must not depend on how many jobs
  // the sweep fans out over.
  const mpibench::Options opt = multi_switch_options();
  const std::vector<net::Bytes> sizes{net::Bytes{256}, net::Bytes{1024},
                                      net::Bytes{4096}, net::Bytes{16384}};
  const auto inline_run = mpibench::run_isend_sweep(opt, sizes, 1);
  const auto fanned = mpibench::run_isend_sweep(opt, sizes, 4);
  ASSERT_EQ(inline_run.size(), sizes.size());
  ASSERT_EQ(fanned.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SCOPED_TRACE("size " + std::to_string(sizes[i].count()));
    EXPECT_GT(inline_run[i].resumes, 0u);
    EXPECT_EQ(fanned[i].resumes, inline_run[i].resumes);
  }
  // The 1 KiB cell, recorded with the output.
  EXPECT_EQ(inline_run[1].resumes, 2446u);
}

TEST(SimThreads, IsendIsBitIdenticalAtEveryThreadCount) {
  mpibench::Options opt = multi_switch_options();
  ASSERT_EQ(opt.cluster.switch_count(), 3);
  const char* const expected[] = {"63e8adae4a71f864", "fdf538ea44c11cc2"};
  int i = 0;
  for (const net::Bytes size : {net::Bytes{256}, net::Bytes{16384}}) {
    SCOPED_TRACE("size " + std::to_string(size.count()));
    const auto result = mpibench::run_isend(opt, size);
    ASSERT_GT(result.messages, 0u);
    EXPECT_EQ(digest_of(result), expected[i++]);
  }
}

TEST(SimThreads, FaultInjectionStaysDeterministic) {
  // Loss forces retransmissions and RTO timers — the paths where an
  // execution-order-dependent engine would diverge first.
  mpibench::Options opt = multi_switch_options();
  opt.cluster.fault.loss_rate = 0.02;
  opt.cluster.fault.seed = opt.seed;
  const auto result = mpibench::run_isend(opt, net::Bytes{8192});
  ASSERT_GT(result.faults_injected, 0u) << "fault path not exercised";
  EXPECT_EQ(digest_of(result), "309e8eedb00d7dbb");
}

TEST(SimThreads, AlltoallIsBitIdentical) {
  // All-to-all saturates every trunk in both directions at once — the
  // densest cross-partition traffic any benchmark generates.
  mpibench::Options opt = multi_switch_options();
  opt.repetitions = 10;
  opt.warmup = 2;
  const auto result = mpibench::run_alltoall(opt, net::Bytes{1024});
  ASSERT_GT(result.operations, 0u);
  EXPECT_EQ(digest_of(result), "d318c29606ea1fcd");
}

TEST(SimThreads, TableAssemblyComposesWithJobFanOut) {
  // Cells fanned out over jobs run on independent simulator instances, so
  // the assembled table must match the inline single-job one byte for byte.
  mpibench::Options opt = multi_switch_options();
  const std::vector<net::Bytes> sizes{net::Bytes{512}, net::Bytes{4096}};
  const std::vector<mpibench::Config> configs{{12, 1}};
  const auto reference = mpibench::measure_isend_table(opt, sizes, configs, 1);
  const auto fanned = mpibench::measure_isend_table(opt, sizes, configs, 2);
  std::ostringstream want;
  std::ostringstream got;
  reference.save(want);
  fanned.save(got);
  EXPECT_EQ(got.str(), want.str());
}

TEST(SimThreads, SmpAndMultiRankNodesStayDeterministic) {
  // Two ranks per node shares NIC links within a partition and keeps the
  // SMP fast path (same-node sends never cross a partition boundary).
  mpibench::Options opt = multi_switch_options();
  opt.procs_per_node = 2;
  opt.repetitions = 15;
  const auto result = mpibench::run_isend(opt, net::Bytes{2048});
  ASSERT_GT(result.messages, 0u);
  EXPECT_EQ(digest_of(result), "57523f9e7eee20c9");
}

}  // namespace
