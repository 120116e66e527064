// Pinned output digests for the MPIBench Isend sweep.
//
// Every table and figure comes from mpibench::run_isend_sweep, and the
// event queue, link and forwarding layers underneath it are tuned for
// speed under one rule: the simulated schedule, and so every output byte,
// must not change. This test holds that rule against committed digests
// rather than against a second implementation. Most cases run a 64-node
// Perseus sweep (three switch partitions) and hash every field of every
// result plus the distribution-table text the CLI would save; the expected
// values were recorded when the test was added. A change that moves one of
// them changes simulator output and has to say so.
//
// Cases: 1 KiB and 16 KiB at seeds 1-3, both eager (MPICH sends a message
// of up to eager_threshold = 16 KiB eagerly); 16 KiB + 1 and 64 KiB at
// seeds 1-3, both rendezvous (RTS, CTS, then data); 64 KiB on 32 nodes x 2
// processes; bcast of 64 KiB and alltoall of 32 KiB blocks on 16 nodes,
// whose collectives pass rendezvous messages; 64 KiB with 1 % injected
// loss, where TCP retransmission timers fire as well as being cancelled
// by ACKs; and 1 KiB alone at seed 1.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "digest.h"
#include "mpibench/benchmark.h"
#include "mpibench/table.h"
#include "net/cluster.h"
#include "stats/empirical.h"

namespace {

using testdigest::Digest;

mpibench::Options perseus64(std::uint64_t seed) {
  mpibench::Options opt;
  opt.cluster = net::perseus(64);
  opt.repetitions = 8;
  opt.warmup = 8;
  opt.seed = seed;
  return opt;
}

/// Hashes every result field plus the table that measure_isend_table
/// would assemble from the same cells.
std::string digest_of(
    const mpibench::Options& opt,
    const std::vector<mpibench::PointToPointResult>& results) {
  Digest digest;
  mpibench::DistributionTable table;
  const int contention = opt.nprocs() / 2;
  for (const mpibench::PointToPointResult& result : results) {
    digest.add(result.size.count());
    digest.add(result.messages);
    digest.add(result.oneway);
    digest.add(result.sender_hist);
    digest.add(result.sender_op);
    digest.add(result.tcp_timeouts);
    digest.add(result.tcp_retransmits);
    digest.add(result.tcp_fast_retransmits);
    digest.add(result.link_drops);
    digest.add(result.faults_injected);
    table.insert(mpibench::OpKind::kPtpOneWay, result.size, contention,
                 result.distribution());
    table.insert(mpibench::OpKind::kPtpSender, result.size, contention,
                 stats::EmpiricalDistribution{result.sender_hist});
  }
  std::ostringstream text;
  table.save(text);
  digest.add(text.str());
  return digest.hex();
}

std::string sweep_digest(const mpibench::Options& opt,
                         const std::vector<net::Bytes>& sizes) {
  return digest_of(opt, mpibench::run_isend_sweep(opt, sizes, 1));
}

/// 1 KiB and the eager threshold itself: both go eagerly.
const std::vector<net::Bytes> kEagerSizes{net::Bytes{1024},
                                          net::Bytes{16384}};

/// One byte past the eager threshold, and 64 KiB: both go by rendezvous.
const std::vector<net::Bytes> kRendezvousSizes{net::Bytes{16385},
                                               net::Bytes{65536}};

TEST(OutputDigest, PerseusSeedsOneToThree) {
  const char* const expected[] = {"ca40f1645e223598", "6076031183fe7282",
                                  "6a588ffe162300d6"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(sweep_digest(perseus64(seed), kEagerSizes),
              expected[seed - 1]);
  }
}

TEST(OutputDigest, RendezvousSeedsOneToThree) {
  const char* const expected[] = {"0f987e81894c90b6", "cd6b90c400af107c",
                                  "b2dfd23ec35223bc"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(sweep_digest(perseus64(seed), kRendezvousSizes),
              expected[seed - 1]);
  }
}

TEST(OutputDigest, RendezvousTwoRanksPerNode) {
  // Two ranks share each node and its NIC, so each NIC carries two
  // rendezvous streams at once.
  mpibench::Options opt = perseus64(1);
  opt.cluster = net::perseus(32);
  opt.procs_per_node = 2;
  const std::vector<net::Bytes> sizes{net::Bytes{65536}};
  EXPECT_EQ(sweep_digest(opt, sizes), "8067f728469644ba");
}

std::string collective_digest(const mpibench::CollectiveResult& result) {
  Digest digest;
  digest.add(result.size.count());
  digest.add(result.operations);
  digest.add(result.completion);
  digest.add(result.tcp_timeouts);
  digest.add(result.tcp_retransmits);
  digest.add(result.faults_injected);
  return digest.hex();
}

TEST(OutputDigest, RendezvousCollectives) {
  mpibench::Options opt = perseus64(1);
  opt.cluster = net::perseus(16);
  EXPECT_EQ(collective_digest(mpibench::run_bcast(opt, net::Bytes{65536})),
            "841605d80854a193");
  EXPECT_EQ(
      collective_digest(mpibench::run_alltoall(opt, net::Bytes{32768})),
      "816443f621ccd8f6");
}

TEST(OutputDigest, LossyRunWithRetransmissionTimeouts) {
  mpibench::Options opt = perseus64(1);
  opt.repetitions = 4;
  opt.cluster.fault.loss_rate = 0.01;
  opt.cluster.fault.seed = 1;
  const std::vector<net::Bytes> sizes{net::Bytes{65536}};
  const auto results = mpibench::run_isend_sweep(opt, sizes, 1);
  // Guards the case against silently testing nothing: timers must both be
  // cancelled (every fresh ACK) and expire.
  ASSERT_GT(results[0].tcp_timeouts, 0u);
  EXPECT_EQ(digest_of(opt, results), "046c428f2e606558");
}

TEST(OutputDigest, TwoSimulationWorkersMatchOne) {
  // Recorded when a second simulation worker still existed and had to
  // reproduce this digest; the one remaining worker keeps it.
  const std::vector<net::Bytes> sizes{net::Bytes{1024}};
  EXPECT_EQ(sweep_digest(perseus64(1), sizes), "01be1af286e9026a");
}

}  // namespace
