// Pinned output digests for the MPIBench Isend sweep.
//
// Every table and figure comes from mpibench::run_isend_sweep, and the
// event queue, link and forwarding layers underneath it are tuned for
// speed under one rule: the simulated schedule, and so every output byte,
// must not change. This test holds that rule against committed digests
// rather than against a second implementation. Each case runs a 64-node
// Perseus sweep (three switch partitions) and hashes every field of every
// result plus the distribution-table text the CLI would save; the expected
// values were recorded when the test was added. A change that moves one of
// them changes simulator output and has to say so.
//
// Cases: 1 KiB (eager) and 16 KiB (rendezvous) at seeds 1-3; 64 KiB with
// 1 % injected loss, where TCP retransmission timers fire as well as being
// cancelled by ACKs; and 1 KiB alone at seed 1.
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

const std::vector<net::Bytes> kEagerAndRendezvous{net::Bytes{1024},
                                                  net::Bytes{16384}};

TEST(OutputDigest, PerseusSeedsOneToThree) {
  const char* const expected[] = {"ca40f1645e223598", "6076031183fe7282",
                                  "6a588ffe162300d6"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(sweep_digest(perseus64(seed), kEagerAndRendezvous),
              expected[seed - 1]);
  }
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
