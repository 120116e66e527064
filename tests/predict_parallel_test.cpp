// The parallel Monte-Carlo replication engine: the parallel_for fan-out and
// the determinism contract of pevpm::predict (fixed seed => bit-identical
// makespan summary at any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"
#include "core/parse.h"
#include "core/predict.h"
#include "core/sampler.h"
#include "mpibench/table.h"
#include "stats/empirical.h"
#include "stats/rng.h"

namespace {

TEST(ResolveThreads, PositivePassesThrough) {
  EXPECT_EQ(pevpm::resolve_threads(1), 1u);
  EXPECT_EQ(pevpm::resolve_threads(7), 7u);
}

TEST(ResolveThreads, AutoIsAtLeastOne) {
  EXPECT_GE(pevpm::resolve_threads(0), 1u);
  EXPECT_GE(pevpm::resolve_threads(-3), 1u);
}

TEST(ParallelFor, VisitsEachIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<int> visits(257, 0);
    pevpm::parallel_for(257, threads,
                        [&visits](int i) { ++visits[i]; });
    for (const int v : visits) EXPECT_EQ(v, 1);
  }
}

TEST(ParallelFor, EmptyAndNegativeRangesAreNoOps) {
  pevpm::parallel_for(0, 4, [](int) { FAIL() << "must not run"; });
  pevpm::parallel_for(-5, 4, [](int) { FAIL() << "must not run"; });
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      pevpm::parallel_for(64, 4,
                          [](int i) {
                            if (i == 13) throw std::runtime_error{"boom"};
                          }),
      std::runtime_error);
}

mpibench::DistributionTable synthetic_table() {
  mpibench::DistributionTable table;
  stats::Rng rng{42};
  for (const int contention : {2, 8}) {
    std::vector<double> xs;
    xs.reserve(200);
    for (int i = 0; i < 200; ++i) {
      xs.push_back(20e-6 * contention / 2 + 10e-6 * rng.uniform());
    }
    table.insert(mpibench::OpKind::kPtpOneWay, net::Bytes{1024}, contention,
                 stats::EmpiricalDistribution::from_samples(xs));
  }
  return table;
}

pevpm::Model chain_model() {
  const char* text = R"(
loop 20 {
  runon procnum % 2 == 0 {
    runon procnum != numprocs - 1 {
      message send size = 1024 to = procnum + 1
      message recv size = 1024 from = procnum + 1
    }
  } else {
    message recv size = 1024 from = procnum - 1
    message send size = 1024 to = procnum - 1
  }
  serial time = 0.001
}
)";
  return pevpm::parse_model(text, "chain");
}

TEST(PredictParallel, BitIdenticalSummaryAtAnyThreadCount) {
  const auto table = synthetic_table();
  const auto model = chain_model();
  pevpm::PredictOptions opts;
  opts.replications = 33;  // not divisible by any worker count below
  opts.seed = 777;
  opts.threads = 1;
  const auto serial = pevpm::predict(model, 8, {}, table, opts);
  ASSERT_EQ(serial.makespan.count(), 33u);
  for (const int threads : {2, 8}) {
    opts.threads = threads;
    const auto parallel = pevpm::predict(model, 8, {}, table, opts);
    // Bit-identical, not approximately equal: the reduction order is fixed.
    EXPECT_EQ(parallel.makespan.count(), serial.makespan.count());
    EXPECT_EQ(parallel.makespan.mean(), serial.makespan.mean());
    EXPECT_EQ(parallel.makespan.stddev(), serial.makespan.stddev());
    EXPECT_EQ(parallel.makespan.min(), serial.makespan.min());
    EXPECT_EQ(parallel.makespan.max(), serial.makespan.max());
    EXPECT_EQ(parallel.deadlocked, serial.deadlocked);
  }
}

TEST(PredictParallel, DetailIsTheLastSeededReplication) {
  const auto table = synthetic_table();
  const auto model = chain_model();
  pevpm::PredictOptions opts;
  opts.replications = 17;
  opts.seed = 909;
  opts.threads = 1;
  const auto serial = pevpm::predict(model, 6, {}, table, opts);
  for (const int threads : {2, 8}) {
    opts.threads = threads;
    const auto parallel = pevpm::predict(model, 6, {}, table, opts);
    EXPECT_EQ(parallel.detail.makespan, serial.detail.makespan);
    EXPECT_EQ(parallel.detail.messages, serial.detail.messages);
  }
}

TEST(PredictParallel, AutoThreadsMatchesSerialResult) {
  const auto table = synthetic_table();
  const auto model = chain_model();
  pevpm::PredictOptions opts;
  opts.replications = 12;
  opts.seed = 31337;
  opts.threads = 1;
  const auto serial = pevpm::predict(model, 4, {}, table, opts);
  opts.threads = 0;  // hardware_concurrency
  const auto parallel = pevpm::predict(model, 4, {}, table, opts);
  EXPECT_EQ(parallel.makespan.mean(), serial.makespan.mean());
  EXPECT_EQ(parallel.makespan.stddev(), serial.makespan.stddev());
}

// Regression for the DeliverySampler last-cell memo: it used to be a plain
// uint32_t, so two warm readers racing through cell() tripped TSan (and
// could, in principle, publish a torn index). The memo is now atomic and
// key-validated; this test exercises the documented concurrent-read
// contract — warm sampler, deterministic kAverage mode, many threads
// alternating keys so the memo thrashes — and must run clean under TSan.
TEST(SamplerConcurrency, WarmAverageModeReadersShareTheMemo) {
  mpibench::DistributionTable table;
  const std::vector<net::Bytes> sizes{net::Bytes{64}, net::Bytes{1024},
                                      net::Bytes{65536}};
  for (const net::Bytes bytes : sizes) {
    table.insert(mpibench::OpKind::kPtpOneWay, bytes, 2,
                 stats::EmpiricalDistribution::constant(
                     1e-6 * (bytes.to_double() + 1)));
  }
  pevpm::SamplerOptions options;
  options.mode = pevpm::PredictionMode::kAverage;
  options.contention = pevpm::ContentionSource::kFixed;
  options.fixed_contention = 2;
  pevpm::DeliverySampler sampler{table, options, 1};

  // Warm every key single-threaded: after this, kAverage draws touch no
  // state but the atomic memo.
  std::vector<double> expected;
  for (const net::Bytes bytes : sizes) {
    expected.push_back(sampler.delivery_seconds(bytes, 0));
  }

  std::atomic<int> mismatches{0};
  pevpm::parallel_for(8, 8, [&sampler, &sizes, &expected,
                             &mismatches](int worker) {
    // Each worker starts on a different key so the shared memo is
    // overwritten constantly from several threads at once.
    for (int i = 0; i < 5000; ++i) {
      const std::size_t k = (static_cast<std::size_t>(worker) + i) % 3;
      if (sampler.delivery_seconds(sizes[k], 0) != expected[k]) {
        ++mismatches;
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PredictParallel, DeadlockDetectedAcrossWorkers) {
  const auto table = synthetic_table();
  // Rank 0 waits for a message nobody sends.
  const char* text = R"(
runon procnum == 0 {
  message recv size = 1024 from = 1
}
)";
  const auto model = pevpm::parse_model(text, "stuck");
  pevpm::PredictOptions opts;
  opts.replications = 8;
  opts.threads = 4;
  const auto prediction = pevpm::predict(model, 2, {}, table, opts);
  EXPECT_TRUE(prediction.deadlocked);
  EXPECT_TRUE(prediction.detail.deadlocked);
}

}  // namespace
