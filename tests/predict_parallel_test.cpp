// The parallel Monte-Carlo replication engine: the parallel_for fan-out and
// the determinism contract of pevpm::predict (fixed seed => bit-identical
// makespan summary at any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
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

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
  // Index 1 throws only after index 2 has, so the first exception in wall
  // time is index 2's; the serial loop would have thrown index 1's.
  std::atomic<bool> second_threw{false};
  try {
    pevpm::parallel_for(3, 2, [&second_threw](int i) {
      if (i == 1) {
        while (!second_threw.load()) std::this_thread::yield();
        // Gives index 2's exception time to be captured first.
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
        throw std::runtime_error{"index 1"};
      }
      if (i == 2) {
        second_threw = true;
        throw std::runtime_error{"index 2"};
      }
    });
    FAIL() << "parallel_for did not throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "index 1");
  }
}

TEST(BatchLanes, KeepsEveryThreadBusyUpToMaxLanes) {
  EXPECT_EQ(pevpm::batch_lanes(16, 2), 8);
  EXPECT_EQ(pevpm::batch_lanes(17, 3), 6);  // batches of 6, 6 and 5
  EXPECT_EQ(pevpm::batch_lanes(17, 1), pevpm::kMaxLanes);
  EXPECT_EQ(pevpm::batch_lanes(1000, 4), pevpm::kMaxLanes);
  EXPECT_EQ(pevpm::batch_lanes(3, 8), 1);
  EXPECT_EQ(pevpm::batch_lanes(0, 4), 1);
  EXPECT_EQ(pevpm::batch_lanes(5, 0), 5);  // no threads counts as one
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

// The documented concurrent-read contract of a warm DeliverySampler:
// deterministic kAverage mode, many threads alternating keys through one
// sampler's dense index. Warm draws write nothing, so this must run clean
// under TSan.
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

  // Warm every key single-threaded: after this, kAverage draws only read.
  std::vector<double> expected;
  for (const net::Bytes bytes : sizes) {
    expected.push_back(sampler.delivery_seconds(bytes, 0));
  }

  std::atomic<int> mismatches{0};
  pevpm::parallel_for(8, 8, [&sampler, &sizes, &expected,
                             &mismatches](int worker) {
    // Each worker starts on a different key, so several threads read
    // different rows at once.
    for (int i = 0; i < 5000; ++i) {
      const std::size_t k = (static_cast<std::size_t>(worker) + i) % 3;
      if (sampler.delivery_seconds(sizes[k], 0) != expected[k]) {
        ++mismatches;
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

/// One-way and sender entries at two sizes and two contention levels.
mpibench::DistributionTable two_size_table() {
  mpibench::DistributionTable table;
  stats::Rng rng{9};
  for (const net::Bytes bytes : {net::Bytes{256}, net::Bytes{4096}}) {
    for (const int contention : {2, 8}) {
      std::vector<double> xs;
      for (int i = 0; i < 64; ++i) {
        xs.push_back(1e-9 * bytes.to_double() * contention +
                     1e-5 * rng.uniform());
      }
      table.insert(mpibench::OpKind::kPtpOneWay, bytes, contention,
                   stats::EmpiricalDistribution::from_samples(xs));
      for (double& x : xs) x *= 0.1;
      table.insert(mpibench::OpKind::kPtpSender, bytes, contention,
                   stats::EmpiricalDistribution::from_samples(xs));
    }
  }
  return table;
}

pevpm::Model two_size_exchange() {
  const char* text = R"(
loop 10 {
  runon procnum % 2 == 0 {
    message send size = 256 to = procnum + 1
    message recv size = 4096 from = procnum + 1
  } else {
    message recv size = 256 from = procnum - 1
    message send size = 4096 to = procnum - 1
  }
}
)";
  return pevpm::parse_model(text, "two-size");
}

/// predict()'s replications run through the per-replication API over one
/// caller-owned SamplerCells, so the cells it resolved can be counted. The
/// prediction must equal predict()'s bit for bit.
std::size_t resolved_cells(const pevpm::Model& model,
                           const mpibench::DistributionTable& table,
                           const pevpm::PredictOptions& opts) {
  pevpm::SamplerCells cells{table, opts.sampler};
  const std::vector<std::uint64_t> seeds = pevpm::replication_seeds(opts);
  std::vector<pevpm::SimulationResult> results(seeds.size());
  pevpm::parallel_for(static_cast<int>(seeds.size()),
                      pevpm::resolve_threads(opts.threads), [&](int rep) {
                        results[static_cast<std::size_t>(rep)] =
                            pevpm::run_replication(
                                model, 8, {}, table, opts, rep,
                                seeds[static_cast<std::size_t>(rep)], &cells);
                      });
  const pevpm::Prediction shared =
      pevpm::reduce_replications(std::move(results));
  const pevpm::Prediction reference = pevpm::predict(model, 8, {}, table, opts);
  EXPECT_EQ(shared.makespan.mean(), reference.makespan.mean());
  EXPECT_EQ(shared.makespan.stddev(), reference.makespan.stddev());
  return cells.resolved();
}

TEST(SamplerCells, ResolvesEachDistinctKeyOnce) {
  const auto table = two_size_table();
  const auto model = two_size_exchange();
  pevpm::PredictOptions opts;
  opts.seed = 4242;
  opts.sampler.contention = pevpm::ContentionSource::kFixed;
  // Every fixed level — below, between and above the measured 2 and 8 —
  // makes four keys: one-way and sender at each of the two sizes (levels
  // outside [2, 8] clamp to the edge level, as the table lookup does).
  for (const int level : {1, 5, 20}) {
    opts.sampler.fixed_contention = level;
    for (const int reps : {1, 16}) {
      for (const int threads : {1, 4}) {
        opts.replications = reps;
        opts.threads = threads;
        EXPECT_EQ(resolved_cells(model, table, opts), 4u)
            << "level " << level << ", " << reps << " reps, " << threads
            << " threads";
      }
    }
  }
  // Scoreboard contention: whatever levels the scoreboard reaches, the
  // clamp keeps them within the 7 levels 2..8 per (op, size), and the
  // count does not depend on the thread count.
  opts.sampler.contention = pevpm::ContentionSource::kScoreboard;
  for (const int reps : {1, 16}) {
    opts.replications = reps;
    opts.threads = 1;
    const std::size_t serial = resolved_cells(model, table, opts);
    opts.threads = 4;
    EXPECT_EQ(resolved_cells(model, table, opts), serial);
    EXPECT_GE(serial, 4u);
    EXPECT_LE(serial, 2u * 2u * 7u);
  }
}

TEST(SamplerCells, OffRangeLevelsShareTheEdgeCell) {
  const auto table = two_size_table();
  pevpm::SamplerCells cells{table, {}};
  pevpm::DeliverySampler sampler{cells, 1};
  // Levels at or below the lowest measured one (2) share its cell, levels
  // at or above the highest (8) share that one; a level between them is
  // a cell of its own.
  for (const int contention : {0, 1, 2}) {
    (void)sampler.delivery_seconds(net::Bytes{256}, contention);
  }
  EXPECT_EQ(cells.resolved(), 1u);
  for (const int contention : {8, 9, 1000, 100000}) {
    (void)sampler.delivery_seconds(net::Bytes{256}, contention);
  }
  EXPECT_EQ(cells.resolved(), 2u);
  (void)sampler.delivery_seconds(net::Bytes{256}, 5);
  EXPECT_EQ(cells.resolved(), 3u);
  // A second sampler over the same cells resolves nothing new.
  pevpm::DeliverySampler other{cells, 2};
  for (const int contention : {0, 5, 8, 70000}) {
    (void)other.delivery_seconds(net::Bytes{256}, contention);
  }
  EXPECT_EQ(cells.resolved(), 3u);
}

// Samplers on several threads share one cold SamplerCells and race to
// resolve the same keys first; every sampler must draw exactly what a
// sampler with private cells draws from the same seed.
TEST(SamplerConcurrency, SharedCellsResolveRacesMatchSerialDraws) {
  const auto table = two_size_table();
  pevpm::SamplerOptions options;
  constexpr int kWorkers = 8;
  const auto script = [](pevpm::DeliverySampler& sampler) {
    std::vector<double> draws;
    for (int pass = 0; pass < 3; ++pass) {
      for (const int contention : {0, 2, 3, 5, 8, 13}) {
        for (const net::Bytes bytes :
             {net::Bytes{256}, net::Bytes{1000}, net::Bytes{4096}}) {
          draws.push_back(sampler.delivery_seconds(bytes, contention));
          draws.push_back(sampler.sender_seconds(bytes, contention));
        }
      }
      draws.push_back(sampler.collective_seconds(pevpm::CollOp::kAllreduce,
                                                 net::Bytes{256}, 8));
    }
    return draws;
  };
  std::vector<std::vector<double>> serial(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    pevpm::DeliverySampler sampler{table, options,
                                   static_cast<std::uint64_t>(100 + w)};
    serial[static_cast<std::size_t>(w)] = script(sampler);
  }
  for (int round = 0; round < 4; ++round) {
    pevpm::SamplerCells cells{table, options};
    std::vector<std::vector<double>> shared(kWorkers);
    pevpm::parallel_for(kWorkers, kWorkers, [&](int w) {
      pevpm::DeliverySampler sampler{cells,
                                     static_cast<std::uint64_t>(100 + w)};
      shared[static_cast<std::size_t>(w)] = script(sampler);
    });
    EXPECT_EQ(shared, serial) << "round " << round;
  }
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
