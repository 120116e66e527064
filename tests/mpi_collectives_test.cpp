// Collective operations: data correctness and timing semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "net/cluster.h"

namespace {

smpi::Runtime::Options options(int nprocs, int ppn = 1,
                               std::uint64_t seed = 2) {
  smpi::Runtime::Options opt;
  opt.cluster = net::perseus(std::max(1, (nprocs + ppn - 1) / ppn));
  opt.procs_per_node = ppn;
  opt.nprocs = nprocs;
  opt.seed = seed;
  return opt;
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BarrierSynchronises) {
  const int p = GetParam();
  smpi::Runtime rt{options(p)};
  std::vector<des::SimTime> entry(p);
  std::vector<des::SimTime> exit(p);
  rt.run([&](smpi::Comm& comm) {
    comm.compute(0.001 * (comm.rank() + 1));  // staggered arrivals
    entry[comm.rank()] = comm.sim_now();
    comm.barrier();
    exit[comm.rank()] = comm.sim_now();
  });
  const des::SimTime latest_entry = *std::max_element(entry.begin(), entry.end());
  for (int r = 0; r < p; ++r) {
    EXPECT_GE(exit[r], latest_entry) << "rank " << r << " left early";
  }
}

TEST_P(CollectiveSizes, BcastDeliversFromEveryRoot) {
  const int p = GetParam();
  for (const int root : {0, p - 1, p / 2}) {
    smpi::Runtime rt{options(p)};
    std::vector<std::vector<double>> out(p, std::vector<double>(8, -1.0));
    rt.run([&](smpi::Comm& comm) {
      std::vector<double> data(8, -1.0);
      if (comm.rank() == root) {
        std::iota(data.begin(), data.end(), 100.0);
      }
      comm.bcast(std::as_writable_bytes(std::span<double>{data}), root);
      out[comm.rank()] = data;
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_DOUBLE_EQ(out[r][0], 100.0) << "root " << root << " rank " << r;
      EXPECT_DOUBLE_EQ(out[r][7], 107.0);
    }
  }
}

TEST_P(CollectiveSizes, ReduceSumMatchesLocalComputation) {
  const int p = GetParam();
  smpi::Runtime rt{options(p)};
  std::vector<double> result(4, 0.0);
  rt.run([&](smpi::Comm& comm) {
    std::vector<double> mine(4);
    for (int i = 0; i < 4; ++i) mine[i] = comm.rank() * 10.0 + i;
    std::vector<double> out(4);
    comm.reduce(mine, out, smpi::ReduceOp::kSum, 0);
    if (comm.rank() == 0) result = out;
  });
  for (int i = 0; i < 4; ++i) {
    double expected = 0.0;
    for (int r = 0; r < p; ++r) expected += r * 10.0 + i;
    EXPECT_DOUBLE_EQ(result[i], expected) << "i=" << i;
  }
}

TEST_P(CollectiveSizes, AllreduceMinMaxAgreeEverywhere) {
  const int p = GetParam();
  smpi::Runtime rt{options(p)};
  std::vector<double> mins(p);
  std::vector<double> maxs(p);
  rt.run([&](smpi::Comm& comm) {
    const double v = 100.0 - comm.rank();
    mins[comm.rank()] = comm.allreduce_one(v, smpi::ReduceOp::kMin);
    maxs[comm.rank()] = comm.allreduce_one(v, smpi::ReduceOp::kMax);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(mins[r], 100.0 - (p - 1));
    EXPECT_DOUBLE_EQ(maxs[r], 100.0);
  }
}

TEST_P(CollectiveSizes, GatherAssemblesInRankOrder) {
  const int p = GetParam();
  smpi::Runtime rt{options(p)};
  std::vector<std::int32_t> gathered(p, -1);
  rt.run([&](smpi::Comm& comm) {
    const std::int32_t mine = comm.rank() * 7;
    std::vector<std::int32_t> all(comm.rank() == 1 ? p : 0);
    comm.gather(std::as_bytes(std::span<const std::int32_t, 1>{&mine, 1}),
                std::as_writable_bytes(std::span<std::int32_t>{all}), 1);
    if (comm.rank() == 1) gathered = all;
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(gathered[r], r * 7);
}

TEST_P(CollectiveSizes, ScatterDistributesInRankOrder) {
  const int p = GetParam();
  smpi::Runtime rt{options(p)};
  std::vector<std::int32_t> got(p, -1);
  rt.run([&](smpi::Comm& comm) {
    std::vector<std::int32_t> all;
    if (comm.rank() == 0) {
      all.resize(p);
      for (int r = 0; r < p; ++r) all[r] = r + 1000;
    }
    std::int32_t mine = -1;
    comm.scatter(std::as_bytes(std::span<const std::int32_t>{all}),
                 std::as_writable_bytes(std::span<std::int32_t, 1>{&mine, 1}),
                 0);
    got[comm.rank()] = mine;
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(got[r], r + 1000);
}

TEST_P(CollectiveSizes, AllgatherGivesEveryoneEverything) {
  const int p = GetParam();
  smpi::Runtime rt{options(p)};
  std::vector<std::vector<std::int32_t>> out(p);
  rt.run([&](smpi::Comm& comm) {
    const std::int32_t mine = comm.rank() + 50;
    std::vector<std::int32_t> all(p);
    comm.allgather(std::as_bytes(std::span<const std::int32_t, 1>{&mine, 1}),
                   std::as_writable_bytes(std::span<std::int32_t>{all}));
    out[comm.rank()] = all;
  });
  for (int r = 0; r < p; ++r) {
    for (int s = 0; s < p; ++s) EXPECT_EQ(out[r][s], s + 50);
  }
}

TEST_P(CollectiveSizes, AlltoallTransposesBlocks) {
  const int p = GetParam();
  smpi::Runtime rt{options(p)};
  std::vector<std::vector<std::int32_t>> out(p);
  rt.run([&](smpi::Comm& comm) {
    std::vector<std::int32_t> send(p);
    std::vector<std::int32_t> recv(p, -1);
    for (int d = 0; d < p; ++d) send[d] = comm.rank() * 100 + d;
    comm.alltoall(std::as_bytes(std::span<const std::int32_t>{send}),
                  std::as_writable_bytes(std::span<std::int32_t>{recv}),
                  sizeof(std::int32_t));
    out[comm.rank()] = recv;
  });
  // Block d of rank r must be "d * 100 + r" (the transpose).
  for (int r = 0; r < p; ++r) {
    for (int s = 0; s < p; ++s) EXPECT_EQ(out[r][s], s * 100 + r);
  }
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, CollectiveSizes,
                         ::testing::Values(2, 3, 4, 5, 8, 13, 16),
                         [](const auto& param_info) {
                           return "P" + std::to_string(param_info.param);
                         });

TEST(Collectives, SingleProcessDegenerateCases) {
  smpi::Runtime rt{options(1)};
  rt.run([&](smpi::Comm& comm) {
    comm.barrier();
    std::vector<double> v{1.0, 2.0};
    comm.bcast(std::as_writable_bytes(std::span<double>{v}), 0);
    const double sum = comm.allreduce_one(5.0, smpi::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 5.0);
    EXPECT_DOUBLE_EQ(v[1], 2.0);
  });
}

TEST(Collectives, BcastBytesScalesWithTreeDepth) {
  // Binomial tree: completion grows ~log2(P), not linearly.
  auto timed = [](int p) {
    smpi::Runtime rt{options(p)};
    rt.run([&](smpi::Comm& comm) { comm.bcast_bytes(net::Bytes{1024}, 0); });
    return rt.elapsed().to_seconds();
  };
  const double t4 = timed(4);
  const double t16 = timed(16);
  EXPECT_GT(t16, t4);
  EXPECT_LT(t16, 4.0 * t4);  // log-depth, far below linear scaling
}

TEST(Collectives, MismatchedSpansThrow) {
  smpi::Runtime rt{options(2)};
  EXPECT_THROW(rt.run([&](smpi::Comm& comm) {
                 std::vector<double> in(4);
                 std::vector<double> out(2);
                 comm.allreduce(in, out, smpi::ReduceOp::kSum);
               }),
               smpi::MpiError);
}

}  // namespace
