// Runtime semantics: placement, lifecycle, failure reporting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "net/cluster.h"

namespace {

smpi::Runtime::Options options(int nodes, int ppn, int nprocs) {
  smpi::Runtime::Options opt;
  opt.cluster = net::perseus(nodes);
  opt.procs_per_node = ppn;
  opt.nprocs = nprocs;
  return opt;
}

TEST(Runtime, BlockwisePlacement) {
  smpi::Runtime rt{options(4, 2, 8)};
  EXPECT_EQ(rt.node_of(0), 0);
  EXPECT_EQ(rt.node_of(1), 0);
  EXPECT_EQ(rt.node_of(2), 1);
  EXPECT_EQ(rt.node_of(7), 3);
  EXPECT_THROW((void)rt.node_of(8), smpi::MpiError);
  EXPECT_THROW((void)rt.node_of(-1), smpi::MpiError);
}

TEST(Runtime, RejectsOverCapacity) {
  EXPECT_THROW(smpi::Runtime{options(2, 1, 3)}, smpi::MpiError);
  EXPECT_THROW(smpi::Runtime{options(2, 1, 0)}, smpi::MpiError);
  EXPECT_THROW(smpi::Runtime{options(2, 0, 2)}, smpi::MpiError);
}

TEST(Runtime, RunIsSingleShot) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([](smpi::Comm&) {});
  EXPECT_THROW(rt.run([](smpi::Comm&) {}), smpi::MpiError);
}

TEST(Runtime, RankExceptionPropagates) {
  smpi::Runtime rt{options(2, 1, 2)};
  EXPECT_THROW(rt.run([](smpi::Comm& comm) {
                 if (comm.rank() == 1) throw std::runtime_error{"app bug"};
               }),
               std::runtime_error);
}

TEST(Runtime, DeadlockNamesBlockedRanks) {
  smpi::Runtime rt{options(3, 1, 3)};
  try {
    rt.run([](smpi::Comm& comm) {
      if (comm.rank() != 0) comm.recv_bytes(net::Bytes{8}, 0, 0);  // rank 0 never sends
    });
    FAIL() << "expected DeadlockError";
  } catch (const smpi::DeadlockError& e) {
    EXPECT_EQ(e.blocked_ranks, (std::vector<int>{1, 2}));
  }
}

TEST(Runtime, ElapsedReflectsWork) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([](smpi::Comm& comm) { comm.compute(0.25); });
  EXPECT_NEAR(rt.elapsed().to_seconds(), 0.25, 0.05);
}

TEST(Runtime, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    smpi::Runtime rt{options(4, 2, 8)};
    rt.run([](smpi::Comm& comm) {
      comm.barrier();
      for (int i = 0; i < 5; ++i) {
        comm.alltoall_bytes(net::Bytes{512});
      }
    });
    return rt.elapsed();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Runtime, SeedChangesJitterRealisation) {
  auto run_with_seed = [](std::uint64_t seed) {
    auto opt = options(2, 1, 2);
    opt.seed = seed;
    smpi::Runtime rt{opt};
    rt.run([](smpi::Comm& comm) {
      if (comm.rank() == 0) {
        comm.send_bytes(net::Bytes{1024}, 1, 0);
      } else {
        comm.recv_bytes(net::Bytes{1024}, 0, 0);
      }
    });
    return rt.elapsed();
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(Runtime, ComputeRejectsNegativeTime) {
  smpi::Runtime rt{options(2, 1, 2)};
  EXPECT_THROW(rt.run([](smpi::Comm& comm) { comm.compute(-1.0); }),
               smpi::MpiError);
}

TEST(Runtime, TransportAndNetworkAccessorsCarryStats) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_bytes(net::Bytes{100000}, 1, 0);
    } else {
      comm.recv_bytes(net::Bytes{100000}, 0, 0);
    }
  });
  EXPECT_GT(rt.transport().segments_sent(), 60u);
  EXPECT_GT(rt.network().nic_tx(0).bytes_sent(), net::Bytes{100000});
}

}  // namespace
