// Additional MPI-layer semantics: blocking probe, SMP channel ordering,
// builder-level collectives in PEVPM models, and cross-layer corners.
#include <gtest/gtest.h>

#include <vector>

#include "core/model.h"
#include "core/parse.h"
#include "core/sampler.h"
#include "core/vm.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "net/cluster.h"

namespace {

smpi::Runtime::Options options(int nodes, int ppn, int nprocs) {
  smpi::Runtime::Options opt;
  opt.cluster = net::perseus(nodes);
  opt.procs_per_node = ppn;
  opt.nprocs = nprocs;
  opt.seed = 99;
  return opt;
}

TEST(MpiExtra, BlockingProbeWaitsForArrival) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(0.02);
      comm.send_value(7, 1, 4);
    } else {
      const des::SimTime before = comm.sim_now();
      const smpi::Status st = comm.probe(0, 4);
      EXPECT_GT(comm.sim_now() - before, des::Duration::from_micros(10000));
      EXPECT_EQ(st.bytes, net::Bytes::of(sizeof(int)));
      EXPECT_EQ(comm.recv_value<int>(0, 4), 7);
    }
  });
}

TEST(MpiExtra, SmpChannelPreservesOrderUnderJitter) {
  // Many rapid same-pair intra-node messages must never overtake, even
  // though per-message latency is jittered.
  smpi::Runtime rt{options(1, 2, 2)};
  std::vector<int> order;
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        comm.wait(comm.isend_bytes(net::Bytes{64}, 1, i));  // eager: returns at once
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        // Receive in arrival order via wildcard tags.
        const smpi::Status st = comm.recv_bytes(net::Bytes{64}, 0, smpi::kAnyTag);
        order.push_back(st.tag);
      }
    }
  });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(MpiExtra, MixedSmpAndNetworkTraffic) {
  // Ranks 0,1 share a node; rank 2 is remote. Both paths deliver.
  smpi::Runtime rt{options(2, 2, 3)};
  rt.run([](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1.5, 1, 0);  // SMP
      comm.send_value(2.5, 2, 0);  // network
    } else {
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 0),
                       comm.rank() == 1 ? 1.5 : 2.5);
    }
  });
}

TEST(MpiExtra, LargeCollectiveOnManyRanks) {
  smpi::Runtime rt{options(16, 2, 32)};
  std::vector<double> out(32, 0.0);
  rt.run([&](smpi::Comm& comm) {
    out[comm.rank()] =
        comm.allreduce_one(1.0, smpi::ReduceOp::kSum);
  });
  for (const double v : out) EXPECT_DOUBLE_EQ(v, 32.0);
}

TEST(MpiExtra, BuilderCollectivesExecuteInVm) {
  const pevpm::Model model = pevpm::parse_model(
      "serial time = procnum * 0.01\nbarrier\nbcast size = 4096 root = 0\n",
      "coll");

  mpibench::DistributionTable table;
  table.insert(mpibench::OpKind::kPtpOneWay, net::Bytes{0}, 1,
               stats::EmpiricalDistribution::constant(1e-3));
  table.insert(mpibench::OpKind::kPtpOneWay, net::Bytes{1<<20}, 1,
               stats::EmpiricalDistribution::constant(1e-3));
  pevpm::DeliverySampler sampler{table, {}, 3};
  const auto result = pevpm::simulate(model, 4, {}, sampler);
  ASSERT_FALSE(result.deadlocked);
  // Slowest arrival 0.03, barrier 2 rounds, bcast 2 rounds (synthesised).
  EXPECT_NEAR(result.makespan, 0.03 + 2e-3 + 2e-3, 1e-9);
}

TEST(MpiExtra, RecvCompletionCarriesStatusThroughWaitall) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_bytes(net::Bytes{10}, 1, 3);
      comm.send_bytes(net::Bytes{20}, 1, 5);
    } else {
      const smpi::Request a = comm.irecv_bytes(net::Bytes{64}, 0, 3);
      const smpi::Request b = comm.irecv_bytes(net::Bytes{64}, 0, 5);
      const std::vector<smpi::Request> reqs{a, b};
      comm.waitall(reqs);
      EXPECT_EQ(a.state()->status.bytes, net::Bytes{10});
      EXPECT_EQ(b.state()->status.bytes, net::Bytes{20});
    }
  });
}

TEST(MpiExtra, WtimeIsMonotoneWithinARank) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([](smpi::Comm& comm) {
    double prev = comm.wtime();
    for (int i = 0; i < 10; ++i) {
      comm.compute(0.001);
      const double now = comm.wtime();
      EXPECT_GT(now, prev);
      prev = now;
    }
  });
}

}  // namespace
