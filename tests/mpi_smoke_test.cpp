// End-to-end smoke tests of the DES + network + transport + MPI stack.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "net/cluster.h"

namespace {

using net::operator""_KiB;

smpi::Runtime::Options options(int nodes, int ppn, int nprocs,
                               std::uint64_t seed = 42) {
  smpi::Runtime::Options opt;
  opt.cluster = net::perseus(nodes);
  opt.procs_per_node = ppn;
  opt.nprocs = nprocs;
  opt.seed = seed;
  return opt;
}

TEST(MpiSmoke, PingPongDeliversPayload) {
  smpi::Runtime rt{options(2, 1, 2)};
  std::vector<double> got(4, 0.0);
  rt.run([&](smpi::Comm& comm) {
    std::vector<double> data{1.0, 2.0, 3.0, 4.0};
    if (comm.rank() == 0) {
      comm.send(std::as_bytes(std::span<const double>{data}), 1, 7);
    } else {
      comm.recv(std::as_writable_bytes(std::span<double>{got}), 0, 7);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_GT(rt.elapsed(), des::SimTime{});
  // A 32-byte eager message should take tens of microseconds, not seconds.
  EXPECT_LT(rt.elapsed().to_micros(), 2000.0);
}

TEST(MpiSmoke, LargeMessageUsesRendezvousAndArrives) {
  smpi::Runtime rt{options(2, 1, 2)};
  std::vector<std::byte> payload((64_KiB).count(), std::byte{0xAB});
  std::vector<std::byte> got((64_KiB).count(), std::byte{0});
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(payload, 1, 0);
    } else {
      const smpi::Status st = comm.recv(got, 0, 0);
      EXPECT_EQ(st.bytes, 64_KiB);
    }
  });
  EXPECT_EQ(got, payload);
  // 64 KiB at ~10 MB/s effective is ~6-8 ms one way.
  EXPECT_GT(rt.elapsed().to_micros(), 4000.0);
  EXPECT_LT(rt.elapsed().to_micros(), 60000.0);
}

TEST(MpiSmoke, CollectivesAgree) {
  smpi::Runtime rt{options(4, 2, 8)};
  std::vector<double> sums(8, -1.0);
  rt.run([&](smpi::Comm& comm) {
    comm.barrier();
    const double v = static_cast<double>(comm.rank() + 1);
    sums[comm.rank()] = comm.allreduce_one(v, smpi::ReduceOp::kSum);
    comm.barrier();
  });
  for (const double s : sums) EXPECT_DOUBLE_EQ(s, 36.0);
}

TEST(MpiSmoke, DeadlockIsDetected) {
  smpi::Runtime rt{options(2, 1, 2)};
  EXPECT_THROW(rt.run([](smpi::Comm& comm) {
                 std::vector<std::byte> buf(8);
                 comm.recv(buf, 1 - comm.rank(), 0);  // nobody sends
               }),
               smpi::DeadlockError);
}

TEST(MpiSmoke, ManyRanksAlltoall) {
  smpi::Runtime rt{options(16, 2, 32)};
  rt.run([&](smpi::Comm& comm) {
    comm.alltoall_bytes(1_KiB);
    comm.barrier();
  });
  EXPECT_GT(rt.elapsed(), des::SimTime{});
}

}  // namespace
