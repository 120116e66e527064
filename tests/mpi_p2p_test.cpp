// Point-to-point semantics of the simulated MPI.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "net/cluster.h"

namespace {

using net::operator""_KiB;

smpi::Runtime::Options options(int nodes, int ppn, int nprocs,
                               std::uint64_t seed = 1) {
  smpi::Runtime::Options opt;
  opt.cluster = net::perseus(nodes);
  opt.procs_per_node = ppn;
  opt.nprocs = nprocs;
  opt.seed = seed;
  return opt;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 31 + seed) & 0xff);
  }
  return out;
}

// Payload integrity across the eager/rendezvous boundary and the SMP path.
struct P2PCase {
  std::size_t size;
  bool same_node;
  const char* name;
};

class PayloadIntegrity : public ::testing::TestWithParam<P2PCase> {};

TEST_P(PayloadIntegrity, RoundTripsExactBytes) {
  const P2PCase c = GetParam();
  auto opt = c.same_node ? options(1, 2, 2) : options(2, 1, 2);
  smpi::Runtime rt{opt};
  const auto sent = pattern(c.size, 7);
  std::vector<std::byte> got(c.size, std::byte{0});
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(sent, 1, 3);
    } else {
      const smpi::Status st = comm.recv(got, 0, 3);
      EXPECT_EQ(st.bytes, net::Bytes{c.size});
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 3);
    }
  });
  EXPECT_EQ(got, sent);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPaths, PayloadIntegrity,
    ::testing::Values(P2PCase{1, false, "net_1B"},
                      P2PCase{1000, false, "net_1KB"},
                      P2PCase{16384, false, "net_16KB_eager_edge"},
                      P2PCase{16385, false, "net_16KB_rendezvous"},
                      P2PCase{100000, false, "net_100KB"},
                      P2PCase{1, true, "smp_1B"},
                      P2PCase{65536, true, "smp_64KB"}),
    [](const auto& param_info) { return std::string{param_info.param.name}; });

TEST(P2P, MessagesDoNotOvertakePerPair) {
  smpi::Runtime rt{options(2, 1, 2)};
  std::vector<int> order;
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send_value(i, 1, 0);
    } else {
      for (int i = 0; i < 10; ++i) order.push_back(comm.recv_value<int>(0, 0));
    }
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(P2P, TagMatchingSelectsCorrectMessage) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(111, 1, 5);
      comm.send_value(222, 1, 6);
    } else {
      // Receive out of tag order: tag 6 first.
      EXPECT_EQ(comm.recv_value<int>(0, 6), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 5), 111);
    }
  });
}

TEST(P2P, WildcardsMatchAnything) {
  // An int goes eagerly; 64 KiB goes by rendezvous, so there the wildcard
  // status has to come through the RTS and the rendezvous it announces.
  for (const std::size_t bytes : {sizeof(int), std::size_t{64 * 1024}}) {
    SCOPED_TRACE(bytes);
    smpi::Runtime rt{options(3, 1, 3)};
    rt.run([&](smpi::Comm& comm) {
      if (comm.rank() != 2) {
        comm.compute(0.001 * (comm.rank() + 1));
        std::vector<std::byte> data(bytes);
        const int rank = comm.rank();
        std::memcpy(data.data(), &rank, sizeof rank);
        comm.send(data, 2, rank + 10);
      } else {
        int seen = 0;
        for (int i = 0; i < 2; ++i) {
          std::vector<std::byte> data(bytes);
          const smpi::Status st =
              comm.recv(data, smpi::kAnySource, smpi::kAnyTag);
          int v = -1;
          std::memcpy(&v, data.data(), sizeof v);
          EXPECT_EQ(st.source, v);
          EXPECT_EQ(st.tag, v + 10);
          EXPECT_EQ(st.bytes, net::Bytes{bytes});
          ++seen;
        }
        EXPECT_EQ(seen, 2);
      }
    });
  }
}

TEST(P2P, UnexpectedMessagesBufferUntilReceived) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(42, 1, 0);  // arrives long before the recv is posted
    } else {
      comm.compute(0.1);
      EXPECT_EQ(comm.recv_value<int>(0, 0), 42);
    }
  });
}

TEST(P2P, TruncationIsAnError) {
  smpi::Runtime rt{options(2, 1, 2)};
  EXPECT_THROW(
      rt.run([&](smpi::Comm& comm) {
        if (comm.rank() == 0) {
          std::vector<std::byte> big(100);
          comm.send(big, 1, 0);
        } else {
          std::vector<std::byte> small(10);
          comm.recv(small, 0, 0);
        }
      }),
      smpi::MpiError);
}

TEST(P2P, IsendIrecvWaitallOverlap) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([&](smpi::Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<double> out(64, comm.rank() + 1.0);
    std::vector<double> in(64, 0.0);
    std::vector<smpi::Request> reqs;
    reqs.push_back(comm.irecv(std::as_writable_bytes(std::span<double>{in}),
                              peer, 1));
    reqs.push_back(comm.isend(std::as_bytes(std::span<const double>{out}),
                              peer, 1));
    comm.waitall(reqs);
    EXPECT_DOUBLE_EQ(in[0], peer + 1.0);
    EXPECT_DOUBLE_EQ(in[63], peer + 1.0);
  });
}

TEST(P2P, TestPollsCompletionWithoutBlocking) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(0.01);
      comm.send_value(1, 1, 0);
    } else {
      int v = 0;
      const smpi::Request rq =
          comm.irecv(std::as_writable_bytes(std::span<int, 1>{&v, 1}), 0, 0);
      EXPECT_FALSE(comm.test(rq));  // sender is still computing
      comm.wait(rq);
      EXPECT_TRUE(comm.test(rq));
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(P2P, ProbeReportsEnvelopeWithoutConsuming) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(3.5, 1, 9);
    } else {
      const smpi::Status st = comm.probe(smpi::kAnySource, smpi::kAnyTag);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 9);
      EXPECT_EQ(st.bytes, net::Bytes::of(sizeof(double)));
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 9), 3.5);
    }
  });
}

TEST(P2P, IprobeReturnsEmptyWhenNothingPending) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 1) {
      EXPECT_FALSE(comm.iprobe().has_value());
    }
  });
}

TEST(P2P, SendrecvExchangesWithoutDeadlock) {
  smpi::Runtime rt{options(2, 1, 2)};
  rt.run([&](smpi::Comm& comm) {
    const int peer = 1 - comm.rank();
    // Large (rendezvous) messages both ways would deadlock with blocking
    // send/recv in the same order on both ranks; sendrecv must not.
    std::vector<std::byte> out((32_KiB).count(), std::byte(comm.rank()));
    std::vector<std::byte> in((32_KiB).count());
    comm.sendrecv(out, peer, 2, in, peer, 2);
    EXPECT_EQ(in[0], std::byte(peer));
  });
}

TEST(P2P, SendToSelfViaSmpChannel) {
  smpi::Runtime rt{options(1, 1, 1)};
  rt.run([&](smpi::Comm& comm) {
    const smpi::Request rq = comm.isend_bytes(net::Bytes{128}, 0, 0);
    EXPECT_EQ(comm.recv_bytes(net::Bytes{128}, 0, 0).bytes, net::Bytes{128});
    comm.wait(rq);
  });
}

TEST(P2P, RendezvousBlocksUntilReceiverPosts) {
  smpi::Runtime rt{options(2, 1, 2)};
  double send_done = 0.0;
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> big((64_KiB).count());
      comm.send(big, 1, 0);
      send_done = comm.sim_now().to_seconds();
    } else {
      comm.compute(0.05);  // make the sender wait for the CTS
      std::vector<std::byte> big((64_KiB).count());
      comm.recv(big, 0, 0);
    }
  });
  // Compute jitter is ~2%, so compare against a slightly relaxed bound.
  EXPECT_GT(send_done, 0.045);
}

TEST(P2P, EagerSendCompletesLocallyBeforeReceiverPosts) {
  smpi::Runtime rt{options(2, 1, 2)};
  double send_done = 1e9;
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_bytes(net::Bytes{1024}, 1, 0);  // eager: buffered, local completion
      send_done = comm.sim_now().to_seconds();
    } else {
      comm.compute(0.05);
      comm.recv_bytes(net::Bytes{1024}, 0, 0);
    }
  });
  EXPECT_LT(send_done, 0.05);
}

TEST(P2P, InvalidArgumentsThrow) {
  smpi::Runtime rt{options(2, 1, 2)};
  EXPECT_THROW(rt.run([&](smpi::Comm& comm) {
                 comm.send_bytes(net::Bytes{10}, comm.size(), 0);  // peer out of range
               }),
               smpi::MpiError);
}

TEST(P2P, UserTagRangeIsEnforced) {
  smpi::Runtime rt{options(2, 1, 2)};
  EXPECT_THROW(rt.run([&](smpi::Comm& comm) {
                 comm.send_bytes(net::Bytes{10}, 1 - comm.rank(),
                                 smpi::kReservedTagBase);
               }),
               smpi::MpiError);
}

TEST(P2P, ClocksAreSkewedButSimTimeIsGlobal) {
  smpi::Runtime rt{options(4, 1, 4)};
  std::vector<double> wtimes(4);
  std::vector<des::SimTime> sims(4);
  rt.run([&](smpi::Comm& comm) {
    comm.barrier();
    wtimes[comm.rank()] = comm.wtime();
    sims[comm.rank()] = comm.sim_now();
  });
  // Local clocks differ (offset/drift); the barrier exit times in sim time
  // are close but clocks diverge by milliseconds.
  double spread = 0.0;
  for (const double w : wtimes) {
    for (const double v : wtimes) spread = std::max(spread, std::abs(w - v));
  }
  EXPECT_GT(spread, 1e-5);
  EXPECT_LT(spread, 0.1);
}

}  // namespace
