// Unit tests for the TCP-lite reliable transport.
#include <gtest/gtest.h>

#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/transport.h"

namespace {

using net::operator""_KiB;
using net::operator""_MiB;

struct Fixture {
  des::Engine engine;
  net::Network network;
  net::Transport transport;

  explicit Fixture(net::ClusterParams params)
      : network{engine, params}, transport{engine, network} {}
};

TEST(Transport, SingleSegmentDelivery) {
  Fixture f{net::perseus(2)};
  des::SimTime arrival{-1};
  f.transport.send(1, 0, 1, net::Bytes{1000}, [&] { arrival = f.engine.now(); });
  f.engine.run();
  // 1000 B + headers ~ 1098 wire bytes at 100 Mbit/s is ~88 us, plus
  // fabric, switch and propagation latencies: well under a millisecond.
  EXPECT_GT(arrival, des::SimTime::from_micros(80));
  EXPECT_LT(arrival, des::SimTime::from_micros(300));
  EXPECT_EQ(f.transport.messages_delivered(), 1u);
  EXPECT_EQ(f.transport.retransmits(), 0u);
}

TEST(Transport, MultiSegmentMessageArrivesCompletely) {
  Fixture f{net::perseus(2)};
  bool done = false;
  f.transport.send(1, 0, 1, 100_KiB, [&] { done = true; });
  f.engine.run();
  EXPECT_TRUE(done);
  // 100 KiB needs ~71 segments.
  EXPECT_GE(f.transport.segments_sent(), 70u);
  EXPECT_EQ(f.transport.timeouts(), 0u);
}

TEST(Transport, MessagesOnOneStreamDeliverInOrder) {
  Fixture f{net::perseus(2)};
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    f.transport.send(1, 0, 1, net::Bytes{5000}, [&, i] { order.push_back(i); });
  }
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Transport, DistinctStreamsProgressIndependently) {
  Fixture f{net::perseus(4)};
  int delivered = 0;
  f.transport.send(1, 0, 1, 20_KiB, [&] { ++delivered; });
  f.transport.send(2, 2, 3, 20_KiB, [&] { ++delivered; });
  f.engine.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Transport, RecoversFromDropsViaRetransmission) {
  net::ClusterParams params = net::perseus(2);
  params.nic.buffer = net::Bytes{3 * 1538};  // tiny interface queue: forced drops
  Fixture f{params};
  bool done = false;
  f.transport.send(1, 0, 1, 256_KiB, [&] { done = true; });
  f.engine.run();
  EXPECT_TRUE(done);
  EXPECT_GT(f.network.total_drops(), 0u);
  EXPECT_GT(f.transport.retransmits(), 0u);
}

TEST(Transport, TimeoutPathRecoversWhenWholeWindowLost) {
  net::ClusterParams params = net::perseus(2);
  params.nic.buffer = net::Bytes{1538};  // one frame: bursts collapse to singles
  params.tcp.initial_cwnd = 8;
  Fixture f{params};
  bool done = false;
  f.transport.send(1, 0, 1, 64_KiB, [&] { done = true; });
  f.engine.run();
  EXPECT_TRUE(done);
  EXPECT_GT(f.transport.timeouts(), 0u);
  // RTO is 200 ms; a run with timeouts lasts visibly longer than without.
  EXPECT_GT(f.engine.now(), des::SimTime::from_micros(200e3));
}

TEST(Transport, RejectsMisuse) {
  Fixture f{net::perseus(2)};
  EXPECT_THROW(f.transport.send(1, 0, 1, net::Bytes{}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(f.transport.send(1, 0, 0, net::Bytes{10}, nullptr),
               std::invalid_argument);
  f.transport.send(7, 0, 1, net::Bytes{10}, nullptr);
  // Stream 7 is now bound to 0->1; rebinding it is a bug in the caller.
  EXPECT_THROW(f.transport.send(7, 1, 0, net::Bytes{10}, nullptr),
               std::invalid_argument);
  f.engine.run();
}

TEST(Transport, PartitionedStreamRebindIsRejected) {
  // 50 nodes span 3 switches, one partition each. Node 0 is on switch 0
  // and node 40 on switch 1, so the two sends start in different
  // partitions; the binding must hold across them.
  const net::ClusterParams params = net::perseus(50);
  des::PartitionSet sim{params.switch_count(), params.lookahead()};
  net::Network network{sim, params};
  net::Transport transport{sim, network};
  bool delivered = false;
  transport.send(7, 0, 30, net::Bytes{10}, [&] { delivered = true; });
  EXPECT_THROW(transport.send(7, 40, 1, net::Bytes{10}, nullptr),
               std::invalid_argument);
  sim.run();
  EXPECT_TRUE(delivered);
}

TEST(Transport, ThroughputApproachesWireRate) {
  Fixture f{net::perseus(2)};
  des::SimTime done_at{};
  const net::Bytes bytes = 1_MiB;
  f.transport.send(1, 0, 1, bytes, [&] { done_at = f.engine.now(); });
  f.engine.run();
  const double seconds = done_at.to_seconds();
  const double goodput_mbit = bytes.to_double() * 8 / seconds / 1e6;
  // TCP over Fast Ethernet: expect 80-95 Mbit/s of goodput.
  EXPECT_GT(goodput_mbit, 80.0);
  EXPECT_LT(goodput_mbit, 96.0);
}

TEST(Transport, StatsResetClearsCounters) {
  Fixture f{net::perseus(2)};
  f.transport.send(1, 0, 1, 10_KiB, nullptr);
  f.engine.run();
  EXPECT_GT(f.transport.segments_sent(), 0u);
  f.transport.reset_stats();
  EXPECT_EQ(f.transport.segments_sent(), 0u);
  EXPECT_EQ(f.transport.messages_delivered(), 0u);
}

TEST(Transport, ManyConcurrentStreamsAllComplete) {
  Fixture f{net::perseus(16)};
  int delivered = 0;
  for (int n = 0; n < 8; ++n) {
    f.transport.send(static_cast<std::uint64_t>(n), n, n + 8, 32_KiB,
                     [&] { ++delivered; });
  }
  f.engine.run();
  EXPECT_EQ(delivered, 8);
}

}  // namespace
