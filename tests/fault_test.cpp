// Fault injection and TCP-lite retransmission under injected loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "des/engine.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"
#include "net/fault.h"
#include "net/network.h"
#include "net/transport.h"
#include "trace/trace.h"

namespace {

using net::operator""_KiB;

struct Fixture {
  des::Engine engine;
  net::Network network;
  net::Transport transport;

  explicit Fixture(net::ClusterParams params)
      : network{engine, params}, transport{engine, network} {}
};

net::FaultParams drop_schedule(std::vector<std::uint64_t> nth) {
  net::FaultParams fault;
  fault.drop_nth = std::move(nth);
  return fault;
}

TEST(FaultModel, DisabledByDefault) {
  const net::FaultParams fault;
  EXPECT_FALSE(fault.enabled());
}

TEST(FaultModel, CertainLossDropsEveryPacket) {
  net::FaultParams fault;
  fault.loss_rate = 1.0;
  net::FaultModel model{fault, 42};
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(model.should_drop(des::SimTime{0}));
  EXPECT_EQ(model.inspected(), 10u);
  EXPECT_EQ(model.injected(), 10u);
}

TEST(FaultModel, DeterministicScheduleDropsExactlyThoseOrdinals) {
  net::FaultModel model{drop_schedule({2, 5}), 42};
  std::vector<std::uint64_t> dropped;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    if (model.should_drop(des::SimTime{0})) dropped.push_back(i);
  }
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{2, 5}));
}

TEST(FaultModel, DownWindowKillsOnlyInsideTheWindow) {
  net::FaultParams fault;
  fault.down.push_back(net::DownWindow{des::SimTime{100}, des::SimTime{200}});
  net::FaultModel model{fault, 42};
  EXPECT_FALSE(model.should_drop(des::SimTime{99}));
  EXPECT_TRUE(model.should_drop(des::SimTime{100}));
  EXPECT_TRUE(model.should_drop(des::SimTime{199}));
  EXPECT_FALSE(model.should_drop(des::SimTime{200}));
}

TEST(FaultModel, GilbertElliottProducesBursts) {
  net::FaultParams fault;
  fault.ge_p_enter = 0.05;
  fault.ge_p_exit = 0.2;
  fault.ge_loss_bad = 1.0;
  net::FaultModel model{fault, 7};
  int longest_run = 0;
  int run = 0;
  const int packets = 5000;
  for (int i = 0; i < packets; ++i) {
    if (model.should_drop(des::SimTime{0})) {
      ++run;
      longest_run = std::max(longest_run, run);
    } else {
      run = 0;
    }
  }
  // With mean burst length 1/p_exit = 5, multi-packet bursts are certain
  // over 5000 packets (deterministic given the fixed seed).
  EXPECT_GE(longest_run, 3);
  EXPECT_GT(model.injected(), 100u);
  EXPECT_LT(model.injected(), 2500u);
}

TEST(FaultModel, SameSeedSameDecisions) {
  net::FaultParams fault;
  fault.loss_rate = 0.1;
  net::FaultModel a{fault, 99};
  net::FaultModel b{fault, 99};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.should_drop(des::SimTime{0}), b.should_drop(des::SimTime{0}));
  }
}

// --- transport recovery driven by per-link schedules ---

TEST(TransportFault, SingleDropRecoversAfterOneRto) {
  Fixture f{net::perseus(2)};
  f.network.nic_tx(0).install_fault_model(
      std::make_unique<net::FaultModel>(drop_schedule({1}), 1));
  des::SimTime delivered_at{-1};
  f.transport.send(1, 0, 1, net::Bytes{1000},
                   [&] { delivered_at = f.engine.now(); });
  f.engine.run();
  // The only copy of the single segment dies on the sender NIC; recovery
  // waits for the full 200 ms RTO, then one retransmission delivers.
  ASSERT_GE(delivered_at, des::SimTime{});
  EXPECT_GT(delivered_at, des::SimTime::from_micros(200e3));
  EXPECT_LT(delivered_at, des::SimTime::from_micros(210e3));
  EXPECT_EQ(f.transport.timeouts(), 1u);
  EXPECT_EQ(f.transport.retransmits(), 1u);
  EXPECT_EQ(f.network.total_faults(), 1u);
  EXPECT_EQ(f.network.nic_tx(0).packets_lost(), 1u);
}

TEST(TransportFault, RtoBacksOffExponentially) {
  Fixture f{net::perseus(2)};
  f.network.nic_tx(0).install_fault_model(
      std::make_unique<net::FaultModel>(drop_schedule({1, 2, 3}), 1));
  des::SimTime delivered_at{-1};
  f.transport.send(1, 0, 1, net::Bytes{1000},
                   [&] { delivered_at = f.engine.now(); });
  f.engine.run();
  // Three consecutive losses of the same segment: waits of 200, 400 and
  // 800 ms (doubling each timeout) before the fourth copy gets through.
  ASSERT_GE(delivered_at, des::SimTime{});
  EXPECT_GT(delivered_at, des::SimTime::from_micros(1400e3));
  EXPECT_LT(delivered_at, des::SimTime::from_micros(1450e3));
  EXPECT_EQ(f.transport.timeouts(), 3u);
  EXPECT_EQ(f.transport.retransmits(), 3u);
}

TEST(TransportFault, GivesUpAfterFifteenConsecutiveTimeouts) {
  Fixture f{net::perseus(2)};
  net::FaultParams dead;
  dead.loss_rate = 1.0;
  f.network.nic_tx(0).install_fault_model(
      std::make_unique<net::FaultModel>(dead, 1));
  f.transport.send(1, 0, 1, net::Bytes{1000}, [] {});
  // Backoff reaches rto_max (2 s) after four timeouts, so fifteen take
  // about 25 s; the 600 s bound makes a transport that never gives up
  // fail here rather than hang.
  EXPECT_THROW(f.engine.run_until(des::SimTime::from_seconds(600)),
               std::runtime_error);
  EXPECT_EQ(f.transport.timeouts(), 15u);
}

TEST(TransportFault, FreshAckResetsTheTimeoutCount) {
  Fixture f{net::perseus(2)};
  // Fourteen lost copies of each of two one-segment messages: 28
  // timeouts in all, but never fifteen without an ACK between them.
  std::vector<std::uint64_t> lost;
  for (std::uint64_t n = 1; n <= 29; ++n) {
    if (n != 15) lost.push_back(n);
  }
  f.network.nic_tx(0).install_fault_model(
      std::make_unique<net::FaultModel>(drop_schedule(lost), 1));
  int delivered = 0;
  f.transport.send(1, 0, 1, net::Bytes{1000}, [&] { ++delivered; });
  // The first message is through and acknowledged after about 23 s.
  f.engine.schedule_at(des::SimTime::from_seconds(60), [&] {
    f.transport.send(1, 0, 1, net::Bytes{1000}, [&] { ++delivered; });
  });
  f.engine.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(f.transport.timeouts(), 28u);
}

TEST(TransportFault, LostAckIsCoveredByRetransmission) {
  Fixture f{net::perseus(2)};
  // The ACK path from node 1 starts at nic_tx(1); kill the first ACK.
  f.network.nic_tx(1).install_fault_model(
      std::make_unique<net::FaultModel>(drop_schedule({1}), 1));
  bool done = false;
  f.transport.send(1, 0, 1, net::Bytes{1000}, [&] { done = true; });
  f.engine.run();
  EXPECT_TRUE(done);
  // The data arrived first try; only the sender-side completion stalled
  // until its RTO retransmission provoked a fresh (duplicate-data) ACK.
  EXPECT_EQ(f.transport.timeouts(), 1u);
}

TEST(TransportFault, BurstLossStillDeliversEverything) {
  net::ClusterParams params = net::perseus(2);
  params.fault.ge_p_enter = 0.02;
  params.fault.ge_p_exit = 0.2;
  params.fault.ge_loss_bad = 1.0;
  params.fault.seed = 11;
  Fixture f{params};
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    f.transport.send(1, 0, 1, net::Bytes{8000}, [&] { ++delivered; });
  }
  f.engine.run();
  EXPECT_EQ(delivered, 20);
  EXPECT_GT(f.network.total_faults(), 0u);
  EXPECT_GT(f.transport.retransmits(), 0u);
}

TEST(TransportFault, RandomLossIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    net::ClusterParams params = net::perseus(2);
    params.fault.loss_rate = 0.05;
    params.fault.seed = seed;
    Fixture f{params};
    bool done = false;
    f.transport.send(1, 0, 1, 64_KiB, [&] { done = true; });
    f.engine.run();
    EXPECT_TRUE(done);
    return std::pair{f.engine.now(), f.network.total_faults()};
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// Property: injected loss changes timing, never payload — the application
// sees the same messages, in the same per-stream order, with and without
// loss. (Completion order *across* independent streams may shuffle; the
// reliability contract is per stream.)
TEST(TransportFault, DeliveredBytesIdenticalWithAndWithoutLoss) {
  const auto run = [](double loss_rate) {
    net::ClusterParams params = net::perseus(4);
    params.fault.loss_rate = loss_rate;
    params.fault.seed = 3;
    Fixture f{params};
    std::map<std::uint64_t, std::vector<net::Bytes>> per_stream;
    const net::Bytes sizes[] = {net::Bytes{200}, net::Bytes{9000}, 1_KiB,
                                40_KiB, net::Bytes{1500}};
    for (int m = 0; m < 12; ++m) {
      const std::uint64_t stream = 1 + (m % 3);
      const int src = static_cast<int>(stream) - 1;
      const net::Bytes bytes = sizes[m % 5];
      f.transport.send(stream, src, 3, bytes, [&per_stream, stream, bytes] {
        per_stream[stream].push_back(bytes);
      });
    }
    f.engine.run();
    return std::pair{per_stream, f.transport.messages_delivered()};
  };
  const auto lossless = run(0.0);
  const auto lossy = run(0.08);
  EXPECT_EQ(lossless.first, lossy.first);
  EXPECT_EQ(lossless.second, lossy.second);
  EXPECT_EQ(lossy.second, 12u);
}

TEST(TransportFault, RetransmissionsAreTraced) {
  Fixture f{net::perseus(2)};
  f.network.nic_tx(0).install_fault_model(
      std::make_unique<net::FaultModel>(drop_schedule({1, 2}), 1));
  trace::Tracer tracer;
  tracer.enable();
  f.transport.set_tracer(&tracer);
  f.transport.send(1, 0, 1, net::Bytes{1000}, nullptr);
  f.engine.run();
  EXPECT_EQ(tracer.count(trace::Category::kTransport), 2u);
  bool saw_backoff = false;
  for (const auto& record : tracer.records()) {
    if (record.detail.find("rto_retransmit") != std::string::npos &&
        record.detail.find("next_rto_ms") != std::string::npos) {
      saw_backoff = true;
    }
  }
  EXPECT_TRUE(saw_backoff);
}

// --- configuration plumbing ---

TEST(FaultConfig, ParseClusterRoundTripsFaultKeys) {
  std::istringstream is{R"(
fault_loss_rate = 0.01
fault_burst_enter = 0.02
fault_burst_exit = 0.3
fault_burst_loss = 0.9
fault_seed = 77
fault_down_start_ms = 10
fault_down_end_ms = 20
)"};
  const net::ClusterParams params = net::parse_cluster(is, net::perseus(2));
  EXPECT_TRUE(params.fault.enabled());
  EXPECT_DOUBLE_EQ(params.fault.loss_rate, 0.01);
  EXPECT_DOUBLE_EQ(params.fault.ge_p_enter, 0.02);
  EXPECT_DOUBLE_EQ(params.fault.ge_p_exit, 0.3);
  EXPECT_DOUBLE_EQ(params.fault.ge_loss_bad, 0.9);
  EXPECT_EQ(params.fault.seed, 77u);
  ASSERT_EQ(params.fault.down.size(), 1u);
  EXPECT_EQ(params.fault.down[0].start, des::SimTime::from_micros(10e3));
  EXPECT_EQ(params.fault.down[0].end, des::SimTime::from_micros(20e3));
  EXPECT_NE(net::describe(params).find("fault:"), std::string::npos);

  // A seed above 2^53 must survive exactly (it used to pass through a
  // double and come back as ...992).
  std::istringstream big{"fault_seed = 9007199254740993\n"};
  EXPECT_EQ(net::parse_cluster(big, net::perseus(2)).fault.seed,
            9007199254740993ULL);
}

TEST(FaultConfig, RejectsBadFaultInput) {
  std::istringstream bad_prob{"fault_loss_rate = 1.5\n"};
  EXPECT_THROW((void)net::parse_cluster(bad_prob), std::runtime_error);
  std::istringstream stray_end{"fault_down_end_ms = 5\n"};
  EXPECT_THROW((void)net::parse_cluster(stray_end), std::runtime_error);
}

TEST(FaultConfig, DisabledFaultInjectionInstallsNoModels) {
  des::Engine engine;
  net::Network network{engine, net::perseus(2)};
  EXPECT_EQ(network.nic_tx(0).fault_model(), nullptr);
  EXPECT_EQ(network.total_faults(), 0u);
}

// --- end-to-end through MPIBench ---

TEST(FaultBench, IsendUnderLossDevelopsRtoTail) {
  mpibench::Options opt;
  opt.cluster = net::perseus(2);
  opt.cluster.fault.loss_rate = 0.03;
  opt.cluster.fault.seed = 9;
  opt.procs_per_node = 1;
  opt.repetitions = 120;
  opt.warmup = 8;
  opt.seed = 9;
  const auto result = mpibench::run_isend(opt, net::Bytes{1024});
  EXPECT_EQ(result.messages, 240u);
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(result.tcp_retransmits, 0u);
  EXPECT_GT(result.tcp_timeouts, 0u);
  // The retransmission tail: max one-way time lands at (or beyond) the
  // 200 ms RTO, two orders of magnitude over the lossless-path median.
  const auto dist = result.distribution();
  EXPECT_GT(dist.max(), 0.19);
  EXPECT_GT(dist.max(), 100.0 * dist.quantile(0.5));
}

}  // namespace
