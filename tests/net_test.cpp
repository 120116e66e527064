// Unit tests for links, topology/routing and the cluster description.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "des/engine.h"
#include "net/cluster.h"
#include "net/link.h"
#include "net/network.h"

namespace {

using net::operator""_KiB;

net::Packet packet(std::uint64_t id, int src, int dst, net::Bytes wire) {
  net::Packet p;
  p.id = id;
  p.src_node = src;
  p.dst_node = dst;
  p.wire_bytes = wire;
  return p;
}

using OnPacket = std::function<void(const net::Packet&)>;

/// Submits `p` and schedules its fate the way the network's final hop
/// does: `deliver` at the arrival instant, or `drop` at the would-be
/// arrival for a wire loss and at once for a tail drop.
void submit(net::Link& link, const net::Packet& p, OnPacket deliver,
            OnPacket drop) {
  const net::Link::Resolved resolved = link.submit_resolved(p);
  if (resolved.outcome == net::Link::SubmitOutcome::kDropped) {
    if (drop) drop(p);
    return;
  }
  OnPacket fire = resolved.outcome == net::Link::SubmitOutcome::kLost
                      ? std::move(drop)
                      : std::move(deliver);
  link.engine().schedule_at(resolved.arrive, [p, fire = std::move(fire)] {
    if (fire) fire(p);
  });
}

TEST(Link, SerialisationPlusLatency) {
  des::Engine engine;
  // 100 Mbit/s, 5 us latency: 1250 wire bytes = 100 us on the wire.
  net::LinkParams params{net::Rate::mbit(100), des::Duration::from_micros(5),
                         1_KiB * 64};
  net::Link link{engine, "l", params};
  des::SimTime arrival{-1};
  submit(link, packet(1, 0, 1, net::Bytes{1250}),
               [&](const net::Packet&) { arrival = engine.now(); }, nullptr);
  engine.run();
  EXPECT_EQ(arrival, des::SimTime::from_micros(105));
  EXPECT_EQ(link.packets_sent(), 1u);
  EXPECT_EQ(link.bytes_sent(), net::Bytes{1250});
  EXPECT_EQ(link.busy_time(), des::Duration::from_micros(100));
}

TEST(Link, FifoQueueingDelaysSecondPacket) {
  des::Engine engine;
  net::LinkParams params{net::Rate::mbit(100), des::Duration{}, 1_KiB * 64};
  net::Link link{engine, "l", params};
  std::vector<des::SimTime> arrivals;
  for (int i = 0; i < 3; ++i) {
    submit(link, packet(i, 0, 1, net::Bytes{1250}),
                 [&](const net::Packet&) { arrivals.push_back(engine.now()); },
                 nullptr);
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], des::SimTime::from_micros(100));
  EXPECT_EQ(arrivals[1], des::SimTime::from_micros(200));
  EXPECT_EQ(arrivals[2], des::SimTime::from_micros(300));
  EXPECT_EQ(link.peak_backlog(), net::Bytes{3750});
}

TEST(Link, TailDropWhenBufferFull) {
  des::Engine engine;
  net::LinkParams params{net::Rate::mbit(100), des::Duration{},
                         net::Bytes{2500}};  // two packets max
  net::Link link{engine, "l", params};
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < 4; ++i) {
    submit(link, packet(i, 0, 1, net::Bytes{1250}),
                 [&](const net::Packet&) { ++delivered; },
                 [&](const net::Packet&) { ++dropped; });
  }
  engine.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(link.packets_dropped(), 2u);
}

TEST(Link, BacklogDrainsAfterServicing) {
  des::Engine engine;
  net::LinkParams params{net::Rate::mbit(100), des::Duration{}, 64_KiB};
  net::Link link{engine, "l", params};
  submit(link, packet(0, 0, 1, net::Bytes{1250}), nullptr, nullptr);
  EXPECT_EQ(link.backlog(), net::Bytes{1250});
  engine.run();
  EXPECT_EQ(link.backlog(), net::Bytes{});
}

TEST(Link, PerPacketServiceDominatesSmallFrames) {
  des::Engine engine;
  net::LinkParams params{net::Rate::gbit(2.1), des::Duration{}, 1_KiB * 1024,
                         des::Duration::from_micros(2)};
  net::Link link{engine, "l", params};
  std::vector<des::SimTime> arrivals;
  for (int i = 0; i < 2; ++i) {
    submit(link, packet(i, 0, 1, net::Bytes{84}),
                 [&](const net::Packet&) { arrivals.push_back(engine.now()); },
                 nullptr);
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Each packet costs 2 us + 84 B / 2.1 Gbit/s (0.32 us).
  EXPECT_GT(arrivals[1] - arrivals[0], des::Duration::from_micros(2));
}

// ---- lazy backlog retirement ---------------------------------------------
//
// A link retires a packet's queue bytes when the release event it no longer
// schedules would have run. Each test below holds it to the eager
// behaviour: a real release event at busy_until.

/// The eager link: the same queue accounting, with one real release event
/// per accepted packet. It takes the same sequence numbers the lazy link
/// reserves, so two engines driven by one script stay in lockstep.
class EagerLink {
 public:
  EagerLink(des::Engine& engine, net::LinkParams params)
      : engine_{engine}, params_{params} {}

  bool submit(const net::Packet& p) {
    if (backlog_ + p.wire_bytes > params_.buffer) return false;
    backlog_ += p.wire_bytes;
    peak_ = std::max(peak_, backlog_);
    busy_until_ = std::max(engine_.now(), busy_until_) + params_.per_packet +
                  params_.rate.time_to_send(p.wire_bytes);
    engine_.schedule_at(busy_until_,
                        [this, bytes = p.wire_bytes] { backlog_ -= bytes; });
    return true;
  }
  void reset_stats() { peak_ = backlog_; }
  [[nodiscard]] net::Bytes backlog() const { return backlog_; }
  [[nodiscard]] net::Bytes peak_backlog() const { return peak_; }

 private:
  des::Engine& engine_;
  net::LinkParams params_;
  des::SimTime busy_until_{};
  net::Bytes backlog_{};
  net::Bytes peak_{};
};

/// 100 Mbit/s, no latency: 1250 wire bytes take exactly 100 us.
const net::LinkParams kOnePacketBuffer{net::Rate::mbit(100), des::Duration{},
                                       net::Bytes{1250}};

TEST(Link, SubmitAtTheReleaseInstantFollowsTheEventOrder) {
  // A fills the buffer until t = 100 us. Submits at exactly that instant
  // see the queue slot free only if their event sorts after A's release
  // (time, priority, schedule time, sequence), as with an eager event.
  des::Engine engine;
  net::Link link{engine, "l", kOnePacketBuffer};
  const des::SimTime release = des::SimTime::from_micros(100);
  std::vector<std::pair<char, bool>> accepted;
  const auto try_submit = [&](char who) {
    const bool ok = link.submit_resolved(packet(0, 0, 1, net::Bytes{1250}))
                        .outcome != net::Link::SubmitOutcome::kDropped;
    accepted.emplace_back(who, ok);
  };
  engine.schedule_at(release, [&] { try_submit('x'); });  // earlier seq
  (void)link.submit_resolved(packet(0, 0, 1, net::Bytes{1250}));  // A
  engine.schedule_at(release, [&] { try_submit('y'); });  // later seq
  engine.schedule_at(release, [&] { try_submit('z'); }, -1);  // priority
  engine.run();
  const std::vector<std::pair<char, bool>> expected{
      {'z', false}, {'x', false}, {'y', true}};
  EXPECT_EQ(accepted, expected);
  EXPECT_EQ(link.packets_dropped(), 2u);
}

TEST(Link, BacklogReadsMatchEagerReleaseEvents) {
  // One seeded script drives a lazy link on one engine and the eager link
  // on another. Times sit on a 10 us grid and every packet serialises in a
  // multiple of 10 us, so submits keep landing on release instants. The
  // backlog and its peak must agree inside every callback, after every
  // step() (the eager engine steps until it has run the same script
  // event), after run_until() and after run() — reset_stats() mid-drain
  // included.
  struct Side {
    des::Engine engine;
    std::vector<std::string> trace;
    int fired = 0;
  };
  const net::LinkParams params{net::Rate::mbit(100), des::Duration{},
                               net::Bytes{2000}};
  Side lazy;
  Side eager;
  net::Link link{lazy.engine, "l", params};
  EagerLink reference{eager.engine, params};
  // Entries carry now(), except after run(): the eager engine ends at its
  // last release event, which the lazy engine never schedules.
  const auto record = [](Side& side, const char* where, net::Bytes backlog,
                         net::Bytes peak) {
    const bool timed = std::string_view{where} != "run";
    side.trace.push_back(
        std::string{where} + " " +
        std::to_string(timed ? side.engine.now().ns() : 0) + " " +
        std::to_string(backlog.count()) + " " + std::to_string(peak.count()));
  };
  const auto observe = [&](const char* where) {
    record(lazy, where, link.backlog(), link.peak_backlog());
    record(eager, where, reference.backlog(), reference.peak_backlog());
  };

  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto rnd = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  const auto grid = [](std::uint64_t steps) {
    return des::Duration::from_micros(10.0 * static_cast<double>(steps));
  };
  // Script event `id` submits a packet and may reset the stats; events
  // 0-199 are scheduled up front and may each schedule event id + 200
  // (offset 0 exercises the immediate queue). The random draws happen here,
  // once, so both sides replay one script.
  struct Op {
    net::Bytes bytes{};
    bool reset = false;
    bool follow = false;
    des::Duration offset{};
    int priority = 0;
  };
  constexpr std::size_t kTopLevel = 200;
  std::vector<Op> ops(2 * kTopLevel);
  for (Op& op : ops) {
    op.bytes = net::Bytes{125 * (1 + rnd(8))};
    op.reset = rnd(16) == 0;
    op.follow = rnd(2) == 0;
    op.offset = grid(rnd(6));
    op.priority = static_cast<int>(rnd(3)) - 1;
  }
  std::function<void(Side&, std::size_t)> fire = [&](Side& side,
                                                     std::size_t id) {
    const Op& op = ops[id];
    ++side.fired;
    if (&side == &lazy) {
      (void)link.submit_resolved(packet(id, 0, 1, op.bytes));
      if (op.reset) link.reset_stats();
      record(side, "callback", link.backlog(), link.peak_backlog());
    } else {
      (void)reference.submit(packet(id, 0, 1, op.bytes));
      if (op.reset) reference.reset_stats();
      record(side, "callback", reference.backlog(), reference.peak_backlog());
    }
    if (op.follow && id < kTopLevel) {
      side.engine.schedule_in(
          op.offset,
          [&fire, &side, child = id + kTopLevel] { fire(side, child); },
          op.priority);
    }
  };
  for (std::size_t id = 0; id < kTopLevel; ++id) {
    const des::SimTime at = des::SimTime{} + grid(rnd(150));
    const int priority = static_cast<int>(rnd(3)) - 1;
    for (Side* side : {&lazy, &eager}) {
      side->engine.schedule_at(
          at, [&fire, side, id] { fire(*side, id); }, priority);
    }
  }
  for (int control = 0; control < 300; ++control) {
    if (rnd(2) == 0) {
      if (!lazy.engine.step()) break;
      while (eager.fired < lazy.fired) ASSERT_TRUE(eager.engine.step());
      observe("step");
    } else {
      const des::SimTime until = lazy.engine.now() + grid(rnd(4));
      lazy.engine.run_until(until);
      eager.engine.run_until(until);
      observe("run_until");
    }
  }
  lazy.engine.run();
  eager.engine.run();
  observe("run");
  EXPECT_EQ(link.backlog(), net::Bytes{});
  ASSERT_EQ(lazy.trace.size(), eager.trace.size());
  for (std::size_t i = 0; i < lazy.trace.size(); ++i) {
    ASSERT_EQ(lazy.trace[i], eager.trace[i]) << "diverged at entry " << i;
  }
  EXPECT_GT(link.packets_dropped(), 0u) << "the buffer never filled";
}

TEST(Link, ResetStatsMidDrainStartsThePeakAtTheCurrentBacklog) {
  des::Engine engine;
  net::Link link{engine, "l",
                 net::LinkParams{net::Rate::mbit(100), des::Duration{},
                                 64_KiB}};
  for (int i = 0; i < 3; ++i) {
    (void)link.submit_resolved(packet(i, 0, 1, net::Bytes{1250}));
  }
  EXPECT_EQ(link.peak_backlog(), net::Bytes{3750});
  // Releases at 100 and 200 us have run by 250 us; the third has not.
  engine.run_until(des::SimTime::from_micros(250));
  EXPECT_EQ(link.backlog(), net::Bytes{1250});
  link.reset_stats();
  EXPECT_EQ(link.peak_backlog(), net::Bytes{1250});
  EXPECT_EQ(link.packets_sent(), 0u);
  engine.run();
  EXPECT_EQ(link.backlog(), net::Bytes{});
  EXPECT_EQ(link.peak_backlog(), net::Bytes{1250});
  // A submit after the run is queued until the engine runs again.
  (void)link.submit_resolved(packet(3, 0, 1, net::Bytes{1250}));
  EXPECT_EQ(link.backlog(), net::Bytes{1250});
}

TEST(Network, HopCountsReflectTopology) {
  des::Engine engine;
  net::ClusterParams params = net::perseus(64);
  net::Network network{engine, params};
  // Same switch: nic_tx + fabric + nic_rx.
  EXPECT_EQ(network.hop_count(0, 1), 3);
  // Adjacent switches (node 0 on switch 0, node 30 on switch 1): one trunk.
  EXPECT_EQ(network.hop_count(0, 30), 4);
  // Two trunk hops: node 0 (switch 0) to node 55 (switch 2).
  EXPECT_EQ(network.hop_count(0, 55), 5);
  EXPECT_EQ(network.hop_count(55, 0), 5);
}

TEST(Network, RouteRejectsBadNodes) {
  des::Engine engine;
  net::Network network{engine, net::perseus(4)};
  EXPECT_THROW((void)network.hop_count(0, 4), std::out_of_range);
  EXPECT_THROW((void)network.hop_count(-1, 2), std::out_of_range);
  EXPECT_THROW((void)network.hop_count(2, 2), std::invalid_argument);
}

TEST(Network, DeliversAcrossSwitches) {
  des::Engine engine;
  net::ClusterParams params = net::perseus(48);
  net::Network network{engine, params};
  bool delivered = false;
  network.send(packet(1, 0, 47, net::Bytes{1538}),
               [&](const net::Packet&) { delivered = true; }, nullptr);
  engine.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(network.trunk(0).packets_sent(), 1u);
  EXPECT_EQ(network.nic_tx(0).packets_sent(), 1u);
  EXPECT_EQ(network.nic_rx(47).packets_sent(), 1u);
  EXPECT_EQ(network.fabric(0).packets_sent(), 1u);
  EXPECT_EQ(network.total_drops(), 0u);
}

TEST(Network, WireLossOnEachHopDropsAtTheWouldBeArrival) {
  // The second packet on every link is lost, and packets are sent one at a
  // time, so packet 2 dies on nic_tx.0 (hop 0), packet 3 on the fabric
  // (hop 1) and packet 4 on nic_rx.1 (the final hop). Each drop callback
  // fires when the packet would have arrived, queue bytes still drain,
  // and the transit records are reused for packet 5.
  des::Engine engine;
  net::ClusterParams params = net::perseus(2);
  params.fault.drop_nth = {2};
  net::Network network{engine, params};
  std::vector<std::uint64_t> delivered;
  std::vector<std::pair<std::uint64_t, des::SimTime>> dropped;
  des::SimTime second_sent{};
  for (std::uint64_t id = 1; id <= 5; ++id) {
    if (id == 2) second_sent = engine.now();
    network.send(packet(id, 0, 1, net::Bytes{1538}),
                 [&](const net::Packet& p) { delivered.push_back(p.id); },
                 [&](const net::Packet& p) {
                   dropped.emplace_back(p.id, engine.now());
                 });
    engine.run();
  }
  const net::LinkParams& nic = params.nic;
  const des::SimTime would_reach_switch =
      second_sent + nic.per_packet + nic.rate.time_to_send(net::Bytes{1538}) +
      nic.latency;
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_EQ(dropped[0], std::make_pair(std::uint64_t{2}, would_reach_switch));
  EXPECT_EQ(dropped[1].first, 3u);
  EXPECT_EQ(dropped[2].first, 4u);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 5}));
  EXPECT_EQ(network.nic_tx(0).packets_sent(), 5u);
  EXPECT_EQ(network.fabric(0).packets_sent(), 4u);
  EXPECT_EQ(network.nic_rx(1).packets_sent(), 3u);
  EXPECT_EQ(network.total_faults(), 3u);
  for (net::Link* link : network.route(0, 1)) {
    EXPECT_EQ(link->backlog(), net::Bytes{}) << link->name();
  }
}

TEST(Network, StatsCsvListsLinks) {
  des::Engine engine;
  net::Network network{engine, net::perseus(30)};
  const std::string csv = network.stats_csv();
  EXPECT_NE(csv.find("nic_tx.0"), std::string::npos);
  EXPECT_NE(csv.find("trunk.0"), std::string::npos);
  EXPECT_NE(csv.find("fabric.1"), std::string::npos);
}

TEST(Cluster, PerseusShape) {
  const net::ClusterParams p = net::perseus(116);
  EXPECT_EQ(p.nodes, 116);
  EXPECT_EQ(p.switch_count(), 5);
  EXPECT_EQ(p.switch_of(0), 0);
  EXPECT_EQ(p.switch_of(23), 0);
  EXPECT_EQ(p.switch_of(24), 1);
  EXPECT_NEAR(p.nic.rate.bps(), 100e6, 1);
  EXPECT_NEAR(p.trunk.rate.bps(), 2.1e9, 1);
  EXPECT_THROW((void)net::perseus(0), std::invalid_argument);
  EXPECT_THROW((void)net::perseus(117), std::invalid_argument);
}

TEST(Cluster, DescribeMentionsKeyFigures) {
  const std::string text = net::describe(net::perseus(64));
  EXPECT_NE(text.find("64 nodes"), std::string::npos);
  EXPECT_NE(text.find("100 Mbit/s"), std::string::npos);
  EXPECT_NE(text.find("2.1 Gbit/s"), std::string::npos);
}

TEST(Cluster, ParseOverridesBase) {
  std::istringstream is{R"(
# a downgraded cluster
nodes = 8
nic_mbit = 10
eager_threshold_kib = 4
rto_ms = 100
)"};
  const net::ClusterParams p = net::parse_cluster(is, net::perseus(64));
  EXPECT_EQ(p.nodes, 8);
  EXPECT_NEAR(p.nic.rate.bps(), 10e6, 1);
  EXPECT_EQ(p.mpi.eager_threshold, net::Bytes{4096});
  EXPECT_EQ(p.tcp.rto_initial, des::Duration::from_micros(100e3));
}

TEST(Cluster, ParseRejectsUnknownKeyAndBadNumber) {
  std::istringstream bad_key{"frobnicate = 3\n"};
  EXPECT_THROW((void)net::parse_cluster(bad_key), std::runtime_error);
  std::istringstream bad_num{"nodes = banana\n"};
  EXPECT_THROW((void)net::parse_cluster(bad_num), std::runtime_error);
  std::istringstream no_eq{"nodes 4\n"};
  EXPECT_THROW((void)net::parse_cluster(no_eq), std::runtime_error);
}

TEST(Cluster, ParseRejectsMalformedValues) {
  // Each text once parsed through a double: trailing junk was ignored,
  // negatives wrapped, out-of-range casts were undefined and NaN reached
  // the simulator. Every one must now fail on its line, naming its key.
  const struct {
    const char* text;
    const char* key;
  } cases[] = {
      {"nodes = 8x\n", "nodes"},
      {"nic_mbit = nan\n", "nic_mbit"},
      {"nodes = 1e12\n", "nodes"},
      {"nic_buffer_frames = -3\n", "nic_buffer_frames"},
      {"fault_seed = 1.5\n", "fault_seed"},
      {"rto_ms = -1\n", "rto_ms"},
      {"spike_prob = 2\n", "spike_prob"},
      {"jitter_sigma = 1000\n", "jitter_sigma"},
      {"fault_down_start_ms = 5\nfault_down_end_ms = 1\n",
       "fault_down_end_ms"},
  };
  for (const auto& c : cases) {
    std::istringstream is{c.text};
    try {
      (void)net::parse_cluster(is, net::perseus(16));
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line "), std::string::npos) << what;
      EXPECT_NE(what.find(c.key), std::string::npos) << what;
    }
  }
}

TEST(Cluster, RejectedSettingLeavesParamsUnchanged) {
  net::ClusterParams params = net::perseus(16);
  EXPECT_THROW(net::apply_cluster_setting(params, "nic_mbit", "0"),
               std::runtime_error);
  EXPECT_THROW(net::apply_cluster_setting(params, "fault_down_end_ms", "1"),
               std::runtime_error);
  EXPECT_DOUBLE_EQ(params.nic.rate.bps(), 100e6);
  EXPECT_TRUE(params.fault.down.empty());
  // check_cluster sees the whole configuration; a single key cannot.
  params.ports_per_switch = 0;
  EXPECT_THROW(net::check_cluster(params), std::runtime_error);
}

TEST(Cluster, ParseRejectsUnpartitionableMultiSwitch) {
  // Zero trunk and switch latency leave no lookahead between switch
  // partitions; the runtime cannot simulate that, so the text is rejected.
  const std::string zero = "trunk_latency_us = 0\nswitch_latency_us = 0\n";
  std::istringstream multi{zero};
  try {
    (void)net::parse_cluster(multi, net::perseus(64));
    FAIL() << "zero lookahead accepted on three switches";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trunk_latency_us"), std::string::npos) << what;
    EXPECT_NE(what.find("switch_latency_us"), std::string::npos) << what;
  }
  // One switch has no partition boundary, so the same text is fine there,
  // and either latency alone keeps a multi-switch cluster runnable.
  std::istringstream single{zero};
  EXPECT_EQ(net::parse_cluster(single, net::perseus(16)).switch_count(), 1);
  std::istringstream no_switch_latency{"switch_latency_us = 0\n"};
  EXPECT_GT(
      net::parse_cluster(no_switch_latency, net::perseus(64)).safe_lookahead(),
      des::Duration{});
}

TEST(Cluster, ParseRejectsMoreSwitchesThanTheCrossKeyHolds) {
  // A crossing's key packs its source switch into 19 bits; a larger
  // cluster must be refused at parse time, naming the bound. Parsing
  // builds nothing: no network, simulation or thread.
  const int max = des::Engine::kMaxCrossSources;
  ASSERT_EQ(max, 1 << 19);
  std::istringstream over{"ports_per_switch = 1\nnodes = " +
                          std::to_string(max + 1) + "\n"};
  try {
    (void)net::parse_cluster(over);
    FAIL() << "accepted " << max + 1 << " switches";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2^19"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(max)), std::string::npos) << what;
  }
  std::istringstream at{"ports_per_switch = 1\nnodes = " +
                        std::to_string(max) + "\n"};
  EXPECT_EQ(net::parse_cluster(at).switch_count(), max);
}

TEST(Cluster, ParseBoundsEveryDurationAndRateKey) {
  // A value that would overflow a Duration somewhere on a frame's path is
  // a parse error naming its key; the largest accepted value still parses.
  const struct {
    const char* key;
    const char* over;
    const char* limit;
  } cases[] = {
      {"nic_latency_us", "1e300", "1e6"},
      {"trunk_latency_us", "1000001", "1e6"},
      {"switch_latency_us", "1e7", "1e6"},
      {"send_overhead_us", "1e300", "1e6"},
      {"recv_overhead_us", "1e300", "1e6"},
      {"spike_mean_us", "1e300", "1e6"},
      {"lookahead_us", "1e300", "1e6"},
      {"rto_ms", "1e300", "120000"},
      {"copy_ns_per_byte", "1e300", "1e6"},
      {"nic_mbit", "1e-300", "0.001"},
      {"trunk_gbit", "1e-300", "1e-6"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.key);
    std::istringstream bad{std::string{c.key} + " = " + c.over + "\n"};
    try {
      (void)net::parse_cluster(bad, net::perseus(16));
      ADD_FAILURE() << "accepted " << c.over;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 1"), std::string::npos) << what;
      EXPECT_NE(what.find(c.key), std::string::npos) << what;
    }
    std::istringstream edge{std::string{c.key} + " = " + c.limit + "\n"};
    EXPECT_NO_THROW((void)net::parse_cluster(edge, net::perseus(16)));
  }
}

TEST(Units, RateConversions) {
  EXPECT_DOUBLE_EQ(net::Rate::mbit(100).bps(), 1e8);
  EXPECT_DOUBLE_EQ(net::Rate::gbit(2.1).bps(), 2.1e9);
  EXPECT_DOUBLE_EQ(net::Rate::mbyte(10).byte_per_sec(), 1e7);
  // 1538 bytes at 100 Mbit/s = 123.04 us.
  EXPECT_EQ(net::Rate::mbit(100).time_to_send(net::Bytes{1538}),
            des::Duration{123040});
}

TEST(Units, WireFormatFraming) {
  const net::WireFormat wire;
  EXPECT_EQ(wire.mss(), net::Bytes{1460});
  // Full frame: 1460 + 40 + 18 + 20 = 1538 wire bytes.
  EXPECT_EQ(wire.segment_wire_bytes(net::Bytes{1460}), net::Bytes{1538});
  // Tiny segments pad to the 64-byte minimum plus preamble/IFG.
  EXPECT_EQ(wire.ack_wire_bytes(), net::Bytes{84});
}

}  // namespace
