// engine_hot — hot-path microbenchmark for the discrete-event core.
//
// Measures, on the post-overhaul engine (des::Engine + SmallFn slots +
// route-cached Network):
//
//   * events/sec on a representative event mix (timer chains with
//     packet-sized captures, immediate wake-ups, and cancellations),
//   * packets/sec and allocations/packet through the full Network
//     forwarding path (route cache + transit pool + TCP-sized frames),
//   * events/sec through the partitioned engine: one fixed multi-switch
//     contention workload on an 8-partition PartitionSet, whose
//     cross-partition posts share the one event heap and carry
//     Engine::cross_tag, the key every Network crossing uses,
//
// with heap allocations counted by instrumented global operator new. The
// result document is emitted through gate.h.
//
// Usage:
//   engine_hot [--check BASELINE.json]
//
// With --check, current throughput must be at least 80% of the committed
// baseline and allocation rates must not exceed baseline + 0.05; any miss
// prints the offending metric and exits 1 (the CI perf-smoke gate; an
// unreadable baseline exits 2 before anything is measured).
// PEVPM_BENCH_QUICK=1 scales iteration counts down ~10x.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "gate.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/packet.h"

// ---------------------------------------------------------------------------
// Instrumented allocator: every operator-new call site in the process is
// counted, so allocs/event is exact rather than sampled.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Packet-sized payload carried by the chain events, mimicking what a link
/// arrival event carries (a net::Packet plus its delivery callback); the
/// engine stores it in the event slot.
struct Payload {
  std::uint64_t words[6] = {1, 2, 3, 4, 5, 6};
};

/// The representative mix: `chains` self-rescheduling timer chains at
/// staggered deterministic delays. Each firing schedules its successor
/// (with a Payload capture), an immediate zero-delay wake-up (the process
/// hand-off pattern), and on every fourth firing a long-delay timer that
/// the next firing cancels (the TCP retransmission-timer pattern).
struct MixState {
  des::Engine& engine;
  std::uint64_t lcg;
  std::uint64_t budget;
  des::Engine::EventId timer{};
  std::uint64_t fired = 0;

  std::uint64_t next_rand() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  }

  void arm() {
    const des::Duration dt{1 + static_cast<std::int64_t>(next_rand() & 1023)};
    Payload payload;
    engine.schedule_in(dt, [this, payload] {
      (void)payload;
      if (timer.valid()) {
        engine.cancel(timer);
        timer = {};
      }
      engine.schedule_in(des::Duration{}, [] {});
      ++fired;
      if ((fired & 3) == 0) {
        timer = engine.schedule_in(des::Duration{100000}, [] {});
      }
      if (--budget > 0) arm();
    });
  }
};

struct MixResult {
  double events_per_sec = 0;
  double allocs_per_event = 0;
};

MixResult run_mix(std::uint64_t events_per_chain, int chains) {
  des::Engine engine;
  std::vector<MixState> states;
  states.reserve(chains);
  for (int c = 0; c < chains; ++c) {
    states.push_back(MixState{
        engine, 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c),
        events_per_chain});
  }
  // Warm the pools/queues so steady-state allocation is what gets counted.
  for (auto& s : states) s.arm();
  engine.run();
  for (auto& s : states) {
    s.budget = events_per_chain;
    s.arm();
  }
  const std::uint64_t processed0 = engine.processed();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  engine.run();
  const double elapsed = seconds_since(t0);
  const std::uint64_t events = engine.processed() - processed0;
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  MixResult result;
  result.events_per_sec = static_cast<double>(events) / elapsed;
  result.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(events);
  return result;
}

struct ForwardResult {
  double packets_per_sec = 0;
  double allocs_per_packet = 0;
  double events_per_sec = 0;
};

/// End-to-end forwarding: ping-pong trains across the switch chain of a
/// 16-node Perseus cluster, exercising the route cache, the transit pool
/// and the per-hop switch-latency events exactly as TCP segments do.
/// One ping-pong train bouncing a frame between a node pair. The delivery
/// callback captures a single Train* so the driver itself stays inside
/// std::function's small-object buffer — every allocation counted below
/// comes from the stack under test, not the harness.
struct Train {
  net::Network* network;
  std::uint64_t* remaining;
  std::uint64_t* delivered;
  int src;
  int dst;

  void bounce() {
    if (*remaining == 0) return;
    --*remaining;
    net::Packet packet;
    packet.src_node = src;
    packet.dst_node = dst;
    packet.wire_bytes = net::Bytes{1500};
    network->send(
        packet,
        [this](const net::Packet&) {
          ++*delivered;
          std::swap(src, dst);
          bounce();
        },
        nullptr);
  }
};

ForwardResult run_forwarding(std::uint64_t packets) {
  des::Engine engine;
  net::Network network{engine, net::perseus(16)};
  constexpr int kTrains = 32;
  std::uint64_t remaining = packets < 2000 ? packets : 2000;
  std::uint64_t delivered = 0;

  // Pairs span switch boundaries so routes have trunk hops.
  std::vector<Train> trains;
  trains.reserve(kTrains);
  for (int t = 0; t < kTrains; ++t) {
    trains.push_back(Train{&network, &remaining, &delivered, t % 8,
                           8 + (t % 8)});
  }
  // Warm-up pass fills the route cache and grows the pools.
  for (Train& train : trains) train.bounce();
  engine.run();

  remaining = packets;
  delivered = 0;
  const std::uint64_t processed0 = engine.processed();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (Train& train : trains) train.bounce();
  engine.run();
  const double elapsed = seconds_since(t0);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  ForwardResult result;
  result.packets_per_sec = static_cast<double>(delivered) / elapsed;
  result.allocs_per_packet =
      static_cast<double>(allocs) / static_cast<double>(delivered);
  result.events_per_sec =
      static_cast<double>(engine.processed() - processed0) / elapsed;
  return result;
}

// ---------------------------------------------------------------------------
// Partitioned engine: the multi-switch contention scenario. Eight
// partitions (one per "switch"), each loaded with self-rescheduling timer
// chains as in the mix above, plus a ring of cross-partition posts so
// PartitionSet::post and its Engine::cross_tag keys are on the measured
// path.
// The workload is a pure function of its constants.

constexpr int kScalingPartitions = 8;
constexpr int kScalingChainsPerPartition = 64;
/// Cross-partition post distance; chains fire every 1..1024 ticks.
constexpr des::Duration kScalingLookahead{4096};

struct PartitionChain {
  des::PartitionSet& sim;
  int part;
  std::uint64_t lcg;
  std::uint64_t budget;
  std::uint64_t fired = 0;

  std::uint64_t next_rand() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  }

  void arm() {
    des::Engine& engine = sim.engine(des::PartitionId{part});
    const des::Duration dt{1 + static_cast<std::int64_t>(next_rand() & 1023)};
    Payload payload;
    engine.schedule_in(dt, [this, payload] {
      (void)payload;
      ++fired;
      sim.engine(des::PartitionId{part}).schedule_in(des::Duration{}, [] {});
      if ((fired & 7) == 0) {
        // Cross-partition ping to the ring neighbour, one lookahead out —
        // the trunk-hop pattern the partitioned Network generates.
        const int to = (part + 1) % kScalingPartitions;
        sim.post(des::PartitionId{part}, des::PartitionId{to},
                 sim.engine(des::PartitionId{part}).now() + kScalingLookahead,
                 [] {});
      }
      if (--budget > 0) arm();
    });
  }
};

/// Runs the partitioned scenario once and returns events/sec.
double run_partitioned(std::uint64_t events_per_chain) {
  des::PartitionSet sim{kScalingPartitions, kScalingLookahead};
  std::vector<PartitionChain> chains;
  chains.reserve(kScalingPartitions * kScalingChainsPerPartition);
  for (int p = 0; p < kScalingPartitions; ++p) {
    for (int c = 0; c < kScalingChainsPerPartition; ++c) {
      chains.push_back(PartitionChain{
          sim, p,
          0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(p * kScalingChainsPerPartition + c),
          events_per_chain});
    }
  }
  for (PartitionChain& chain : chains) chain.arm();
  const auto t0 = Clock::now();
  sim.run();
  const double elapsed = seconds_since(t0);
  return static_cast<double>(sim.processed()) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string check_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_file = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check BASELINE.json]\n", argv[0]);
      return 2;
    }
  }
  std::optional<serve::Json> baseline;
  if (!check_file.empty()) {
    baseline = gate::load_baseline(check_file);
    if (!baseline) return 2;
  }

  const std::uint64_t mix_events =
      benchutil::quick() ? 20000 : 200000;  // per chain x 8 chains
  const std::uint64_t packets = benchutil::quick() ? 20000 : 200000;

  const std::uint64_t partitioned_events =
      benchutil::quick() ? 4000 : 40000;  // per chain x 64 chains x 8 parts

  const MixResult mix = run_mix(mix_events, 8);
  const ForwardResult forward = run_forwarding(packets);
  // One throwaway pass warms the allocator arenas first.
  (void)run_partitioned(partitioned_events / 4 + 1);
  const double partitioned_events_per_sec =
      run_partitioned(partitioned_events);

  serve::Json doc{serve::Json::Object{}};
  doc.set("schema", "pevpm-engine-hot-v2");
  doc.set("engine_events_per_sec", mix.events_per_sec);
  doc.set("engine_allocs_per_event", mix.allocs_per_event);
  doc.set("forward_packets_per_sec", forward.packets_per_sec);
  doc.set("forward_allocs_per_packet", forward.allocs_per_packet);
  doc.set("forward_events_per_sec", forward.events_per_sec);
  doc.set("partitioned_events_per_sec_t1", partitioned_events_per_sec);
  if (!gate::emit(doc)) return 1;
  if (!baseline) return 0;

  gate::Checker check{doc, *baseline};
  check.at_least_fraction("engine_events_per_sec", 0.8);
  check.at_least_fraction("forward_packets_per_sec", 0.8);
  check.at_least_fraction("partitioned_events_per_sec_t1", 0.8);
  check.at_most_plus("engine_allocs_per_event", 0.05);
  check.at_most_plus("forward_allocs_per_packet", 0.05);
  return check.finish(check_file);
}
