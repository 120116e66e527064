// Layer probes of the traced run: each one drives a single layer's public
// functions directly on fixed inputs, so its number moves only when that
// layer's code does. Allocations are counted by the instrumented operator
// new (spans.h) while the probes run.
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/request.h"
#include "core/sampler.h"
#include "des/engine.h"
#include "des/partitioned_engine.h"
#include "des/process.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/transport.h"
#include "serve/json.h"
#include "spans.h"
#include "stats/empirical.h"
#include "workloads.h"

namespace perfbench {
namespace {

using units::Duration;

/// Every per-layer metric the traced run reports, with its unit.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr std::array<LayerMetric, 47> kPerLayer{{
    {"des.engine.events_per_s", "1/s"},
    {"des.engine.allocs_per_event", "count"},
    {"des.process.resume_us", "us"},
    {"des.process.resume_us_t2", "us"},
    {"des.partition.events_per_s_t2", "1/s"},
    {"net.network.packets_per_s", "1/s"},
    {"net.network.allocs_per_packet", "count"},
    {"net.transport.msgs_per_s_1k", "1/s"},
    {"net.transport.msgs_per_s_16k", "1/s"},
    {"net.tcp_retransmits", "count"},
    {"net.tcp_timeouts", "count"},
    {"net.link_drops", "count"},
    {"net.retransmits_per_msg", "ratio"},
    {"mpi.pingpong_us_1k", "us"},
    {"mpi.pingpong_us_32k", "us"},
    {"mpibench.cell_s_1k", "s"},
    {"mpibench.cell_s_16k", "s"},
    {"mpibench.messages", "count"},
    {"mpibench.table_load_ms", "ms"},
    {"core.parse_ms", "ms"},
    {"core.replication_ms_p50", "ms"},
    {"core.replication_ms_p99", "ms"},
    {"core.reduce_us", "us"},
    {"core.vm.messages", "count"},
    {"core.vm.sweep_phases", "count"},
    {"core.vm.match_phases", "count"},
    {"core.sampler.draws_per_s", "1/s"},
    {"core.pool.busy_share", "ratio"},
    {"core.jacobi_err_pct", "%"},
    {"stats.empirical.samples_per_s", "1/s"},
    {"serve.json.encode_us", "us"},
    {"serve.json.decode_us", "us"},
    {"serve.service.predict_ms", "ms"},
    {"serve.service.heavy_predict_ms", "ms"},
    {"serve.protocol_ms", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.deadline_expired", "count"},
    {"serve.heavy_p50_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"wall.work_per_s", "1/s"},
    {"wall.p50_ms", "ms"},
    {"wall.p99_ms", "ms"},
    {"error_rate", "ratio"},
    {"trace.overhead_pct", "%"},
}};

/// Times `fn` once; returns seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// --- des ---------------------------------------------------------------

/// The engine_hot event mix: self-rescheduling timer chains with
/// packet-sized captures, an immediate wake-up per firing and, every fourth
/// firing, a long timer the next firing cancels.
struct Chain {
  des::Engine& engine;
  std::uint64_t lcg;
  std::uint64_t budget;
  des::Engine::EventId timer{};
  std::uint64_t fired = 0;

  std::uint64_t next() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  }
  void arm() {
    const Duration dt{1 + static_cast<std::int64_t>(next() & 1023)};
    const std::array<std::uint64_t, 6> payload{1, 2, 3, 4, 5, 6};
    engine.schedule_in(dt, [this, payload] {
      (void)payload;
      if (timer.valid()) {
        engine.cancel(timer);
        timer = {};
      }
      engine.schedule_in(Duration{}, [] {});
      if ((++fired & 3) == 0) timer = engine.schedule_in(Duration{100000}, [] {});
      if (--budget > 0) arm();
    });
  }
};

void probe_engine(Result& result) {
  const spans::Span span{"probe.des.engine"};
  des::Engine engine;
  std::vector<Chain> chains;
  for (std::uint64_t c = 0; c < 8; ++c) {
    chains.push_back(Chain{engine, 0x9e3779b97f4a7c15ULL + c, 2000});
  }
  for (Chain& c : chains) c.arm();  // warm the slot pool and heap
  engine.run();
  for (Chain& c : chains) {
    c.budget = 60000;
    c.arm();
  }
  const std::uint64_t events0 = engine.processed();
  const std::uint64_t allocs0 = spans::allocations();
  const double wall = timed([&] { engine.run(); });
  const auto events = static_cast<double>(engine.processed() - events0);
  result.set("des.engine.events_per_s", events / wall, "1/s");
  result.set("des.engine.allocs_per_event",
             static_cast<double>(spans::allocations() - allocs0) / events,
             "count");
}

/// 64 processes each looping delay(); returns wall microseconds per resume.
/// partitions == 1 runs them on one plain Engine.
double resume_us(int partitions, unsigned threads) {
  constexpr int kProcs = 64;
  constexpr int kDelays = 120;
  des::Engine engine;
  std::unique_ptr<des::PartitionSet> sim;
  if (partitions > 1) {
    sim = std::make_unique<des::PartitionSet>(partitions,
                                              Duration::from_micros(7.0));
  }
  std::vector<std::unique_ptr<des::Process>> procs(kProcs);
  for (int p = 0; p < kProcs; ++p) {
    des::Engine& home =
        sim ? sim->engine(des::PartitionId{p % partitions}) : engine;
    const Duration step = Duration::from_micros(10.0 + p % 3);
    procs[static_cast<std::size_t>(p)] = std::make_unique<des::Process>(
        home, std::to_string(p), [&procs, p, step] {
          for (int i = 0; i < kDelays; ++i) {
            procs[static_cast<std::size_t>(p)]->delay(step);
          }
        });
  }
  const double wall = timed([&] {
    if (sim) {
      sim->run(threads);
    } else {
      engine.run();
    }
  });
  for (auto& p : procs) p->rethrow_if_failed();
  return wall * 1e6 / (kProcs * (kDelays + 1));
}

void probe_process(Result& result) {
  {
    const spans::Span span{"probe.des.process"};
    result.set("des.process.resume_us", resume_us(1, 1), "us");
  }
  const spans::Span span{"probe.des.process_t2"};
  result.set("des.process.resume_us_t2", resume_us(2, 2), "us");
}

/// Timer chains on two partitions with a cross-partition post every eighth
/// firing, one lookahead out: the mailbox and window-barrier path.
struct PartChain {
  des::PartitionSet& sim;
  int part;
  std::uint64_t lcg;
  std::uint64_t budget;
  std::uint64_t fired = 0;

  void arm() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const Duration dt{1 + static_cast<std::int64_t>((lcg >> 33) & 1023)};
    sim.engine(des::PartitionId{part}).schedule_in(dt, [this] {
      des::Engine& engine = sim.engine(des::PartitionId{part});
      engine.schedule_in(Duration{}, [] {});
      if ((++fired & 7) == 0) {
        sim.post(des::PartitionId{part}, des::PartitionId{1 - part},
                 engine.now() + sim.lookahead(), [] {});
      }
      if (--budget > 0) arm();
    });
  }
};

void probe_partition(Result& result) {
  const spans::Span span{"probe.des.partition"};
  des::PartitionSet sim{2, Duration{4096}};
  std::vector<PartChain> chains;
  for (int p = 0; p < 2; ++p) {
    for (std::uint64_t c = 0; c < 64; ++c) {
      chains.push_back(PartChain{sim, p, 0x9e3779b97f4a7c15ULL + c * 2 + p,
                                 3000});
    }
  }
  for (PartChain& c : chains) c.arm();
  const double wall = timed([&] { sim.run(2); });
  result.set("des.partition.events_per_s_t2",
             static_cast<double>(sim.processed()) / wall, "1/s");
}

// --- net ---------------------------------------------------------------

/// Nodes on the first and last switch of the 64-node (3-switch) cluster.
constexpr int kNetNodes = 64;
constexpr int kPairs = 16;
constexpr int kFarOffset = 48;

/// A frame bouncing between a node pair across both trunks.
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

void probe_network(Result& result) {
  const spans::Span span{"probe.net.network"};
  des::Engine engine;
  net::Network network{engine, net::perseus(kNetNodes)};
  std::uint64_t remaining = 2000;
  std::uint64_t delivered = 0;
  std::vector<Train> trains;
  for (int t = 0; t < kPairs; ++t) {
    trains.push_back(Train{&network, &remaining, &delivered, t, kFarOffset + t});
  }
  for (Train& t : trains) t.bounce();  // fill the route cache and pools
  engine.run();
  remaining = 80000;
  delivered = 0;
  const std::uint64_t allocs0 = spans::allocations();
  const double wall = timed([&] {
    for (Train& t : trains) t.bounce();
    engine.run();
  });
  const auto packets = static_cast<double>(delivered);
  result.set("net.network.packets_per_s", packets / wall, "1/s");
  result.set("net.network.allocs_per_packet",
             static_cast<double>(spans::allocations() - allocs0) / packets,
             "count");
}

/// Messages of one size streamed between node pairs on different
/// switches, each pair sending its next message when the last arrives.
double transport_msgs_per_s(net::Bytes size, std::uint64_t messages) {
  des::Engine engine;
  net::Network network{engine, net::perseus(kNetNodes)};
  net::Transport transport{engine, network};
  std::uint64_t remaining = messages;
  std::uint64_t delivered = 0;
  struct Pair {
    net::Transport* transport;
    std::uint64_t* remaining;
    std::uint64_t* delivered;
    std::uint64_t stream;
    int src;
    int dst;
    net::Bytes size;
    void send() {
      if (*remaining == 0) return;
      --*remaining;
      transport->send(stream, src, dst, size, [this] {
        ++*delivered;
        send();
      });
    }
  };
  std::vector<Pair> pairs;
  for (int p = 0; p < kPairs; ++p) {
    pairs.push_back(Pair{&transport, &remaining, &delivered,
                         static_cast<std::uint64_t>(p), p, kFarOffset + p,
                         size});
  }
  const double wall = timed([&] {
    for (Pair& p : pairs) p.send();
    engine.run();
  });
  return static_cast<double>(delivered) / wall;
}

void probe_transport(Result& result) {
  const spans::Span span{"probe.net.transport"};
  result.set("net.transport.msgs_per_s_1k",
             transport_msgs_per_s(net::Bytes{1024}, 20000), "1/s");
  result.set("net.transport.msgs_per_s_16k",
             transport_msgs_per_s(net::Bytes{16384}, 3000), "1/s");
}

// --- mpi ---------------------------------------------------------------

/// Round trips of `size` bytes between two ranks on two nodes; returns wall
/// microseconds per round trip.
double pingpong_us(std::size_t size, int round_trips) {
  smpi::Runtime::Options opts;
  opts.cluster = net::perseus(2);
  opts.nprocs = 2;
  opts.seed = 11;
  smpi::Runtime rt{opts};
  const double wall = timed([&] {
    rt.run([&](smpi::Comm& comm) {
      std::vector<std::byte> buffer(size);
      const int peer = 1 - comm.rank();
      for (int i = 0; i < round_trips; ++i) {
        if (comm.rank() == 0) {
          comm.send(buffer, peer);
          comm.recv(buffer, peer);
        } else {
          comm.recv(buffer, peer);
          comm.send(buffer, peer);
        }
      }
    });
  });
  return wall * 1e6 / round_trips;
}

void probe_mpi(Result& result) {
  const spans::Span span{"probe.mpi.pingpong"};
  result.set("mpi.pingpong_us_1k", pingpong_us(1024, 800), "us");
  result.set("mpi.pingpong_us_32k", pingpong_us(32768, 300), "us");
}

// --- stats / core / mpibench / serve -------------------------------------

void probe_sampling(const ProbeInputs& in, Result& result) {
  const spans::Span span{"probe.core.sampler"};
  constexpr int kDraws = 400000;
  pevpm::DeliverySampler sampler{*in.table, pevpm::SamplerOptions{}, 42};
  double sink = 0.0;
  const double sampler_wall = timed([&] {
    for (int i = 0; i < kDraws; ++i) {
      sink += sampler.delivery_seconds(net::Bytes{1024}, 1 + i % 32);
    }
  });
  result.set("core.sampler.draws_per_s", kDraws / sampler_wall, "1/s");

  const std::vector<int> levels =
      in.table->contentions(mpibench::OpKind::kPtpOneWay);
  const stats::EmpiricalDistribution dist = in.table->lookup(
      mpibench::OpKind::kPtpOneWay, net::Bytes{1024}, levels.back());
  stats::Rng rng{7};
  const double empirical_wall = timed([&] {
    for (int i = 0; i < kDraws; ++i) sink += dist.sample(rng);
  });
  result.set("stats.empirical.samples_per_s", kDraws / empirical_wall, "1/s");
  if (!(sink > 0.0)) result.fail_check("sampled delivery times are not positive");
}

/// Median wall time of `times` calls of `fn`, each in its own span.
template <typename Fn>
double median_call_s(const char* name, int times, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const spans::Span span{name, static_cast<std::uint64_t>(i)};
    samples.push_back(timed(fn));
  }
  return median_of(std::move(samples));
}

void probe_parsing(const ProbeInputs& in, Result& result) {
  pevpm::PredictRequest request;
  request.model_text = in.model_text;
  std::size_t nodes = 0;
  result.set("core.parse_ms", 1e3 * median_call_s("core.parse_request_model", 30, [&] {
               nodes += pevpm::parse_request_model(request).body.size();
             }),
             "ms");
  std::size_t entries = 0;
  result.set("mpibench.table_load_ms",
             1e3 * median_call_s("mpibench.table_load", 30, [&] {
               std::istringstream is{in.table_text};
               entries += mpibench::DistributionTable::load(is).size();
             }),
             "ms");
  if (nodes == 0 || entries == 0) result.fail_check("probe inputs are empty");

  // A light pevpmd request frame: encode, and decode what the wire carries.
  serve::Json frame{serve::Json::Object{}};
  frame.set("type", serve::Json{"predict"});
  frame.set("model_text", serve::Json{in.model_text});
  frame.set("table_text", serve::Json{in.table_text});
  frame.set("procs", serve::Json{serve::Json::Array{serve::Json{8}}});
  frame.set("reps", serve::Json{4});
  frame.set("seed", serve::Json{std::uint64_t{1}});
  std::string line;
  result.set("serve.json.encode_us",
             1e6 * median_call_s("serve.json.dump", 200, [&] { line = frame.dump(); }),
             "us");
  std::size_t members = 0;
  result.set("serve.json.decode_us", 1e6 * median_call_s("serve.json.parse", 200, [&] {
               members += serve::Json::parse(line).as_object().size();
             }),
             "us");
  if (members == 0) result.fail_check("decoded request frame is empty");
}

}  // namespace

void zero_per_layer(Result& result) {
  for (const LayerMetric& m : kPerLayer) result.set(m.name, 0.0, m.unit);
}

void run_probes(const ProbeInputs& inputs, Result& result) {
  const bool was_enabled = spans::enabled();
  spans::enable(true);
  spans::count_allocations(true);
  probe_engine(result);
  probe_process(result);
  probe_partition(result);
  probe_network(result);
  probe_transport(result);
  probe_mpi(result);
  probe_sampling(inputs, result);
  probe_parsing(inputs, result);
  spans::count_allocations(false);
  spans::enable(was_enabled);
}

}  // namespace perfbench
