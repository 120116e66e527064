// Component micro-benchmarks (google-benchmark): throughput of the pieces
// the simulator and the PEVPM are built from. These guard against
// performance regressions in the substrate — the paper's evaluation-cost
// claim (Table C) depends on the VM staying cheap.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/parse.h"
#include "core/predict.h"
#include "des/engine.h"
#include "net/cluster.h"
#include "net/link.h"
#include "net/transport.h"
#include "stats/empirical.h"
#include "stats/histogram.h"
#include "stats/rng.h"

namespace {

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    des::Engine engine;
    for (int i = 0; i < 1024; ++i) {
      engine.schedule_at(des::SimTime{i}, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.processed());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EngineScheduleRun);

void BM_RngUniform(benchmark::State& state) {
  stats::Rng rng{1};
  double acc = 0.0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void BM_HistogramAdd(benchmark::State& state) {
  stats::Rng rng{2};
  stats::Histogram hist{1e-5};
  for (auto _ : state) hist.add(rng.uniform(0.0, 1e-2));
  benchmark::DoNotOptimize(hist.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void BM_EmpiricalSample(benchmark::State& state) {
  stats::Rng rng{3};
  stats::Histogram hist{1e-5};
  for (int i = 0; i < 10000; ++i) hist.add(rng.lognormal(-8.0, 0.3));
  const stats::EmpiricalDistribution dist{hist};
  double acc = 0.0;
  for (auto _ : state) acc += dist.sample(rng);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmpiricalSample);

/// The lockstep draw: one batch over 16 lanes' generators (PEVPM's
/// kMaxLanes), counted per lane draw.
void BM_EmpiricalSampleLanes(benchmark::State& state) {
  constexpr int kLanes = 16;
  stats::Rng rng{3};
  stats::Histogram hist{1e-5};
  for (int i = 0; i < 10000; ++i) hist.add(rng.lognormal(-8.0, 0.3));
  const stats::EmpiricalDistribution dist{hist};
  std::vector<stats::Rng> lanes;
  for (int lane = 0; lane < kLanes; ++lane) lanes.emplace_back(4 + lane);
  std::vector<double> out(kLanes);
  double acc = 0.0;
  for (auto _ : state) {
    dist.sample(lanes, out);
    acc += out[0];
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * kLanes);
}
BENCHMARK(BM_EmpiricalSampleLanes);

void BM_LinkPacketForwarding(benchmark::State& state) {
  for (auto _ : state) {
    des::Engine engine;
    net::Link link{engine, "l",
                   net::LinkParams{net::Rate::mbit(100),
                                   des::Duration::from_micros(1),
                                   net::Bytes{1 << 20}}};
    net::Packet packet;
    packet.wire_bytes = net::Bytes{1538};
    for (int i = 0; i < 512; ++i) {
      engine.schedule_at(link.submit_resolved(packet).arrive, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(link.packets_sent());
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_LinkPacketForwarding);

void BM_TransportMessage(benchmark::State& state) {
  const net::Bytes bytes{static_cast<std::uint64_t>(state.range(0))};
  for (auto _ : state) {
    des::Engine engine;
    net::Network network{engine, net::perseus(2)};
    net::Transport transport{engine, network};
    transport.send(1, 0, 1, bytes, nullptr);
    engine.run();
    benchmark::DoNotOptimize(transport.messages_delivered());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long>(bytes.count()));
}
BENCHMARK(BM_TransportMessage)->Arg(1024)->Arg(65536);

void BM_PevpmPingPongIterations(benchmark::State& state) {
  // VM throughput: modelled ping-pong iterations evaluated per second.
  mpibench::DistributionTable table;
  table.insert(mpibench::OpKind::kPtpOneWay, net::Bytes{1024}, 1,
               stats::EmpiricalDistribution::constant(150e-6));
  table.insert(mpibench::OpKind::kPtpSender, net::Bytes{1024}, 1,
               stats::EmpiricalDistribution::constant(25e-6));
  const pevpm::Model model = pevpm::parse_model(R"(
loop 1000 {
  runon procnum == 0 {
    message send size = 1024 to = 1
    message recv size = 1024 from = 1
  } else {
    message recv size = 1024 from = 0
    message send size = 1024 to = 0
  }
}
)");
  for (auto _ : state) {
    pevpm::DeliverySampler sampler{table, {}, 7};
    const auto result = pevpm::simulate(model, 2, {}, sampler);
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PevpmPingPongIterations);

}  // namespace

BENCHMARK_MAIN();
