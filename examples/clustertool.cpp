// clustertool: inspect a simulated cluster configuration.
//
// Prints the topology, per-pair routes, and — for a sweep of message sizes
// — the theoretical envelope T = l + b/W (the paper's contention-free
// model) next to measured minimum and average one-way times, showing where
// the simple linear model holds (2x1) and where it breaks (loaded
// configurations).
//
// Run: ./clustertool [nodes]          — inspect a Perseus slice
//      ./clustertool [nodes] cfg.txt  — apply "key = value" overrides
//                                       (net::parse_cluster) from cfg.txt
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <vector>

#include "mpibench/benchmark.h"
#include "net/cluster.h"
#include "net/network.h"

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 48;
  net::ClusterParams params = net::perseus(nodes);
  if (argc > 2) {
    std::ifstream in{argv[2]};
    if (!in) {
      std::fprintf(stderr, "cannot open cluster file %s\n", argv[2]);
      return 1;
    }
    try {
      params = net::parse_cluster(in, params);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[2], e.what());
      return 1;
    }
  }
  std::printf("%s\n", net::describe(params).c_str());

  des::Engine engine;
  net::Network network{engine, params};
  std::printf("routes (hop counts include NICs, fabric and trunks):\n");
  const int probes[][2] = {{0, 1},
                           {0, params.nodes - 1},
                           {params.nodes / 2, params.nodes - 1}};
  for (const auto& probe : probes) {
    if (probe[0] == probe[1]) continue;
    std::printf("  node %3d -> node %3d: %d hops (switch %d -> switch %d)\n",
                probe[0], probe[1], network.hop_count(probe[0], probe[1]),
                params.switch_of(probe[0]), params.switch_of(probe[1]));
  }

  // Theoretical envelope vs measurement. l and W from the quiet 2x1 case.
  std::printf("\nT = l + b/W versus measurement (one-way, microseconds):\n");
  mpibench::Options bench;
  bench.cluster = params;
  bench.cluster.nodes = 2;
  bench.repetitions = 120;
  bench.warmup = 16;
  const auto base_small = mpibench::run_isend(bench, net::Bytes{});
  const auto base_large = mpibench::run_isend(bench, net::Bytes{65536});
  const double latency = base_small.oneway.summary().min();
  const double bandwidth =  // bytes/second from the large-message slope
      65536.0 / (base_large.oneway.summary().min() - latency);
  std::printf("fitted: l = %.1f us, W = %.1f Mbit/s\n", latency * 1e6,
              bandwidth * 8 / 1e6);

  std::printf("%10s %12s %12s %12s %14s\n", "bytes", "T=l+b/W", "min(2x1)",
              "avg(2x1)", "avg(loaded)");
  mpibench::Options loaded = bench;
  loaded.cluster.nodes = std::max(2, nodes);
  for (const net::Bytes size :
       std::vector<net::Bytes>{net::Bytes{0}, net::Bytes{256}, net::Bytes{1024}, net::Bytes{4096}, net::Bytes{16384}, net::Bytes{65536}}) {
    const auto quiet = mpibench::run_isend(bench, size);
    const auto busy = mpibench::run_isend(loaded, size);
    const double theory = latency + size.to_double() / bandwidth;
    std::printf("%10llu %12.1f %12.1f %12.1f %14.1f\n",
                static_cast<unsigned long long>(size.count()), theory * 1e6,
                quiet.oneway.summary().min() * 1e6,
                quiet.oneway.summary().mean() * 1e6,
                busy.oneway.summary().mean() * 1e6);
  }
  std::printf("\n(avg(loaded) uses all %d nodes communicating pairwise;\n"
              "the gap to T = l + b/W is the contention the paper's\n"
              "distribution-based modelling captures.)\n",
              loaded.cluster.nodes);
  return 0;
}
