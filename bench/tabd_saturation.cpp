// In-text claim (Section 3): saturation onset. With 64 x 1 processes and
// 16 KB messages, ~24 flows of ~84 Mbit/s crossed the two fully-utilised
// switches — 2.02 Gbit/s offered against the 2.1 Gbit/s stacking matrix,
// "the backplane limit had been reached". This bench sweeps the node count
// and reports the trunk's offered load, utilisation and loss behaviour.
#include "bench_util.h"

#include "des/engine.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "net/network.h"

namespace {

struct TrunkStats {
  double offered_gbit = 0.0;
  double busy_fraction = 0.0;
  std::uint64_t drops = 0;
  std::uint64_t timeouts = 0;
  double avg_us = 0.0;
  double max_us = 0.0;
};

TrunkStats run_config(int nodes, net::Bytes size, int reps) {
  auto opt = benchutil::bench_options(nodes, 1, reps);
  // Measure through MPIBench but also pull trunk link statistics. We
  // re-run the benchmark pattern on a runtime we own so the network
  // object is observable.
  smpi::Runtime::Options ro;
  ro.cluster = opt.cluster;
  ro.nprocs = nodes;
  ro.seed = 99;
  smpi::Runtime rt{ro};
  stats::Summary oneway;
  rt.run([&](smpi::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    const int half = p / 2;
    const int partner = r < half ? r + half : r - half;
    std::vector<des::SimTime> starts;
    for (int rep = 0; rep < reps; ++rep) {
      if (r < half) {
        const des::SimTime t0 = comm.sim_now();
        comm.send_bytes(size, partner, 1);
        comm.recv_bytes(size, partner, 1);
        // Round trip at ground truth: half of it approximates one-way.
        oneway.add((comm.sim_now() - t0).to_seconds() / 2.0);
      } else {
        comm.recv_bytes(size, partner, 1);
        comm.send_bytes(size, partner, 1);
      }
    }
  });
  TrunkStats out;
  if (ro.cluster.switch_count() > 1) {
    const net::Link& trunk = rt.network().trunk(0);
    out.offered_gbit = trunk.bytes_sent().to_double() * 8.0 /
                       rt.elapsed().to_seconds() / 1e9;
    out.busy_fraction = static_cast<double>(trunk.busy_time().ns()) /
                        static_cast<double>(rt.elapsed().ns());
  }
  out.drops = rt.network().total_drops();
  out.timeouts = rt.transport().timeouts();
  out.avg_us = oneway.mean() * 1e6;
  out.max_us = oneway.max() * 1e6;
  return out;
}

}  // namespace

int main() {
  benchutil::banner("Table D (in-text)", "stack trunk saturation onset");
  const int reps = benchutil::scaled(80, 16);
  const net::Bytes size{65536};

  std::printf(
      "nodes,trunk_carried_gbit,trunk_busy_frac,drops,tcp_timeouts,"
      "avg_us,max_us\n");
  for (const int nodes : {16, 32, 40, 48, 56, 64}) {
    const TrunkStats s = run_config(nodes, size, reps);
    std::printf("%d,%.2f,%.2f,%llu,%llu,%.0f,%.0f\n", nodes, s.offered_gbit,
                s.busy_fraction, static_cast<unsigned long long>(s.drops),
                static_cast<unsigned long long>(s.timeouts), s.avg_us,
                s.max_us);
  }
  std::printf("# paper: degradation once offered inter-switch load reaches\n"
              "# ~2.0 Gbit/s against the 2.1 Gbit/s matrix; expect busy_frac\n"
              "# -> 1 and drops/timeouts appearing at the larger configs.\n");
  return 0;
}
