// The Section 6 Jacobi workload, shared by the figure/table benches:
// the Figure 5 annotated model and a matching "actual" runner for the
// simulated cluster.
#pragma once

#include <string>
#include <vector>

#include "core/parse.h"
#include "core/predict.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace jacobi {

constexpr int kXSize = 256;
constexpr double kSerialSeconds = 3.24;  // measured full-grid iteration cost
constexpr net::Bytes kHaloBytes{kXSize * sizeof(float)};

/// Figure 5 annotations for one iteration (the loop is applied by the
/// caller so iteration counts stay flexible).
inline const char* annotations() {
  return R"(
// PEVPM Param xsize = 256
// PEVPM Runon c1 = procnum%2 == 0
// PEVPM &     c2 = procnum%2 != 0
// PEVPM {
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum-1
// PEVPM }
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum+1
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum+1 & to = procnum
// PEVPM }
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum-1 & to = procnum
// PEVPM }
// PEVPM }
// PEVPM {
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum+1 & to = procnum
// PEVPM }
// PEVPM Message type = MPI_Recv & size = xsize*4 & from = procnum-1 & to = procnum
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum-1
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Send & size = xsize*4 & from = procnum & to = procnum+1
// PEVPM }
// PEVPM }
// PEVPM Serial on perseus time = 3.24/numprocs
)";
}

[[nodiscard]] inline pevpm::Model model() {
  return pevpm::parse_annotated_source(annotations(), "jacobi-fig5");
}

/// The Figure 5 model inside an `iterations`-long Loop, so an evaluation
/// really executes every iteration, as the paper's did.
[[nodiscard]] inline pevpm::Model looped_model(int iterations) {
  std::string text = annotations();
  const std::size_t after_param = text.find('\n', text.find("Param")) + 1;
  text.insert(after_param, "// PEVPM Loop iterations = " +
                               std::to_string(iterations) + "\n// PEVPM {\n");
  text += "// PEVPM }\n";
  return pevpm::parse_annotated_source(text, "jacobi-looped");
}

/// One rank's communication + compute structure (message pattern only; the
/// numerics live in examples/jacobi.cpp).
inline void run_rank(smpi::Comm& comm, int iterations) {
  const int p = comm.size();
  const int r = comm.rank();
  std::vector<std::byte> halo(kHaloBytes.count());
  for (int it = 0; it < iterations; ++it) {
    if (r % 2 == 0) {
      if (r != 0) comm.send(halo, r - 1, 0);
      if (r != p - 1) {
        comm.send(halo, r + 1, 0);
        comm.recv(halo, r + 1, 0);
      }
      if (r != 0) comm.recv(halo, r - 1, 0);
    } else {
      if (r != p - 1) comm.recv(halo, r + 1, 0);
      comm.recv(halo, r - 1, 0);
      comm.send(halo, r - 1, 0);
      if (r != p - 1) comm.send(halo, r + 1, 0);
    }
    comm.compute(kSerialSeconds / p);
  }
}

/// Actual execution time on the simulated cluster, in seconds.
[[nodiscard]] inline double measure_actual(int nodes, int ppn, int iterations,
                                           std::uint64_t seed = 4242) {
  smpi::Runtime::Options opts;
  opts.cluster = net::perseus(nodes);
  opts.procs_per_node = ppn;
  opts.nprocs = nodes * ppn;
  opts.seed = seed;
  smpi::Runtime rt{opts};
  rt.run([&](smpi::Comm& comm) { run_rank(comm, iterations); });
  return rt.elapsed().to_seconds();
}

/// PEVPM per-iteration prediction under the given sampler options.
[[nodiscard]] inline double predict_one_iteration(
    const pevpm::Model& m, int nprocs, const mpibench::DistributionTable& table,
    pevpm::SamplerOptions sampler, int replications = 5) {
  pevpm::PredictOptions opts;
  opts.sampler = sampler;
  opts.replications = replications;
  opts.seed = 321;
  return pevpm::predict(m, nprocs, {}, table, opts).seconds();
}

}  // namespace jacobi
