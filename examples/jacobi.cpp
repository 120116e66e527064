// The paper's Section 6 application: parallel Jacobi iteration on a
// 256 x 256 grid with a 1-D decomposition, odd/even neighbour exchange
// exactly as the Figure 5 skeleton, run three ways:
//
//   * "actual"  — really executed on the simulated cluster, with real grid
//                 arithmetic (so numerics are verifiable) and the paper's
//                 measured serial cost charged as virtual compute time;
//   * PEVPM     — the Figure 5 annotations extracted from this very file
//                 and evaluated against MPIBench distribution tables;
//   * naive     — the same model evaluated with 2x1 ping-pong averages,
//                 the "conventional benchmark" prediction.
//
// Run: ./jacobi [max_procs] [iterations]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/parse.h"
#include "core/predict.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace {

constexpr int kXSize = 256;
constexpr int kYSize = 256;
constexpr double kSerialSeconds = 3.24;  // paper: measured time / numprocs

/// The PEVPM annotations for the exchange below, in the paper's Figure 5
/// notation. parse_annotated_source() extracts the model from this string
/// — the same "annotate the real code" workflow the paper describes.
constexpr const char* kAnnotatedSkeleton = R"(
// PEVPM Param xsize = 256
// PEVPM Loop iterations = 1
// PEVPM {
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
// PEVPM }
)";

/// One rank's share of the grid, with halo rows above and below.
struct Subgrid {
  int rows = 0;  // interior rows owned by this rank
  std::vector<float> cells;  // (rows + 2) x kXSize

  float* row(int r) { return cells.data() + static_cast<std::size_t>(r) * kXSize; }
};

void jacobi_rank(smpi::Comm& comm, int iterations, double* checksum) {
  const int p = comm.size();
  const int r = comm.rank();
  Subgrid grid;
  grid.rows = kYSize / p + (r < kYSize % p ? 1 : 0);
  grid.cells.assign(static_cast<std::size_t>(grid.rows + 2) * kXSize, 0.0f);
  // Boundary condition: the global top edge is hot.
  if (r == 0) {
    for (int x = 0; x < kXSize; ++x) grid.row(0)[x] = 100.0f;
  }
  std::vector<float> next(grid.cells.size(), 0.0f);
  const auto halo = [&](float* ptr) {
    return std::as_writable_bytes(std::span<float>{ptr, kXSize});
  };

  for (int it = 0; it < iterations; ++it) {
    // The Figure 5 odd/even exchange order, verbatim.
    if (r % 2 == 0) {
      if (r != 0) comm.send(halo(grid.row(1)), r - 1, 0);
      if (r != p - 1) {
        comm.send(halo(grid.row(grid.rows)), r + 1, 0);
        comm.recv(halo(grid.row(grid.rows + 1)), r + 1, 0);
      }
      if (r != 0) comm.recv(halo(grid.row(0)), r - 1, 0);
    } else {
      if (r != p - 1) comm.recv(halo(grid.row(grid.rows + 1)), r + 1, 0);
      comm.recv(halo(grid.row(0)), r - 1, 0);
      comm.send(halo(grid.row(1)), r - 1, 0);
      if (r != p - 1) comm.send(halo(grid.row(grid.rows)), r + 1, 0);
    }
    // Real stencil arithmetic (verifiable numerics). The hot top boundary
    // lives in rank 0's upper halo row and is never overwritten, so heat
    // diffuses downward; the global bottom row and side columns are fixed.
    for (int y = 1; y <= grid.rows; ++y) {
      const bool bottom_edge = r == p - 1 && y == grid.rows;
      for (int x = 0; x < kXSize; ++x) {
        if (bottom_edge || x == 0 || x == kXSize - 1) {
          next[static_cast<std::size_t>(y) * kXSize + x] = grid.row(y)[x];
          continue;
        }
        next[static_cast<std::size_t>(y) * kXSize + x] =
            0.25f * (grid.row(y)[x - 1] + grid.row(y)[x + 1] +
                     grid.row(y - 1)[x] + grid.row(y + 1)[x]);
      }
    }
    std::copy(next.begin(), next.end(), grid.cells.begin());
    // ...while virtual time advances by the paper's measured serial cost.
    comm.compute(kSerialSeconds / p);
  }
  double local = 0.0;
  for (int y = 1; y <= grid.rows; ++y) {
    for (int x = 0; x < kXSize; ++x) local += grid.row(y)[x];
  }
  checksum[r] = comm.allreduce_one(local, smpi::ReduceOp::kSum);
}

}  // namespace

int main(int argc, char** argv) {
  const int max_procs = argc > 1 ? std::atoi(argv[1]) : 16;
  const int iterations = argc > 2 ? std::atoi(argv[2]) : 20;

  // MPIBench tables for the halo-message size across contention levels.
  std::printf("measuring MPIBench tables (sizes: 1 KiB halo)...\n");
  mpibench::Options bench;
  bench.repetitions = 150;
  bench.warmup = 16;
  bench.seed = 17;
  std::vector<net::Bytes> sizes{net::Bytes{kXSize * sizeof(float)}};
  std::vector<mpibench::Config> configs;
  for (int n = 2; n <= max_procs; n *= 2) configs.push_back({n, 1});
  const auto table = mpibench::measure_isend_table(bench, sizes, configs);

  // Extract the PEVPM model from the annotated skeleton above. The model
  // covers one iteration; iterations are statistically identical, so a
  // run is predicted as iterations x (one-iteration prediction), matching
  // the paper's per-iteration reporting.
  const pevpm::Model model =
      pevpm::parse_annotated_source(kAnnotatedSkeleton, "jacobi");

  std::printf(
      "\n%6s %12s %12s %8s %12s %8s %12s\n", "procs", "actual(s)",
      "pevpm(s)", "err%", "naive2x1(s)", "err%", "checksum");
  for (int p = 2; p <= max_procs; p *= 2) {
    // Actual run on the simulated cluster.
    smpi::Runtime::Options opts;
    opts.cluster = net::perseus(p);
    opts.nprocs = p;
    opts.seed = 1234 + p;
    smpi::Runtime rt{opts};
    std::vector<double> checksum(p, 0.0);
    rt.run([&](smpi::Comm& comm) {
      jacobi_rank(comm, iterations, checksum.data());
    });
    const double actual = rt.elapsed().to_seconds();

    // PEVPM prediction from distributions.
    pevpm::PredictOptions popt;
    popt.replications = 5;
    popt.seed = 99;
    const auto one = pevpm::predict(model, p, {}, table, popt);
    const double pevpm_s = one.seconds() * iterations;

    popt.sampler.mode = pevpm::PredictionMode::kAverage;
    popt.sampler.contention = pevpm::ContentionSource::kFixed;
    popt.sampler.fixed_contention = 1;  // 2x1 ping-pong table level
    const auto naive = pevpm::predict(model, p, {}, table, popt);
    const double naive_s = naive.seconds() * iterations;

    std::printf("%6d %12.4f %12.4f %7.1f%% %12.4f %7.1f%% %12.0f\n", p,
                actual, pevpm_s, 100 * (pevpm_s - actual) / actual, naive_s,
                100 * (naive_s - actual) / actual, checksum[0]);
  }
  std::printf("\n(The checksum is identical across process counts: the\n"
              "parallel decomposition computes the same grid as serial.)\n");
  return 0;
}
