// Regular-global communication: a distributed 1-D FFT via the transpose
// (four-step) algorithm — the second application class from Section 6 of
// the paper (regular and global communication).
//
// The N-point input is viewed as an N1 x N2 matrix (N = N1 * N2, both
// powers of two). Each rank owns N1/P rows. Per transform:
//
//   1. local FFTs of length N2 over the owned rows,
//   2. twiddle multiplication by W_N^(i*j),
//   3. a global transpose (all-to-all of P equal blocks),
//   4. local FFTs of length N1 over the transposed rows.
//
// The result equals the DFT of the input in transposed index order, which
// the program verifies against a serial FFT at rank 0. The same run is
// then predicted with PEVPM, modelling the all-to-all as the pairwise
// exchange its implementation uses.
//
// Run: ./fft [procs] [transforms]
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <vector>

#include "core/parse.h"
#include "core/predict.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"

namespace {

using Complex = std::complex<double>;

constexpr int kN1 = 64;
constexpr int kN2 = 64;
constexpr int kN = kN1 * kN2;
/// Virtual CPU cost of one butterfly stage pass over local data — a
/// 500 MHz-era estimate (~40 ns per complex butterfly).
constexpr double kButterflySeconds = 40e-9;

/// Iterative radix-2 Cooley-Tukey, in place.
void fft(std::vector<Complex>& a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wl{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      Complex w{1.0, 0.0};
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wl;
      }
    }
  }
}

/// One rank's part of the distributed transform. Returns its slice of the
/// final (transposed-order) spectrum.
std::vector<Complex> parallel_fft_rank(smpi::Comm& comm,
                                       const std::vector<Complex>& input) {
  const int p = comm.size();
  const int r = comm.rank();
  const int rows = kN1 / p;  // rows of the N1 x N2 view owned by this rank

  // Owned rows of the input viewed as an N1 x N2 matrix in column-major
  // decimation (Bailey's four-step): A[n1][n2] = x[n1 + n2*N1], so row n1
  // gathers every N1-th input sample.
  std::vector<Complex> mine(static_cast<std::size_t>(rows) * kN2);
  for (int i = 0; i < rows; ++i) {
    const int global_row = r * rows + i;
    for (int j = 0; j < kN2; ++j) {
      mine[static_cast<std::size_t>(i) * kN2 + j] =
          input[static_cast<std::size_t>(global_row) + static_cast<std::size_t>(j) * kN1];
    }
  }

  // 1. Row FFTs of length N2 + 2. twiddles.
  for (int i = 0; i < rows; ++i) {
    std::vector<Complex> row(mine.begin() + static_cast<std::ptrdiff_t>(i) * kN2,
                             mine.begin() + static_cast<std::ptrdiff_t>(i + 1) * kN2);
    fft(row);
    const int global_row = r * rows + i;
    for (int j = 0; j < kN2; ++j) {
      const double angle = -2.0 * std::numbers::pi * global_row * j / kN;
      row[j] *= Complex{std::cos(angle), std::sin(angle)};
      mine[static_cast<std::size_t>(i) * kN2 + j] = row[j];
    }
  }
  comm.compute(kButterflySeconds * rows * kN2 *
               (std::log2(kN2) + 1.0));

  // 3. Global transpose: rank r sends to rank d the (rows x cols) tile
  // destined for d's rows of the transposed matrix.
  const int cols = kN2 / p;
  std::vector<Complex> send_blocks(static_cast<std::size_t>(rows) * kN2);
  for (int d = 0; d < p; ++d) {
    for (int i = 0; i < rows; ++i) {
      for (int c = 0; c < cols; ++c) {
        send_blocks[(static_cast<std::size_t>(d) * rows + i) * cols + c] =
            mine[static_cast<std::size_t>(i) * kN2 + d * cols + c];
      }
    }
  }
  std::vector<Complex> recv_blocks(send_blocks.size());
  const std::size_t block_bytes =
      static_cast<std::size_t>(rows) * cols * sizeof(Complex);
  comm.alltoall(std::as_bytes(std::span<const Complex>{send_blocks}),
                std::as_writable_bytes(std::span<Complex>{recv_blocks}),
                block_bytes);

  // Rearrange received tiles into rows of the transposed matrix: this rank
  // now owns columns [r*cols, (r+1)*cols) of the original = rows of the
  // transpose, each of length N1.
  std::vector<Complex> transposed(static_cast<std::size_t>(cols) * kN1);
  for (int s = 0; s < p; ++s) {  // sender rank: original rows s*rows..
    for (int i = 0; i < rows; ++i) {
      for (int c = 0; c < cols; ++c) {
        transposed[static_cast<std::size_t>(c) * kN1 + s * rows + i] =
            recv_blocks[(static_cast<std::size_t>(s) * rows + i) * cols + c];
      }
    }
  }

  // 4. Row FFTs of length N1 over the transposed rows.
  for (int c = 0; c < cols; ++c) {
    std::vector<Complex> row(
        transposed.begin() + static_cast<std::ptrdiff_t>(c) * kN1,
        transposed.begin() + static_cast<std::ptrdiff_t>(c + 1) * kN1);
    fft(row);
    std::copy(row.begin(), row.end(),
              transposed.begin() + static_cast<std::ptrdiff_t>(c) * kN1);
  }
  comm.compute(kButterflySeconds * cols * kN1 * std::log2(kN1));
  return transposed;
}

}  // namespace

int main(int argc, char** argv) {
  const int procs = argc > 1 ? std::atoi(argv[1]) : 8;
  const int transforms = argc > 2 ? std::atoi(argv[2]) : 50;
  if (kN1 % procs != 0 || kN2 % procs != 0) {
    std::fprintf(stderr, "procs must divide %d\n", kN1);
    return 1;
  }

  // Input signal: two tones plus a DC offset.
  std::vector<Complex> input(kN);
  for (int t = 0; t < kN; ++t) {
    input[t] = Complex{0.5 + std::sin(2 * std::numbers::pi * 5 * t / kN) +
                           0.25 * std::sin(2 * std::numbers::pi * 37 * t / kN),
                       0.0};
  }

  // Actual distributed run.
  smpi::Runtime::Options opts;
  opts.cluster = net::perseus(procs);
  opts.nprocs = procs;
  opts.seed = 31;
  smpi::Runtime rt{opts};
  double max_rel_error = 0.0;
  rt.run([&](smpi::Comm& comm) {
    std::vector<Complex> slice;
    for (int rep = 0; rep < transforms; ++rep) {
      slice = parallel_fft_rank(comm, input);
    }
    // Verification: gather slices at rank 0 and compare with a serial FFT.
    const int cols = kN2 / comm.size();
    std::vector<Complex> full(comm.rank() == 0 ? kN : 0);
    comm.gather(std::as_bytes(std::span<const Complex>{slice}),
                std::as_writable_bytes(std::span<Complex>{full}), 0);
    if (comm.rank() == 0) {
      std::vector<Complex> serial = input;
      fft(serial);
      double peak = 0.0;
      for (const Complex& v : serial) peak = std::max(peak, std::abs(v));
      // Parallel output is transposed: element (k2, k1) of the N2 x N1
      // matrix holds spectrum index k1 * N2 + k2.
      for (int j2 = 0; j2 < kN2; ++j2) {
        for (int j1 = 0; j1 < kN1; ++j1) {
          const Complex got = full[static_cast<std::size_t>(j2) * kN1 + j1];
          const Complex want = serial[static_cast<std::size_t>(j1) * kN2 + j2];
          max_rel_error =
              std::max(max_rel_error, std::abs(got - want) / peak);
        }
      }
      static_cast<void>(cols);
    }
  });
  const double actual = rt.elapsed().to_seconds();
  std::printf("parallel FFT (N=%d, P=%d, %d transforms): %.4f s\n", kN,
              procs, transforms, actual);
  std::printf("max relative error vs serial FFT: %.2e %s\n", max_rel_error,
              max_rel_error < 1e-9 ? "(exact)" : "");

  // PEVPM prediction: the pairwise-exchange all-to-all plus compute.
  std::printf("\nmeasuring MPIBench table for the transpose block size...\n");
  mpibench::Options bench;
  bench.repetitions = 150;
  bench.warmup = 16;
  bench.seed = 5;
  const net::Bytes block{static_cast<std::uint64_t>(kN1 / procs) *
                         (kN2 / procs) * sizeof(Complex)};
  std::vector<net::Bytes> sizes{block};
  std::vector<mpibench::Config> configs{{2, 1}, {procs, 1}};
  const auto table = mpibench::measure_isend_table(bench, sizes, configs);

  const std::string model_text =
      "param block = " + std::to_string(block.count()) + "\n" +
      "param stage1 = " +
      std::to_string(kButterflySeconds * (kN1 / procs) * kN2 *
                     (std::log2(kN2) + 1.0)) + "\n" +
      "param stage2 = " +
      std::to_string(kButterflySeconds * (kN2 / procs) * kN1 *
                     std::log2(kN1)) + "\n" + R"(
loop transforms {
  serial time = stage1
  loop numprocs - 1 as k {
    message isend size = block to = (procnum + k + 1) % numprocs handle = s
    message irecv size = block from = (procnum - k - 1 + numprocs) % numprocs handle = r
    wait s
    wait r
  }
  serial time = stage2
}
)";
  pevpm::Model model = pevpm::parse_model(model_text, "fft");
  model.parameters["transforms"] = transforms;
  pevpm::PredictOptions popt;
  popt.replications = 5;
  const auto prediction = pevpm::predict(model, procs, {}, table, popt);
  std::printf("PEVPM predicted: %.4f s (%+.1f%% vs actual)\n",
              prediction.seconds(),
              100 * (prediction.seconds() - actual) / actual);
  return 0;
}
