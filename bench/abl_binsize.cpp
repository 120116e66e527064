// Ablation 1 (Section 6 discussion): the paper attributes PEVPM's residual
// prediction error mainly to the histogram bin size of the benchmark data,
// reducible with finer bins at higher evaluation cost. This bench sweeps
// the MPIBench bin width and reports prediction error and table size for
// the communication-heavy Jacobi variant.
#include <cmath>

#include "bench_util.h"
#include "jacobi_workload.h"

int main() {
  benchutil::banner("Ablation 1", "histogram bin width vs prediction error");
  const int iterations = benchutil::scaled(100, 10);
  const int table_reps = benchutil::scaled(200, 40);
  const int procs = 16;
  const double serial = jacobi::kSerialSeconds / 100;  // comm-heavy

  // A fixed comm-heavy workload and actual measurement.
  pevpm::Model model = jacobi::model();
  {
    std::string text = model.str();
    const std::string from = "serial time = (3.24 / numprocs)";
    const std::string to =
        "serial time = (" + std::to_string(serial) + " / numprocs)";
    text.replace(text.find(from), from.size(), to);
    model = pevpm::parse_model(text, "jacobi-commheavy");
  }
  smpi::Runtime::Options ro;
  ro.cluster = net::perseus(procs);
  ro.nprocs = procs;
  ro.seed = 808;
  smpi::Runtime rt{ro};
  rt.run([&](smpi::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    std::vector<std::byte> halo(jacobi::kHaloBytes.count());
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
      comm.compute(serial / p);
    }
  });
  const double actual = rt.elapsed().to_seconds() / iterations;

  std::printf("bin_width_us,pred_ms,err_pct,mean_abs_err_vs_finest_pct\n");
  double finest_prediction = 0.0;
  for (const double bin_us : {1.0, 5.0, 25.0, 100.0, 400.0, 1600.0}) {
    auto opt = benchutil::bench_options(2, 1, table_reps);
    opt.bin_width_us = bin_us;
    const std::vector<net::Bytes> sizes{jacobi::kHaloBytes};
    const std::vector<mpibench::Config> configs{{2, 1}, {8, 1}, {16, 1}};
    const auto table = mpibench::measure_isend_table(opt, sizes, configs);
    pevpm::SamplerOptions sampler;
    const double predicted =
        jacobi::predict_one_iteration(model, procs, table, sampler, 8);
    if (bin_us == 1.0) finest_prediction = predicted;
    std::printf("%.0f,%.3f,%+.1f,%.1f\n", bin_us, predicted * 1e3,
                100.0 * (predicted - actual) / actual,
                100.0 * std::fabs(predicted - finest_prediction) /
                    finest_prediction);
  }
  std::printf("# actual per-iteration time: %.3f ms. Coarser bins blur the\n"
              "# sampled distributions; error should grow with bin width.\n",
              actual * 1e3);
  return 0;
}
