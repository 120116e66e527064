// In-text claim (Section 6): PEVPM predicts completion time "to within 5%
// and usually to within 1%", consistently across machine sizes, while
// average- and minimum-based predictions degrade as processors are added.
//
// Two workloads: the paper's compute-weighted Jacobi, and a
// communication-dominated variant (serial time cut 100x) that stresses the
// communication model far harder than the paper did.
#include <cmath>

#include "bench_util.h"
#include "jacobi_workload.h"

namespace {

double measure_actual_with_serial(int nodes, int ppn, int iterations,
                                  double serial_seconds) {
  smpi::Runtime::Options opts;
  opts.cluster = net::perseus(nodes);
  opts.procs_per_node = ppn;
  opts.nprocs = nodes * ppn;
  opts.seed = 515;
  smpi::Runtime rt{opts};
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
      comm.compute(serial_seconds / p);
    }
  });
  return rt.elapsed().to_seconds() / iterations;
}

}  // namespace

int main() {
  benchutil::banner("Table B (in-text)", "prediction error by mode and P");
  const int iterations = benchutil::scaled(100, 10);
  const int table_reps = benchutil::scaled(200, 40);

  const std::vector<int> proc_counts{2, 4, 8, 16, 32, 64};
  std::vector<mpibench::Config> bench_configs;
  for (const int p : proc_counts) bench_configs.push_back({p, 1});
  const std::vector<net::Bytes> sizes{jacobi::kHaloBytes};
  const auto table = mpibench::measure_isend_table(
      benchutil::bench_options(2, 1, table_reps), sizes, bench_configs);

  std::printf(
      "workload,procs,actual_ms,dist_err_pct,avg_nxp_err_pct,"
      "avg_2x1_err_pct,min_2x1_err_pct\n");
  struct Workload {
    const char* name;
    double serial;
  };
  for (const Workload w : {Workload{"jacobi(paper)", jacobi::kSerialSeconds},
                           Workload{"comm-heavy", jacobi::kSerialSeconds / 100}}) {
    // Rescale the model's Serial directive via a parameter-free trick: the
    // Figure 5 model hard-codes 3.24/numprocs, so rebuild it textually.
    pevpm::Model model = jacobi::model();
    if (w.serial != jacobi::kSerialSeconds) {
      std::string text = model.str();
      const std::string from = "serial time = (3.24 / numprocs)";
      const std::string to =
          "serial time = (" + std::to_string(w.serial) + " / numprocs)";
      text.replace(text.find(from), from.size(), to);
      model = pevpm::parse_model(text, "jacobi-scaled");
    }
    for (const int p : proc_counts) {
      const double actual = measure_actual_with_serial(p, 1, iterations,
                                                       w.serial);
      auto err = [&](pevpm::SamplerOptions opts) {
        const double predicted =
            jacobi::predict_one_iteration(model, p, table, opts);
        return 100.0 * (predicted - actual) / actual;
      };
      pevpm::SamplerOptions dist;
      pevpm::SamplerOptions avg_nxp;
      avg_nxp.mode = pevpm::PredictionMode::kAverage;
      avg_nxp.contention = pevpm::ContentionSource::kFixed;
      avg_nxp.fixed_contention = std::max(1, p / 2);
      pevpm::SamplerOptions avg_2x1 = avg_nxp;
      avg_2x1.fixed_contention = 1;
      pevpm::SamplerOptions min_2x1 = avg_2x1;
      min_2x1.mode = pevpm::PredictionMode::kMinimum;
      std::printf("%s,%d,%.3f,%+.1f,%+.1f,%+.1f,%+.1f\n", w.name, p,
                  actual * 1e3, err(dist), err(avg_nxp), err(avg_2x1),
                  err(min_2x1));
    }
  }
  std::printf("# paper: dist within 5%% (usually 1%%); 2x1-based models\n"
              "# always overestimate performance (negative error here).\n");
  return 0;
}
