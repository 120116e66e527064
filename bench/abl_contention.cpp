// Ablation 2: what the contention scoreboard buys. The same model is
// evaluated with (a) full scoreboard-indexed distribution sampling, (b)
// distributions from a single fixed contention level, and (c) distribution
// sampling with the scoreboard ignored entirely (level 1). The workload is
// a communication-dense ring exchange where the scoreboard's contention
// index matters most.
#include "bench_util.h"
#include "jacobi_workload.h"

int main() {
  benchutil::banner("Ablation 2", "scoreboard-indexed vs fixed contention");
  const int iterations = benchutil::scaled(150, 15);
  const int table_reps = benchutil::scaled(200, 40);
  const double serial = jacobi::kSerialSeconds / 200;  // communication-bound

  pevpm::Model model = jacobi::model();
  {
    std::string text = model.str();
    const std::string from = "serial time = (3.24 / numprocs)";
    const std::string to =
        "serial time = (" + std::to_string(serial) + " / numprocs)";
    text.replace(text.find(from), from.size(), to);
    model = pevpm::parse_model(text, "jacobi-ablation");
  }

  std::printf("procs,actual_ms,scoreboard_err_pct,fixed_nxp_err_pct,"
              "no_scoreboard_err_pct\n");
  for (const int procs : {8, 16, 32, 64}) {
    const std::vector<net::Bytes> sizes{jacobi::kHaloBytes};
    std::vector<mpibench::Config> configs{{2, 1}};
    for (int n = 4; n <= procs; n *= 2) configs.push_back({n, 1});
    const auto table = mpibench::measure_isend_table(
        benchutil::bench_options(2, 1, table_reps), sizes, configs);

    // Actual communication-bound run.
    smpi::Runtime::Options ro;
    ro.cluster = net::perseus(procs);
    ro.nprocs = procs;
    ro.seed = 909;
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

    auto err = [&](pevpm::SamplerOptions opts) {
      const double predicted =
          jacobi::predict_one_iteration(model, procs, table, opts, 8);
      return 100.0 * (predicted - actual) / actual;
    };
    pevpm::SamplerOptions scoreboard;  // the full PEVPM
    pevpm::SamplerOptions fixed_nxp;
    fixed_nxp.contention = pevpm::ContentionSource::kFixed;
    fixed_nxp.fixed_contention = std::max(1, procs / 2);
    pevpm::SamplerOptions no_scoreboard;
    no_scoreboard.contention = pevpm::ContentionSource::kFixed;
    no_scoreboard.fixed_contention = 1;

    std::printf("%d,%.3f,%+.1f,%+.1f,%+.1f\n", procs, actual * 1e3,
                err(scoreboard), err(fixed_nxp), err(no_scoreboard));
  }
  std::printf("# scoreboard indexing should dominate the level-1 variant,\n"
              "# especially at larger P; fixed n x p sits in between.\n");
  return 0;
}
