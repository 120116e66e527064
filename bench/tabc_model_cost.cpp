// In-text claim (Section 6): model evaluation cost. On the real Perseus,
// 11 h 15 min of processor time was simulated by PEVPM in under 10 minutes
// on one processor — about 67.5x faster than execution.
//
// Here the analogous ratio is (virtual execution time of the modelled
// program) / (wall-clock spent evaluating the PEVPM model). The wall-clock
// of the packet-level cluster simulator is also reported for context: the
// PEVPM abstraction is what makes prediction cheap, independent of how the
// "real machine" is realised.
#include <chrono>

#include "bench_util.h"
#include "jacobi_workload.h"

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  benchutil::banner("Table C (in-text)", "PEVPM evaluation cost");
  const int iterations = benchutil::scaled(1000, 50);
  const int table_reps = benchutil::scaled(150, 30);
  const int procs = 64;

  const std::vector<net::Bytes> sizes{jacobi::kHaloBytes};
  const std::vector<mpibench::Config> configs{{2, 1}, {16, 1}, {64, 1}};
  const auto table = mpibench::measure_isend_table(
      benchutil::bench_options(2, 1, table_reps), sizes, configs);

  const pevpm::Model looped = jacobi::looped_model(iterations);

  double virtual_seconds = 0.0;
  double pevpm_wall = 0.0;
  pevpm_wall = wall_seconds([&] {
    pevpm::PredictOptions opts;
    opts.replications = 1;
    const auto prediction = pevpm::predict(looped, procs, {}, table, opts);
    virtual_seconds = prediction.seconds();
  });

  double actual_virtual = 0.0;
  const double simulator_wall = wall_seconds([&] {
    actual_virtual = jacobi::measure_actual(procs, 1, iterations);
  });

  std::printf("metric,value\n");
  std::printf("modelled_program_virtual_s,%.2f\n", virtual_seconds);
  std::printf("pevpm_wall_s,%.3f\n", pevpm_wall);
  std::printf("speed_ratio_execution_over_pevpm,%.1f\n",
              virtual_seconds / pevpm_wall);
  std::printf("cluster_simulator_virtual_s,%.2f\n", actual_virtual);
  std::printf("cluster_simulator_wall_s,%.3f\n", simulator_wall);
  std::printf("# paper: ratio ~67.5x (11h15m simulated in <10 min); any\n"
              "# ratio >> 1 reproduces the claim that PEVPM evaluation is\n"
              "# far cheaper than execution.\n");
  return 0;
}
