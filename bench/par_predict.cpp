// Serial vs parallel Monte-Carlo prediction throughput.
//
// The paper's PEVPM draws its accuracy from many replications sampled out
// of the MPIBench distributions; this bench records what the thread-pool
// fan-out in pevpm::predict buys over the serial replication loop, and
// checks that the predicted makespan summary is bit-identical at every
// thread count (the engine's determinism contract).
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "gate.h"
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
  benchutil::banner("parallel predict", "Monte-Carlo replication fan-out");
  const int reps = benchutil::scaled(1000, 64);
  const int iterations = benchutil::scaled(10, 4);
  const int procs = 32;
  const int table_reps = benchutil::scaled(150, 30);

  const std::vector<net::Bytes> sizes{jacobi::kHaloBytes};
  const std::vector<mpibench::Config> configs{{2, 1}, {16, 1}, {32, 1}};
  const auto table = mpibench::measure_isend_table(
      benchutil::bench_options(2, 1, table_reps), sizes, configs);

  const pevpm::Model looped = jacobi::looped_model(iterations);

  pevpm::PredictOptions opts;
  opts.replications = reps;
  opts.seed = 20260806;

  std::vector<int> thread_counts{1, 2, 4};
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  if (hw > thread_counts.back()) thread_counts.push_back(hw);

  std::printf("threads,reps,wall_s,reps_per_s,speedup_vs_serial,"
              "mean_s,identical_to_serial\n");
  double serial_wall = 0.0;
  stats::Summary serial_summary;
  serve::Json::Array rows;
  for (const int threads : thread_counts) {
    opts.threads = threads;
    pevpm::Prediction prediction;
    const double wall = wall_seconds([&] {
      prediction = pevpm::predict(looped, procs, {}, table, opts);
    });
    if (threads == 1) {
      serial_wall = wall;
      serial_summary = prediction.makespan;
    }
    const bool identical =
        prediction.makespan.mean() == serial_summary.mean() &&
        prediction.makespan.stddev() == serial_summary.stddev() &&
        prediction.makespan.min() == serial_summary.min() &&
        prediction.makespan.max() == serial_summary.max();
    std::printf("%d,%d,%.3f,%.1f,%.2f,%.6f,%s\n", threads, reps, wall,
                static_cast<double>(reps) / wall, serial_wall / wall,
                prediction.seconds(), identical ? "yes" : "NO");
    serve::Json row{serve::Json::Object{}};
    row.set("threads", threads);
    row.set("wall_s", wall);
    row.set("speedup", serial_wall / wall);
    row.set("mean_s", prediction.seconds());
    row.set("identical", identical);
    rows.push_back(std::move(row));
  }
  serve::Json doc{serve::Json::Object{}};
  doc.set("bench", "par_predict");
  doc.set("reps", reps);
  doc.set("rows", std::move(rows));
  if (!gate::emit(doc)) return 1;
  std::printf("# acceptance: 4-thread speedup >= 2x over serial at %d reps,\n"
              "# and identical_to_serial = yes in every row (fixed seed\n"
              "# 20260806 => bit-identical makespan summary at any thread\n"
              "# count).\n",
              reps);
  return 0;
}
