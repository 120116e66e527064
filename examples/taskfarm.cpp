// Irregular communication: a bag-of-tasks (task farm) — the third
// application class from Section 6 of the paper.
//
// A master (rank 0) hands work units to whichever worker returns a result
// first (dynamic, first-come-first-served scheduling over MPI_ANY_SOURCE);
// workers compute for a task-dependent time and send back a result. Task
// durations are drawn from a deterministic pseudo-random sequence so the
// actual run and the PEVPM model agree on the workload.
//
// PEVPM models the farm with its static equivalent (round-robin
// distribution). For i.i.d. task costs the two schedules have the same
// long-run behaviour, and the example reports how close the static model's
// prediction lands — the paper found the farm similarly predictable.
//
// Run: ./taskfarm [procs] [tasks]
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
#include "stats/rng.h"

namespace {

constexpr net::Bytes kTaskBytes{2048};    // work description
constexpr net::Bytes kResultBytes{512};   // result payload
constexpr double kMeanTaskSeconds = 0.02;

/// Task durations: deterministic sequence shared by run and model.
std::vector<double> task_durations(int tasks) {
  stats::Rng rng{2026};
  std::vector<double> durations(tasks);
  for (double& d : durations) {
    d = kMeanTaskSeconds * (0.5 + rng.uniform());  // U[0.5, 1.5] x mean
  }
  return durations;
}

}  // namespace

int main(int argc, char** argv) {
  const int procs = argc > 1 ? std::atoi(argv[1]) : 8;
  const int tasks = argc > 2 ? std::atoi(argv[2]) : 200;
  const std::vector<double> durations = task_durations(tasks);

  // Actual dynamic farm: each task is a 4-byte id plus a kTaskBytes
  // description, sent back-to-back; results return as id + payload.
  smpi::Runtime::Options opts;
  opts.cluster = net::perseus(procs);
  opts.nprocs = procs;
  opts.seed = 77;
  smpi::Runtime rt{opts};
  std::vector<int> tasks_done(procs, 0);
  rt.run([&](smpi::Comm& comm) {
    if (comm.rank() == 0) {
      const int p = comm.size();
      int next = 0;
      int outstanding = 0;
      auto issue = [&](int worker) {
        comm.send_value(next, worker, 1);
        comm.send_bytes(kTaskBytes, worker, 1);
        ++next;
        ++outstanding;
      };
      for (int w = 1; w < p && next < tasks; ++w) issue(w);
      while (outstanding > 0) {
        int done = 0;
        const smpi::Status st = comm.recv(
            std::as_writable_bytes(std::span<int, 1>{&done, 1}),
            smpi::kAnySource, 2);
        comm.recv_bytes(kResultBytes, st.source, 3);
        --outstanding;
        ++tasks_done[st.source];
        if (next < tasks) {
          issue(st.source);
        } else {
          comm.send_value(-1, st.source, 1);
        }
      }
    } else {
      for (;;) {
        const int task = comm.recv_value<int>(0, 1);
        if (task < 0) break;
        comm.recv_bytes(kTaskBytes, 0, 1);
        comm.compute(durations[task]);
        comm.send_value(task, 0, 2);
        comm.send_bytes(kResultBytes, 0, 3);
      }
    }
  });
  const double actual = rt.elapsed().to_seconds();
  int busiest = 0;
  int laziest = tasks;
  for (int w = 1; w < procs; ++w) {
    busiest = std::max(busiest, tasks_done[w]);
    laziest = std::min(laziest, tasks_done[w]);
  }
  std::printf("task farm (P=%d, %d tasks): actual %.4f s\n", procs, tasks,
              actual);
  std::printf("dynamic balance: busiest worker %d tasks, laziest %d\n",
              busiest, laziest);

  // MPIBench table for the farm's message sizes.
  std::printf("\nmeasuring MPIBench table...\n");
  mpibench::Options bench;
  bench.repetitions = 150;
  bench.warmup = 16;
  bench.seed = 3;
  std::vector<net::Bytes> sizes{net::Bytes{4}, kResultBytes, kTaskBytes};
  std::vector<mpibench::Config> configs{{2, 1}, {procs, 1}};
  const auto table = mpibench::measure_isend_table(bench, sizes, configs);

  // Static-farm PEVPM model: worker w handles tasks w-1, w-1+(P-1), ...
  // with the *mean* task duration (the model keeps the workload's first
  // moment; scheduling noise is what the farm's dynamism absorbs).
  const std::string model_text =
      "param tasks = " + std::to_string(tasks) + "\n" +
      "param mean_task = " + std::to_string(kMeanTaskSeconds) + "\n" +
      "param task_bytes = " + std::to_string(kTaskBytes.count()) + "\n" +
      "param result_bytes = " + std::to_string(kResultBytes.count()) + "\n" + R"(
runon procnum == 0 {
  loop tasks as t {
    message send size = 4 to = t % (numprocs - 1) + 1
    message send size = task_bytes to = t % (numprocs - 1) + 1
  }
  loop tasks as t {
    message recv size = 4 from = t % (numprocs - 1) + 1
    message recv size = result_bytes from = t % (numprocs - 1) + 1
  }
} else {
  loop (tasks + numprocs - 1 - procnum) / (numprocs - 1) {
    message recv size = 4 from = 0
    message recv size = task_bytes from = 0
    serial time = mean_task
    message send size = 4 to = 0
    message send size = result_bytes to = 0
  }
}
)";
  const pevpm::Model model = pevpm::parse_model(model_text, "taskfarm");
  pevpm::PredictOptions popt;
  popt.replications = 5;
  const auto prediction = pevpm::predict(model, procs, {}, table, popt);
  std::printf("PEVPM (static-farm model): %.4f s (%+.1f%% vs actual)\n",
              prediction.seconds(),
              100 * (prediction.seconds() - actual) / actual);
  std::printf(
      "ideal lower bound (tasks x mean / workers): %.4f s\n",
      tasks * kMeanTaskSeconds / (procs - 1));
  return 0;
}
