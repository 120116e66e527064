// Quickstart: the full MPIBench -> PEVPM pipeline in one small program.
//
//   1. Describe a simulated commodity cluster (a slice of Perseus).
//   2. Run an application-like ping exchange on the simulated MPI and
//      measure its "actual" runtime.
//   3. Benchmark MPI_Isend one-way times with MPIBench, including the
//      probability distribution, not just the average.
//   4. Fit a parametric distribution to the measured PDF.
//   5. Model the application with PEVPM directives and predict its runtime
//      by Monte-Carlo sampling from the measured distributions.
//
// Build and run:  ./quickstart
#include <cstdio>
#include <vector>

#include "core/parse.h"
#include "core/predict.h"
#include "mpi/comm.h"
#include "mpi/runtime.h"
#include "mpibench/benchmark.h"
#include "net/cluster.h"
#include "stats/fit.h"

namespace {

constexpr int kNodes = 8;
constexpr int kIterations = 200;
constexpr net::Bytes kMessage{1024};

/// The "application": neighbour ping-pong pairs plus a compute phase.
void application(smpi::Comm& comm) {
  std::vector<std::byte> buffer(kMessage.count());
  const int peer = comm.rank() % 2 == 0 ? comm.rank() + 1 : comm.rank() - 1;
  for (int i = 0; i < kIterations; ++i) {
    if (comm.rank() % 2 == 0) {
      comm.send(buffer, peer, 0);
      comm.recv(buffer, peer, 0);
    } else {
      comm.recv(buffer, peer, 0);
      comm.send(buffer, peer, 0);
    }
    comm.compute(0.001);
  }
}

}  // namespace

int main() {
  // 1. The machine.
  const net::ClusterParams cluster = net::perseus(kNodes);
  std::printf("== cluster ==\n%s\n", net::describe(cluster).c_str());

  // 2. Actual execution on the simulated cluster.
  smpi::Runtime::Options run_opts;
  run_opts.cluster = cluster;
  run_opts.nprocs = kNodes;
  run_opts.seed = 42;
  smpi::Runtime runtime{run_opts};
  runtime.run(application);
  const double actual = runtime.elapsed().to_seconds();
  std::printf("== actual ==\n%d ranks, %d iterations: %.4f s\n\n", kNodes,
              kIterations, actual);

  // 3. MPIBench: one-way distributions under this machine's contention.
  mpibench::Options bench;
  bench.cluster = cluster;
  bench.repetitions = 200;
  bench.warmup = 20;
  bench.seed = 7;
  const std::vector<net::Bytes> sizes{net::Bytes{64}, kMessage, net::Bytes{4096}};
  const std::vector<mpibench::Config> configs{{2, 1}, {kNodes, 1}};
  const mpibench::DistributionTable table =
      mpibench::measure_isend_table(bench, sizes, configs);
  const auto result = mpibench::run_isend(bench, kMessage);
  const auto& s = result.oneway.summary();
  std::printf("== MPIBench (MPI_Isend, %llu B, %dx1) ==\n",
              static_cast<unsigned long long>(kMessage.count()), kNodes);
  std::printf("min %.1f us   avg %.1f us   max %.1f us   (%llu messages)\n",
              s.min() * 1e6, s.mean() * 1e6, s.max() * 1e6,
              static_cast<unsigned long long>(result.messages));

  // 4. Parametric fit to the PDF (Section 2 of the paper).
  const auto best = stats::fit_best(result.distribution());
  std::printf("best-fit PDF: %s (KS distance %.3f)\n\n",
              stats::to_string(best.distribution.family).c_str(), best.ks);

  // 5. PEVPM model and prediction.
  const char* model_text = R"(
loop 200 {
  runon procnum % 2 == 0 {
    message send size = 1024 to = procnum + 1
    message recv size = 1024 from = procnum + 1
  } else {
    message recv size = 1024 from = procnum - 1
    message send size = 1024 to = procnum - 1
  }
  serial time = 0.001
}
)";
  const pevpm::Model model = pevpm::parse_model(model_text, "quickstart");
  pevpm::PredictOptions predict_opts;
  predict_opts.replications = 8;
  const pevpm::Prediction prediction =
      pevpm::predict(model, kNodes, {}, table, predict_opts);
  const double err = 100.0 * (prediction.seconds() - actual) / actual;
  std::printf("== PEVPM ==\npredicted %.4f s vs actual %.4f s (%+.1f%%)\n",
              prediction.seconds(), actual, err);
  const auto losses = prediction.detail.top_losses(1);
  if (!losses.empty()) {
    std::printf("largest blocking loss: directive %d, %.3f s across ranks\n",
                losses[0].first, losses[0].second);
  }
  return 0;
}
