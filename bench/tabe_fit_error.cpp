// tabe_fit_error — scaling-model fit and extrapolation error gate.
//
// Exercises src/scaling end to end against DES ground truth:
//
//   * leave-one-grid-point-out cross-validation over a measured MPIBench
//     sweep (sizes x machine configs): per-operation pooled median / p95
//     relative error of the per-quantile fits on cells they never saw,
//   * true extrapolation: the model fitted on the full grid predicts the
//     quantiles at points outside it — a 4x larger message size and a 2x
//     larger process count — which are then measured by the simulator and
//     compared per quantile track,
//   * determinism: fitting the same table twice must serialise to
//     byte-identical artifacts.
//
// The result document is emitted through gate.h.
//
// Usage:
//   tabe_fit_error [--check BASELINE.json]
//
// With --check, every error metric must stay within the committed
// baseline plus an absolute margin (these are statistical quantities, so
// the gate is in percentage points, not ratios), and the determinism flag
// must hold exactly; any miss prints the offending metric and exits 1
// (the CI perf-smoke gate; an unreadable baseline exits 2 before anything
// is measured). PEVPM_BENCH_QUICK=1 scales repetition counts down for
// smoke runs.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gate.h"
#include "scaling/model.h"
#include "stats/summary.h"

namespace {

/// The table contention level a benchmark config lands on (the pair
/// pattern keeps nprocs/2 messages in flight; see measure_isend_table).
int contention_level(const mpibench::Config& config) {
  return std::max(1, config.nodes * config.procs_per_node / 2);
}

/// Per-track relative errors of the fitted model against one measured
/// off-grid cell, appended to `errors`.
void extrapolation_errors(const scaling::ScalingModel& model,
                          const mpibench::DistributionTable& actual,
                          net::Bytes size, int level,
                          std::vector<double>& errors) {
  const auto op = mpibench::OpKind::kPtpOneWay;
  const stats::EmpiricalDistribution* dist = actual.exact(op, size, level);
  if (dist == nullptr || !model.covers(op)) return;
  const auto cell = scaling::track_errors(
      model.quantiles(op, size.to_double(), level), *dist);
  errors.insert(errors.end(), cell.begin(), cell.end());
}

}  // namespace

int main(int argc, char** argv) {
  std::string check_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_file = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check BASELINE.json]\n", argv[0]);
      return 2;
    }
  }
  std::optional<serve::Json> baseline;
  if (!check_file.empty()) {
    baseline = gate::load_baseline(check_file);
    if (!baseline) return 2;
  }

  benchutil::banner("Table E", "scaling-model fit and extrapolation error");
  const int reps = benchutil::scaled(160, 48);

  // The training sweep: the size x config grid the model is fitted on.
  const std::vector<net::Bytes> grid_sizes{net::Bytes{256}, net::Bytes{1024}, net::Bytes{4096}, net::Bytes{16384}};
  const std::vector<mpibench::Config> grid_configs{{2, 1}, {4, 1}, {8, 1},
                                                   {16, 1}};
  const auto table = mpibench::measure_isend_table(
      benchutil::bench_options(2, 1, reps), grid_sizes, grid_configs, 4);

  serve::Json doc{serve::Json::Object{}};
  doc.set("schema", "pevpm-tabe-fit-error-v1");

  // Leave-one-out cross-validation on the training grid.
  const scaling::CrossValidationReport loo = scaling::cross_validate(table);
  std::printf("op,cells,loo_median_pct,loo_p95_pct\n");
  for (const auto& op : loo.per_op) {
    std::printf("%s,%d,%.3f,%.3f\n", mpibench::to_string(op.op).c_str(),
                op.cells, 100.0 * op.median_rel_error,
                100.0 * op.p95_rel_error);
  }
  doc.set("loo_median_pct", 100.0 * loo.worst_median());
  doc.set("loo_p95_pct", 100.0 * loo.worst_p95());

  // Fit on the full grid; refit to assert determinism via the artifact
  // bytes (the serialisation is exact, max_digits10).
  const scaling::ScalingModel model = scaling::fit_scaling_model(table);
  {
    std::ostringstream first, second;
    model.save(first);
    scaling::fit_scaling_model(table).save(second);
    doc.set("fit_deterministic", first.str() == second.str() ? 1 : 0);
  }

  // Ground truth at points outside the grid: 4x the largest message size,
  // and 2x the largest process count.
  const std::vector<net::Bytes> big_sizes{net::Bytes{65536}};
  const auto size_truth = mpibench::measure_isend_table(
      benchutil::bench_options(2, 1, reps), big_sizes, grid_configs, 4);
  const std::vector<net::Bytes> mid_sizes{net::Bytes{1024}, net::Bytes{4096}};
  const std::vector<mpibench::Config> big_configs{{32, 1}};
  const auto procs_truth = mpibench::measure_isend_table(
      benchutil::bench_options(2, 1, reps), mid_sizes, big_configs, 2);

  std::vector<double> size_errors;
  for (const auto& config : grid_configs) {
    extrapolation_errors(model, size_truth, big_sizes[0],
                         contention_level(config), size_errors);
  }
  std::vector<double> procs_errors;
  for (const net::Bytes size : mid_sizes) {
    extrapolation_errors(model, procs_truth, size,
                         contention_level(big_configs[0]), procs_errors);
  }
  const double size_median = 100.0 * stats::quantile(size_errors, 0.5);
  const double size_p95 = 100.0 * stats::quantile(size_errors, 0.95);
  const double procs_median = 100.0 * stats::quantile(procs_errors, 0.5);
  const double procs_p95 = 100.0 * stats::quantile(procs_errors, 0.95);
  doc.set("extrap_size_median_pct", size_median);
  doc.set("extrap_size_p95_pct", size_p95);
  doc.set("extrap_procs_median_pct", procs_median);
  doc.set("extrap_procs_p95_pct", procs_p95);

  std::printf("axis,cells,extrap_median_pct,extrap_p95_pct\n");
  std::printf("size(65536),%zu,%.3f,%.3f\n",
              size_errors.size() / scaling::ScalingModel::kTracks,
              size_median, size_p95);
  std::printf("procs(32),%zu,%.3f,%.3f\n",
              procs_errors.size() / scaling::ScalingModel::kTracks,
              procs_median, procs_p95);

  if (!gate::emit(doc)) return 1;
  if (!baseline) return 0;

  // Median gates are tight (the fits are stable there); p95 gates get a
  // wider margin because the worst quantile track of the worst cell is a
  // max statistic over the simulator's sampling noise.
  gate::Checker check{doc, *baseline};
  check.at_most_plus("loo_median_pct", 5.0);
  check.at_most_plus("loo_p95_pct", 15.0);
  check.at_most_plus("extrap_size_median_pct", 10.0);
  check.at_most_plus("extrap_size_p95_pct", 20.0);
  check.at_most_plus("extrap_procs_median_pct", 10.0);
  check.at_most_plus("extrap_procs_p95_pct", 20.0);
  check.require("fit_deterministic", 1.0, 1.0,
                "refitting the same table produced a different artifact");
  return check.finish(check_file);
}
