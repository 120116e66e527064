// The serialisable per-quantile scaling model — PEVPM's answer for grid
// cells MPIBench never measured.
//
// For every operation the model carries kTracks fitted normal-form laws,
// one per quantile of the completion-time distribution. Evaluating all
// tracks at an unmeasured (message size, contention) point reconstructs
// the whole distribution shape — not just its mean, which Section 4 of the
// paper warns collapses exactly the contention effects PEVPM exists to
// capture. Track predictions are floored and sorted before use: fitted
// quantile curves are independent, so nothing else guarantees they stay
// monotone off the grid.
//
// The fit (fit_scaling_model) and its leave-one-out check (cross_validate)
// share one grid walk and one series fitter in model.cpp.
#pragma once

#include <array>
#include <iosfwd>
#include <map>
#include <vector>

#include "mpibench/table.h"
#include "scaling/fit.h"
#include "scaling/normal_form.h"
#include "stats/empirical.h"

namespace scaling {

class ScalingModel {
 public:
  /// Quantile tracks per (operation) series; track t models the
  /// (t + 0.5) / kTracks quantile, the bin midpoints of a 16-cell CDF.
  static constexpr int kTracks = 16;

  [[nodiscard]] static double track_quantile(int track) noexcept {
    return (static_cast<double>(track) + 0.5) / kTracks;
  }

  struct Series {
    std::array<NormalForm, kTracks> tracks{};

    /// The track values at one point, floored at kTimeFloor and sorted
    /// non-decreasing (monotone repair). Shared by `quantiles` and
    /// cross-validation, so reported errors measure exactly what
    /// predictions consume. Throws std::domain_error when a track value is
    /// not finite (a hand-made artifact can overflow any term).
    [[nodiscard]] std::array<double, kTracks> evaluate(double size_bytes,
                                                       double procs) const;
  };

  void set_series(mpibench::OpKind op, Series series);

  [[nodiscard]] bool covers(mpibench::OpKind op) const;
  [[nodiscard]] const Series* series(mpibench::OpKind op) const;
  [[nodiscard]] std::size_t size() const noexcept { return series_.size(); }
  [[nodiscard]] bool empty() const noexcept { return series_.empty(); }

  /// The predicted quantile values at (size, contention), monotone and
  /// positive. Throws std::out_of_range when `op` has no series, and
  /// std::domain_error when a prediction is not finite.
  [[nodiscard]] std::array<double, kTracks> quantiles(mpibench::OpKind op,
                                                      double size_bytes,
                                                      double procs) const;

  /// The reconstructed distribution at one off-grid point: kTracks atoms
  /// of equal weight at the predicted quantiles. A pure function of the
  /// model and the key — the sampler can memoise it exactly like a table
  /// cell without changing any determinism contract.
  [[nodiscard]] stats::EmpiricalDistribution distribution(
      mpibench::OpKind op, net::Bytes size_bytes, int contention) const;

  /// Serialises as "pevpm-scaling v1"; round-trips with `load`, which
  /// rejects an operation id that is not an OpKind or appears twice.
  void save(std::ostream& os) const;
  [[nodiscard]] static ScalingModel load(std::istream& is);

 private:
  std::map<int, Series> series_;
};

/// Per-track relative errors |predicted - measured| / max(|measured|,
/// kTimeFloor) against the track quantiles of a measured distribution.
/// The one error measure of cross-validation and the tabe_fit_error bench.
[[nodiscard]] std::array<double, ScalingModel::kTracks> track_errors(
    const std::array<double, ScalingModel::kTracks>& predicted,
    const stats::EmpiricalDistribution& measured);

/// Per-operation training diagnostics from fit_scaling_model.
struct OpFitDiagnostics {
  mpibench::OpKind op = mpibench::OpKind::kPtpOneWay;
  int grid_cells = 0;
  double mean_rel_error = 0.0;  ///< mean over tracks of in-sample error
  double max_track_error = 0.0;
};

/// Fits one series per operation present in `table`, per quantile track,
/// over the exact sweep grid points (interpolated cells are derived data
/// and would double-count). Deterministic: same table, same model.
[[nodiscard]] ScalingModel fit_scaling_model(
    const mpibench::DistributionTable& table,
    std::vector<OpFitDiagnostics>* diagnostics = nullptr);

/// One held-out grid point: summary of the per-track relative errors.
struct CrossValidationCell {
  mpibench::OpKind op = mpibench::OpKind::kPtpOneWay;
  net::Bytes size_bytes{};
  int contention = 0;
  double median_rel_error = 0.0;  ///< median over quantile tracks
  double max_rel_error = 0.0;     ///< worst quantile track
};

/// Per-operation pooled summary over every (held-out cell, track) error.
struct OpCrossValidation {
  mpibench::OpKind op = mpibench::OpKind::kPtpOneWay;
  int cells = 0;
  double median_rel_error = 0.0;
  double p95_rel_error = 0.0;
};

struct CrossValidationReport {
  std::vector<CrossValidationCell> cells;
  std::vector<OpCrossValidation> per_op;

  /// Worst per-op median (the headline gate value); 0 when empty.
  [[nodiscard]] double worst_median() const;
  [[nodiscard]] double worst_p95() const;
};

/// Leave-one-grid-point-out cross-validation, the methodology of "MPI
/// Benchmarking Revisited": a fit is only trusted at the resolution it can
/// reproduce data it never saw. For every exact grid point the tracks are
/// refitted without it, exactly as fit_scaling_model would fit the table
/// lacking that cell, and the held-out distribution is predicted and
/// compared per track. Operations with fewer than three exact grid points
/// cannot support a held-out fit and are skipped, not failed.
[[nodiscard]] CrossValidationReport cross_validate(
    const mpibench::DistributionTable& table);

}  // namespace scaling
