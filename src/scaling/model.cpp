#include "scaling/model.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>

#include "stats/summary.h"

namespace scaling {

namespace {

/// The operations a table can hold, in fit and report order.
constexpr mpibench::OpKind kOps[] = {
    mpibench::OpKind::kPtpOneWay, mpibench::OpKind::kBarrier,
    mpibench::OpKind::kBcast,     mpibench::OpKind::kAlltoall,
    mpibench::OpKind::kReduce,    mpibench::OpKind::kPtpSender};

/// Fewer exact grid points than this cannot support a held-out fit.
constexpr std::size_t kMinCrossValidationCells = 3;

/// Marks "no cell held out" for fit_series.
constexpr std::size_t kNoHeldOut = static_cast<std::size_t>(-1);

/// One exact sweep grid point of an operation.
struct GridCell {
  net::Bytes size{};
  int contention = 0;
  const stats::EmpiricalDistribution* dist = nullptr;
};

/// The exact grid cells of `op` in (size, contention) order. Exact points
/// only: interpolated lookups are derived from these and would weight the
/// fit toward whatever the query pattern was.
std::vector<GridCell> grid_cells(const mpibench::DistributionTable& table,
                                 mpibench::OpKind op) {
  std::vector<GridCell> cells;
  for (const net::Bytes size : table.sizes(op)) {
    for (const int contention : table.contentions(op)) {
      if (const auto* dist = table.exact(op, size, contention)) {
        cells.push_back(GridCell{size, contention, dist});
      }
    }
  }
  return cells;
}

/// A fitted series with each track's in-sample mean relative error.
struct SeriesFit {
  ScalingModel::Series series;
  std::array<double, ScalingModel::kTracks> in_sample_error{};
};

/// Fits every quantile track over `cells`, leaving out `cells[held_out]`.
/// Observations keep the grid order: the lattice tie rule and the float
/// sums of the solve depend on it.
SeriesFit fit_series(std::span<const GridCell> cells,
                     std::size_t held_out = kNoHeldOut) {
  SeriesFit out;
  std::vector<Observation> points;
  points.reserve(cells.size());
  for (int track = 0; track < ScalingModel::kTracks; ++track) {
    const double q = ScalingModel::track_quantile(track);
    points.clear();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i == held_out) continue;
      points.push_back(Observation{cells[i].size.to_double(),
                                   static_cast<double>(cells[i].contention),
                                   cells[i].dist->quantile(q)});
    }
    const TermFit fit = fit_normal_form(points);
    out.series.tracks[static_cast<std::size_t>(track)] = fit.form;
    out.in_sample_error[static_cast<std::size_t>(track)] =
        fit.mean_rel_error;
  }
  return out;
}

}  // namespace

std::array<double, ScalingModel::kTracks> ScalingModel::Series::evaluate(
    double size_bytes, double procs) const {
  std::array<double, kTracks> values{};
  for (std::size_t t = 0; t < values.size(); ++t) {
    const double value = tracks[t].evaluate(size_bytes, procs);
    // NaN would also break the strict weak order std::sort relies on.
    if (!std::isfinite(value)) {
      throw std::domain_error{"ScalingModel: track " + std::to_string(t) +
                              " predicts a non-finite time"};
    }
    values[t] = std::max(value, kTimeFloor);
  }
  std::sort(values.begin(), values.end());
  return values;
}

void ScalingModel::set_series(mpibench::OpKind op, Series series) {
  series_[static_cast<int>(op)] = series;
}

bool ScalingModel::covers(mpibench::OpKind op) const {
  return series_.contains(static_cast<int>(op));
}

const ScalingModel::Series* ScalingModel::series(mpibench::OpKind op) const {
  const auto it = series_.find(static_cast<int>(op));
  return it == series_.end() ? nullptr : &it->second;
}

std::array<double, ScalingModel::kTracks> ScalingModel::quantiles(
    mpibench::OpKind op, double size_bytes, double procs) const {
  const Series* s = series(op);
  if (s == nullptr) {
    throw std::out_of_range{"ScalingModel: no series for op " +
                            mpibench::to_string(op)};
  }
  return s->evaluate(size_bytes, procs);
}

stats::EmpiricalDistribution ScalingModel::distribution(
    mpibench::OpKind op, net::Bytes size_bytes, int contention) const {
  const std::array<double, kTracks> values =
      quantiles(op, size_bytes.to_double(), contention);
  return stats::EmpiricalDistribution::from_samples(values);
}

void ScalingModel::save(std::ostream& os) const {
  os << "pevpm-scaling v1\n" << series_.size() << ' ' << kTracks << '\n';
  for (const auto& [op, series] : series_) {
    os << op << '\n';
    for (const NormalForm& form : series.tracks) form.save(os);
  }
}

ScalingModel ScalingModel::load(std::istream& is) {
  std::string magic;
  std::string version;
  if (!(is >> magic >> version) || magic != "pevpm-scaling" ||
      version != "v1") {
    throw std::runtime_error{"ScalingModel::load: bad header"};
  }
  std::size_t count = 0;
  int tracks = 0;
  if (!(is >> count >> tracks) || tracks != kTracks) {
    throw std::runtime_error{"ScalingModel::load: bad track count"};
  }
  ScalingModel model;
  for (std::size_t i = 0; i < count; ++i) {
    int op = 0;
    if (!(is >> op)) {
      throw std::runtime_error{"ScalingModel::load: truncated series"};
    }
    if (!mpibench::is_op_kind(op)) {
      throw std::runtime_error{"ScalingModel::load: unknown op " +
                               std::to_string(op)};
    }
    if (model.series_.contains(op)) {
      throw std::runtime_error{"ScalingModel::load: repeated op " +
                               std::to_string(op)};
    }
    Series series;
    for (NormalForm& form : series.tracks) form = NormalForm::load(is);
    model.series_[op] = series;
  }
  return model;
}

std::array<double, ScalingModel::kTracks> track_errors(
    const std::array<double, ScalingModel::kTracks>& predicted,
    const stats::EmpiricalDistribution& measured) {
  std::array<double, ScalingModel::kTracks> errors{};
  for (int track = 0; track < ScalingModel::kTracks; ++track) {
    const auto t = static_cast<std::size_t>(track);
    const double actual =
        measured.quantile(ScalingModel::track_quantile(track));
    errors[t] = std::fabs(predicted[t] - actual) /
                std::max(std::fabs(actual), kTimeFloor);
  }
  return errors;
}

ScalingModel fit_scaling_model(const mpibench::DistributionTable& table,
                               std::vector<OpFitDiagnostics>* diagnostics) {
  ScalingModel model;
  for (const mpibench::OpKind op : kOps) {
    const std::vector<GridCell> cells = grid_cells(table, op);
    if (cells.empty()) continue;
    const SeriesFit fit = fit_series(cells);
    model.set_series(op, fit.series);
    if (diagnostics == nullptr) continue;
    double error_sum = 0.0;
    double error_max = 0.0;
    for (const double error : fit.in_sample_error) {
      error_sum += error;
      error_max = std::max(error_max, error);
    }
    diagnostics->push_back(OpFitDiagnostics{
        op, static_cast<int>(cells.size()), error_sum / ScalingModel::kTracks,
        error_max});
  }
  return model;
}

double CrossValidationReport::worst_median() const {
  double worst = 0.0;
  for (const OpCrossValidation& op : per_op) {
    worst = std::max(worst, op.median_rel_error);
  }
  return worst;
}

double CrossValidationReport::worst_p95() const {
  double worst = 0.0;
  for (const OpCrossValidation& op : per_op) {
    worst = std::max(worst, op.p95_rel_error);
  }
  return worst;
}

CrossValidationReport cross_validate(
    const mpibench::DistributionTable& table) {
  CrossValidationReport report;
  for (const mpibench::OpKind op : kOps) {
    const std::vector<GridCell> cells = grid_cells(table, op);
    if (cells.size() < kMinCrossValidationCells) continue;
    std::vector<double> pooled_errors;
    pooled_errors.reserve(cells.size() * ScalingModel::kTracks);
    for (std::size_t held = 0; held < cells.size(); ++held) {
      const GridCell& cell = cells[held];
      const std::array<double, ScalingModel::kTracks> errors = track_errors(
          fit_series(cells, held).series.evaluate(
              cell.size.to_double(), static_cast<double>(cell.contention)),
          *cell.dist);
      pooled_errors.insert(pooled_errors.end(), errors.begin(), errors.end());
      report.cells.push_back(CrossValidationCell{
          op, cell.size, cell.contention, stats::quantile(errors, 0.5),
          *std::max_element(errors.begin(), errors.end())});
    }
    report.per_op.push_back(OpCrossValidation{
        op, static_cast<int>(cells.size()),
        stats::quantile(pooled_errors, 0.5),
        stats::quantile(pooled_errors, 0.95)});
  }
  return report;
}

}  // namespace scaling
