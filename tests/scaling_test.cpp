// Unit tests for src/scaling: normal-form evaluation, model-term search,
// the per-quantile ScalingModel, and leave-one-out cross-validation.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpibench/table.h"
#include "scaling/fit.h"
#include "scaling/model.h"
#include "scaling/normal_form.h"
#include "stats/empirical.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace {

using mpibench::OpKind;

TEST(AxisTerm, BasisMatchesClosedForm) {
  const scaling::AxisTerm term{1.5, 2};
  const double x = 7.0;
  EXPECT_NEAR(term.basis(x),
              std::pow(x, 1.5) * std::pow(std::log2(x + 1.0), 2.0), 1e-12);
  EXPECT_DOUBLE_EQ(scaling::AxisTerm{}.basis(123.0), 1.0);
  EXPECT_TRUE(scaling::AxisTerm{}.trivial());
  EXPECT_FALSE(term.trivial());
}

TEST(NormalForm, EvaluateCombinesAxes) {
  scaling::NormalForm form;
  form.constant = 2e-6;
  form.coefficient = 3e-9;
  form.size = {1.0, 0};
  form.procs = {0.0, 1};
  const double expected = 2e-6 + 3e-9 * 1024.0 * std::log2(8.0 + 1.0);
  EXPECT_NEAR(form.evaluate(1024.0, 8.0), expected, 1e-18);
}

TEST(NormalForm, SaveLoadRoundTripsExactly) {
  scaling::NormalForm form;
  form.constant = 1.2345678901234567e-6;
  form.coefficient = 9.87654321e-10;
  form.size = {2.0 / 3.0, 1};
  form.procs = {0.5, 2};
  std::stringstream ss;
  form.save(ss);
  const scaling::NormalForm back = scaling::NormalForm::load(ss);
  EXPECT_EQ(form.constant, back.constant);
  EXPECT_EQ(form.coefficient, back.coefficient);
  EXPECT_EQ(form.size, back.size);
  EXPECT_EQ(form.procs, back.procs);
}

TEST(NormalForm, LoadRejectsMalformedLine) {
  std::istringstream in{"1.0 not-a-number 0 0 0 0"};
  EXPECT_THROW((void)scaling::NormalForm::load(in), std::runtime_error);
}

std::vector<scaling::Observation> synthetic_grid(
    double constant, double coefficient, const scaling::AxisTerm& size,
    const scaling::AxisTerm& procs) {
  std::vector<scaling::Observation> points;
  for (const double s : {256.0, 1024.0, 4096.0, 16384.0}) {
    for (const double p : {1.0, 2.0, 4.0, 8.0}) {
      points.push_back(
          {s, p, constant + coefficient * size.basis(s) * procs.basis(p)});
    }
  }
  return points;
}

TEST(FitNormalForm, RecoversGeneratingLaw) {
  const scaling::AxisTerm size{1.0, 0};
  const scaling::AxisTerm procs{0.0, 1};
  const auto points = synthetic_grid(5e-6, 2e-9, size, procs);
  const scaling::TermFit fit = scaling::fit_normal_form(points);
  EXPECT_EQ(fit.form.size, size);
  EXPECT_EQ(fit.form.procs, procs);
  EXPECT_NEAR(fit.form.constant, 5e-6, 1e-10);
  EXPECT_NEAR(fit.form.coefficient, 2e-9, 1e-13);
  EXPECT_LT(fit.mean_rel_error, 1e-6);
}

TEST(FitNormalForm, ConstantDataDegradesToConstant) {
  std::vector<scaling::Observation> points;
  for (const double s : {64.0, 256.0, 1024.0}) {
    for (const double p : {2.0, 4.0}) points.push_back({s, p, 3e-5});
  }
  const scaling::TermFit fit = scaling::fit_normal_form(points);
  EXPECT_NEAR(fit.form.evaluate(512.0, 3.0), 3e-5, 1e-12);
  // Ties prefer the earlier lattice candidate, which is the pure constant.
  EXPECT_TRUE(fit.form.size.trivial());
  EXPECT_TRUE(fit.form.procs.trivial());
}

TEST(FitNormalForm, CoefficientNeverNegative) {
  // Strictly decreasing times vs size: the best non-negative-coefficient
  // law is a constant, never a negative slope that would cross zero when
  // extrapolated.
  std::vector<scaling::Observation> points;
  double t = 1e-3;
  for (const double s : {64.0, 256.0, 1024.0, 4096.0}) {
    points.push_back({s, 2.0, t});
    t /= 2.0;
  }
  const scaling::TermFit fit = scaling::fit_normal_form(points);
  EXPECT_GE(fit.form.coefficient, 0.0);
  EXPECT_GE(fit.form.evaluate(1 << 20, 2.0), 0.0);
}

TEST(FitNormalForm, ThrowsOnEmptyInput) {
  EXPECT_THROW((void)scaling::fit_normal_form({}), std::invalid_argument);
}

TEST(FitNormalForm, DeterministicAcrossRuns) {
  const auto points = synthetic_grid(1e-6, 4e-9, {0.5, 1}, {1.0, 0});
  const scaling::TermFit a = scaling::fit_normal_form(points);
  const scaling::TermFit b = scaling::fit_normal_form(points);
  std::ostringstream sa, sb;
  a.form.save(sa);
  b.form.save(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

/// A table whose cells follow a smooth law with per-quantile spread: the
/// q-th quantile at (s, p) is law(s, p) * (0.9 + 0.2 * q).
mpibench::DistributionTable synthetic_table(OpKind op) {
  mpibench::DistributionTable table;
  for (const net::Bytes s : {net::Bytes{256}, net::Bytes{1024},
                             net::Bytes{4096}, net::Bytes{16384}}) {
    for (const int p : {1, 2, 4, 8}) {
      const double base =
          2e-6 + 1.5e-9 * s.to_double() * std::log2(p + 1.0);
      std::vector<double> samples;
      for (int i = 0; i < 64; ++i) {
        const double q = (i + 0.5) / 64.0;
        samples.push_back(base * (0.9 + 0.2 * q));
      }
      table.insert(op, s, p, stats::EmpiricalDistribution::from_samples(
                                 samples));
    }
  }
  return table;
}

TEST(ScalingModel, FitCoversTableOpsOnly) {
  const auto table = synthetic_table(OpKind::kPtpOneWay);
  const scaling::ScalingModel model = scaling::fit_scaling_model(table);
  EXPECT_TRUE(model.covers(OpKind::kPtpOneWay));
  EXPECT_FALSE(model.covers(OpKind::kBcast));
  EXPECT_EQ(model.size(), 1u);
  EXPECT_THROW((void)model.quantiles(OpKind::kBcast, 1024.0, 2.0),
               std::out_of_range);
}

TEST(ScalingModel, QuantilesAreMonotoneAndAccurate) {
  const auto table = synthetic_table(OpKind::kPtpOneWay);
  const scaling::ScalingModel model = scaling::fit_scaling_model(table);
  // Off-grid in both axes: 4x the largest size, 2x the largest level.
  const auto q = model.quantiles(OpKind::kPtpOneWay, 65536.0, 16.0);
  const double law = 2e-6 + 1.5e-9 * 65536.0 * std::log2(17.0);
  for (int t = 0; t < scaling::ScalingModel::kTracks; ++t) {
    if (t > 0) {
      EXPECT_GE(q[t], q[t - 1]);
    }
    const double expected =
        law * (0.9 + 0.2 * scaling::ScalingModel::track_quantile(t));
    EXPECT_NEAR(q[t], expected, 0.1 * expected);
  }
}

TEST(ScalingModel, DistributionHasEqualWeightAtoms) {
  const auto table = synthetic_table(OpKind::kPtpOneWay);
  const scaling::ScalingModel model = scaling::fit_scaling_model(table);
  const stats::EmpiricalDistribution dist =
      model.distribution(OpKind::kPtpOneWay, net::Bytes{65536}, 16);
  const auto q = model.quantiles(OpKind::kPtpOneWay, 65536.0, 16.0);
  EXPECT_DOUBLE_EQ(dist.min(), q.front());
  EXPECT_DOUBLE_EQ(dist.max(), q.back());
  double mean = 0.0;
  for (const double v : q) mean += v;
  mean /= scaling::ScalingModel::kTracks;
  EXPECT_NEAR(dist.mean(), mean, 1e-12);
}

TEST(ScalingModel, SaveLoadRoundTripsExactly) {
  const auto table = synthetic_table(OpKind::kPtpOneWay);
  const scaling::ScalingModel model = scaling::fit_scaling_model(table);
  std::stringstream ss;
  model.save(ss);
  const scaling::ScalingModel back = scaling::ScalingModel::load(ss);
  std::ostringstream again;
  back.save(again);
  EXPECT_EQ(ss.str(), again.str());
  const auto a = model.quantiles(OpKind::kPtpOneWay, 123456.0, 7.0);
  const auto b = back.quantiles(OpKind::kPtpOneWay, 123456.0, 7.0);
  for (int t = 0; t < scaling::ScalingModel::kTracks; ++t) {
    EXPECT_EQ(a[t], b[t]);
  }
}

TEST(ScalingModel, LoadRejectsMalformedArtifacts) {
  std::istringstream bad_magic{"pevpm-scaling v9\n0 16\n"};
  EXPECT_THROW((void)scaling::ScalingModel::load(bad_magic),
               std::runtime_error);
  std::istringstream truncated{"pevpm-scaling v1\n1 16\n0\n"};
  EXPECT_THROW((void)scaling::ScalingModel::load(truncated),
               std::runtime_error);
}

/// One serialised series of `op` whose every track is `track`.
std::string series_text(int op, const std::string& track) {
  std::string text = std::to_string(op) + "\n";
  for (int t = 0; t < scaling::ScalingModel::kTracks; ++t) {
    text += track + "\n";
  }
  return text;
}

std::string one_series_artifact(int op, const std::string& track) {
  return "pevpm-scaling v1\n1 16\n" + series_text(op, track);
}

TEST(ScalingModel, LoadRejectsUnknownOp) {
  std::istringstream in{one_series_artifact(99, "1e-6 0 0 0 0 0")};
  EXPECT_THROW((void)scaling::ScalingModel::load(in), std::runtime_error);
}

TEST(ScalingModel, LoadRejectsRepeatedOp) {
  std::istringstream in{"pevpm-scaling v1\n2 16\n" +
                        series_text(0, "1e-6 0 0 0 0 0") +
                        series_text(0, "2e-6 0 0 0 0 0")};
  EXPECT_THROW((void)scaling::ScalingModel::load(in), std::runtime_error);
}

TEST(ScalingModel, NonFinitePredictionsThrow) {
  // 1e308 * log2(s + 1) overflows to infinity; a zero coefficient times an
  // infinite log power is NaN.
  for (const char* track : {"0 1e308 0 1 0 0", "0 0 0 4000000 0 0"}) {
    std::istringstream in{one_series_artifact(0, track)};
    const scaling::ScalingModel model = scaling::ScalingModel::load(in);
    EXPECT_THROW((void)model.quantiles(OpKind::kPtpOneWay, 100000.0, 16.0),
                 std::domain_error)
        << track;
    EXPECT_THROW((void)model.distribution(OpKind::kPtpOneWay,
                                          net::Bytes{100000}, 16),
                 std::domain_error)
        << track;
  }
}

TEST(ScalingModel, FitDiagnosticsReportGridAndError) {
  const auto table = synthetic_table(OpKind::kPtpOneWay);
  std::vector<scaling::OpFitDiagnostics> diagnostics;
  (void)scaling::fit_scaling_model(table, &diagnostics);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].op, OpKind::kPtpOneWay);
  EXPECT_EQ(diagnostics[0].grid_cells, 16);
  EXPECT_LT(diagnostics[0].mean_rel_error, 0.05);
}

TEST(CrossValidate, SyntheticLawValidatesTightly) {
  const auto table = synthetic_table(OpKind::kPtpOneWay);
  const scaling::CrossValidationReport report =
      scaling::cross_validate(table);
  ASSERT_EQ(report.per_op.size(), 1u);
  EXPECT_EQ(report.per_op[0].cells, 16);
  EXPECT_EQ(report.cells.size(), 16u);
  // The generating law is in the search space, so held-out error is small.
  EXPECT_LT(report.per_op[0].median_rel_error, 0.05);
  EXPECT_LT(report.worst_p95(), 0.25);
}

/// A 4 x 3 grid whose quantiles follow no lattice law exactly and carry
/// per-cell noise, so leaving any cell out moves the fit. `skip` names a
/// (size, level) cell to leave out of the table; every other cell is the
/// same whatever is skipped.
mpibench::DistributionTable noisy_table(net::Bytes skip_size = {},
                                        int skip_level = 0) {
  mpibench::DistributionTable table;
  const net::Bytes sizes[] = {net::Bytes{64}, net::Bytes{512},
                              net::Bytes{4096}, net::Bytes{32768}};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    for (const int p : {2, 4, 8}) {
      if (sizes[i] == skip_size && p == skip_level) continue;
      stats::Rng rng{1000 * i + static_cast<std::size_t>(p)};
      const double base = 4e-6 + 3e-9 * std::pow(sizes[i].to_double(), 1.1) *
                                     (1.0 + 0.25 * std::sqrt(p));
      std::vector<double> samples;
      for (int k = 0; k < 48; ++k) {
        samples.push_back(base * (1.0 + rng.exponential(0.3)));
      }
      table.insert(OpKind::kPtpOneWay, sizes[i], p,
                   stats::EmpiricalDistribution::from_samples(samples));
    }
  }
  return table;
}

TEST(CrossValidate, EachCellMatchesAFitOfTheTableWithoutIt) {
  const scaling::CrossValidationReport report =
      scaling::cross_validate(noisy_table());
  ASSERT_EQ(report.cells.size(), 12u);
  const mpibench::DistributionTable full = noisy_table();
  for (const scaling::CrossValidationCell& cell : report.cells) {
    const scaling::ScalingModel without = scaling::fit_scaling_model(
        noisy_table(cell.size_bytes, cell.contention));
    const stats::EmpiricalDistribution* measured =
        full.exact(cell.op, cell.size_bytes, cell.contention);
    ASSERT_NE(measured, nullptr);
    const auto errors = scaling::track_errors(
        without.quantiles(cell.op, cell.size_bytes.to_double(),
                          cell.contention),
        *measured);
    SCOPED_TRACE(testing::Message() << cell.size_bytes.count() << " bytes, level "
                                    << cell.contention);
    EXPECT_EQ(cell.median_rel_error, stats::quantile(errors, 0.5));
    EXPECT_EQ(cell.max_rel_error,
              *std::max_element(errors.begin(), errors.end()));
  }
}

TEST(CrossValidate, SkipsOpsWithTooFewCells) {
  mpibench::DistributionTable table;
  table.insert(OpKind::kBarrier, net::Bytes{0}, 2,
               stats::EmpiricalDistribution::constant(1e-6));
  table.insert(OpKind::kBarrier, net::Bytes{0}, 4,
               stats::EmpiricalDistribution::constant(2e-6));
  const scaling::CrossValidationReport report =
      scaling::cross_validate(table);
  EXPECT_TRUE(report.per_op.empty());
  EXPECT_TRUE(report.cells.empty());
  EXPECT_DOUBLE_EQ(report.worst_median(), 0.0);
}

}  // namespace
