#include "scaling/fit.h"

#include <cmath>
#include <stdexcept>

namespace scaling {

namespace {

/// The bounded exponent lattice, after Extra-P's practice: polynomial
/// exponents in small rational steps, log exponents 0..2 on both axes.
/// Scan order is the tie rule, so the order is part of the fit.
constexpr double kSizeExponents[] = {0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0,
                                     1.0, 4.0 / 3.0, 1.5, 2.0};
constexpr double kProcsExponents[] = {0.0, 0.5, 1.0, 1.5, 2.0};
constexpr int kLogExponents[] = {0, 1, 2};

struct Candidate {
  AxisTerm size;
  AxisTerm procs;
};

struct Solve {
  double constant = 0.0;
  double coefficient = 0.0;
  double rss = 0.0;
  bool ok = false;
};

/// Weighted least squares of y ~ c0 + c1 * phi with weights 1/max(y,floor)^2.
/// Fails (ok = false) when the basis carries no information across the
/// points — the constant candidate owns that case.
Solve solve_candidate(std::span<const Observation> points,
                      const Candidate& candidate) {
  double sw = 0.0;
  double swp = 0.0;
  double swpp = 0.0;
  double swy = 0.0;
  double swpy = 0.0;
  for (const Observation& point : points) {
    const double phi = candidate.size.basis(point.size_bytes) *
                       candidate.procs.basis(point.procs);
    if (!std::isfinite(phi)) return {};
    const double y = point.seconds;
    const double scale = std::max(std::fabs(y), kTimeFloor);
    const double w = 1.0 / (scale * scale);
    sw += w;
    swp += w * phi;
    swpp += w * phi * phi;
    swy += w * y;
    swpy += w * phi * y;
  }
  Solve out;
  const double det = sw * swpp - swp * swp;
  // Relative singularity test: det scales like sw^2 * var(phi).
  if (!(det > 1e-12 * sw * swpp)) return {};
  out.constant = (swpp * swy - swp * swpy) / det;
  out.coefficient = (sw * swpy - swp * swy) / det;
  if (!std::isfinite(out.constant) || !std::isfinite(out.coefficient)) {
    return {};
  }
  // Non-negative coefficient keeps extrapolated times from diving through
  // zero; a genuinely flat series is served by the constant candidate.
  if (out.coefficient < 0.0) return {};
  for (const Observation& point : points) {
    const double phi = candidate.size.basis(point.size_bytes) *
                       candidate.procs.basis(point.procs);
    const double r = out.constant + out.coefficient * phi - point.seconds;
    const double scale = std::max(std::fabs(point.seconds), kTimeFloor);
    out.rss += (r / scale) * (r / scale);
  }
  out.ok = true;
  return out;
}

/// The constant-only model: weighted mean of the observations.
Solve solve_constant(std::span<const Observation> points) {
  double sw = 0.0;
  double swy = 0.0;
  for (const Observation& point : points) {
    const double scale = std::max(std::fabs(point.seconds), kTimeFloor);
    const double w = 1.0 / (scale * scale);
    sw += w;
    swy += w * point.seconds;
  }
  Solve out;
  out.constant = swy / sw;
  out.coefficient = 0.0;
  for (const Observation& point : points) {
    const double r = out.constant - point.seconds;
    const double scale = std::max(std::fabs(point.seconds), kTimeFloor);
    out.rss += (r / scale) * (r / scale);
  }
  out.ok = true;
  return out;
}

double mean_rel_error(std::span<const Observation> points,
                      const NormalForm& form) {
  double sum = 0.0;
  for (const Observation& point : points) {
    const double predicted = form.evaluate(point.size_bytes, point.procs);
    const double scale = std::max(std::fabs(point.seconds), kTimeFloor);
    sum += std::fabs(predicted - point.seconds) / scale;
  }
  return sum / static_cast<double>(points.size());
}

}  // namespace

TermFit fit_normal_form(std::span<const Observation> points) {
  if (points.empty()) {
    throw std::invalid_argument{"fit_normal_form: no observations"};
  }

  TermFit best;
  const Solve constant = solve_constant(points);
  best.form.constant = constant.constant;
  best.relative_rss = constant.rss;

  // Perfectly-fittable data (e.g. a flat series) leaves every candidate
  // with rss at rounding-noise level, where the relative threshold alone
  // would let float noise pick an arbitrary non-trivial term. Any win
  // smaller than this absolute floor is noise, not signal.
  const double noise_floor = static_cast<double>(points.size()) * 1e-24;

  for (const double se : kSizeExponents) {
    for (const int sle : kLogExponents) {
      for (const double pe : kProcsExponents) {
        for (const int ple : kLogExponents) {
          const Candidate candidate{AxisTerm{se, sle}, AxisTerm{pe, ple}};
          if (candidate.size.trivial() && candidate.procs.trivial()) {
            continue;  // the constant model, already solved above
          }
          const Solve solve = solve_candidate(points, candidate);
          if (!solve.ok) continue;
          // Strict-improvement threshold: ties (and noise-level wins) keep
          // the earlier, simpler lattice candidate, so term selection is a
          // deterministic function of the observations.
          if (solve.rss + noise_floor < best.relative_rss * (1.0 - 1e-9)) {
            best.form.constant = solve.constant;
            best.form.coefficient = solve.coefficient;
            best.form.size = candidate.size;
            best.form.procs = candidate.procs;
            best.relative_rss = solve.rss;
          }
        }
      }
    }
  }
  best.mean_rel_error = mean_rel_error(points, best.form);
  return best;
}

}  // namespace scaling
