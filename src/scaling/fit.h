// Model-term search: fits one normal-form law to sweep-grid observations.
//
// The search is an exhaustive scan of a bounded exponent lattice (the
// Extra-P search-space restriction). For every candidate pair of axis
// terms, the remaining unknowns — constant and coefficient — are linear,
// so each candidate costs one weighted least-squares solve. Residuals are
// weighted by 1/y^2 (relative error): communication times span four
// orders of magnitude across the sweep, and an unweighted fit would let
// the largest message size dominate every term choice.
#pragma once

#include <span>

#include "scaling/normal_form.h"

namespace scaling {

/// One observation: a per-quantile completion time at a sweep grid point.
struct Observation {
  double size_bytes = 0.0;
  double procs = 0.0;
  double seconds = 0.0;
};

/// Floor for relative-error scales and predicted times: one nanosecond is
/// far below any simulated operation, and it keeps zero observations from
/// blowing up the 1/y^2 weights.
inline constexpr double kTimeFloor = 1e-9;

struct TermFit {
  NormalForm form{};
  /// Weighted residual sum of squares of the winning candidate (the
  /// selection criterion; relative because of the 1/y^2 weights).
  double relative_rss = 0.0;
  /// Mean absolute relative error of the fit over its own inputs.
  double mean_rel_error = 0.0;
};

/// Fits the best single-term normal form to `points` over the fixed
/// exponent lattice in fit.cpp. Ties prefer the earlier (simpler) lattice
/// candidate, so the result is deterministic.
/// Coefficients are constrained non-negative: completion time must not be
/// fitted as decreasing without bound in size or contention, or
/// extrapolation would cross zero. Throws std::invalid_argument on empty
/// input. Axes with a single distinct value degrade to constant factors
/// automatically (their basis carries no information, so the constant
/// candidate wins the tie).
[[nodiscard]] TermFit fit_normal_form(std::span<const Observation> points);

}  // namespace scaling
