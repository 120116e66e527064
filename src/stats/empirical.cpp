#include "stats/empirical.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace stats {

EmpiricalDistribution::EmpiricalDistribution(const Histogram& hist) {
  for (const auto& bin : hist.bins()) {
    if (bin.count == 0) continue;
    cells_.push_back(Cell{.lo = bin.lo, .hi = bin.hi, .weight = bin.count});
  }
  finalize();
  if (valid()) {
    // The histogram keeps exact streaming statistics of the raw samples;
    // prefer those over bin-resolution estimates for the min/avg models.
    mean_ = hist.summary().mean();
    stddev_ = hist.summary().stddev();
    min_ = hist.summary().min();
    max_ = hist.summary().max();
  }
}

EmpiricalDistribution EmpiricalDistribution::from_samples(
    std::span<const double> xs) {
  EmpiricalDistribution d;
  std::vector<double> sorted(xs.begin(), xs.end());
  // NaN never equals itself, so the run loop below would never end.
  for (const double x : sorted) {
    if (!std::isfinite(x)) {
      throw std::invalid_argument{"EmpiricalDistribution::from_samples: "
                                  "non-finite sample"};
    }
  }
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    d.cells_.push_back(
        Cell{.lo = sorted[i], .hi = sorted[i], .weight = j - i});
    i = j;
  }
  d.finalize();
  return d;
}

EmpiricalDistribution EmpiricalDistribution::constant(double value) {
  EmpiricalDistribution d;
  d.cells_.push_back(Cell{.lo = value, .hi = value, .weight = 1});
  d.finalize();
  return d;
}

void EmpiricalDistribution::finalize() {
  total_ = 0;
  for (auto& cell : cells_) {
    total_ += cell.weight;
    cell.cum = total_;
  }
  thresholds_.clear();
  guide_.clear();
  if (total_ == 0) return;
  limit_ = Rng::max() - Rng::max() % total_;
  remainder_magic_ = remainder_magic(total_);
  thresholds_.reserve(cells_.size());
  for (const Cell& cell : cells_) {
    thresholds_.push_back(pick_threshold(cell.cum, remainder_magic_, total_));
  }
  // At least four buckets per cell, so a scan from the guide entry passes
  // a quarter of a threshold on average.
  const std::uint64_t buckets = std::bit_ceil(4 * std::uint64_t{cells_.size()});
  guide_shift_ = 64 - std::countr_zero(buckets);
  guide_.resize(buckets);
  std::uint32_t first = 0;
  for (std::uint64_t j = 0; j < buckets; ++j) {
    const Uint128 lowest = Uint128{j} << (64 + guide_shift_);
    while (thresholds_[first] <= lowest) ++first;
    guide_[j] = first;
  }
  double sum = 0.0;
  double sumsq = 0.0;
  for (const auto& cell : cells_) {
    const double mid = 0.5 * (cell.lo + cell.hi);
    const double w = static_cast<double>(cell.weight);
    sum += mid * w;
    // For a uniform cell the second moment is mid^2 + width^2/12.
    const double width = cell.hi - cell.lo;
    sumsq += (mid * mid + width * width / 12.0) * w;
  }
  const double n = static_cast<double>(total_);
  mean_ = sum / n;
  stddev_ = std::sqrt(std::max(0.0, sumsq / n - mean_ * mean_));
  min_ = cells_.front().lo;
  max_ = cells_.back().hi;
}

void EmpiricalDistribution::throw_empty() {
  throw std::logic_error{"sampling an empty distribution"};
}

double EmpiricalDistribution::cdf(double x) const {
  if (!valid()) throw std::logic_error{"cdf of an empty distribution"};
  // Cells are sorted by lo but may overlap (blended mixtures interleave the
  // two inputs' supports), so every cell with lo <= x can contribute: atoms
  // count fully when x >= lo (right-continuity: P[X <= x] includes the mass
  // AT x), continuous cells fully past hi and pro rata inside.
  double below = 0.0;
  for (const auto& cell : cells_) {
    if (cell.lo > x) break;
    if (cell.lo == cell.hi || x >= cell.hi) {
      below += static_cast<double>(cell.weight);
    } else {
      const double frac = (x - cell.lo) / (cell.hi - cell.lo);
      below += frac * static_cast<double>(cell.weight);
    }
  }
  return below / static_cast<double>(total_);
}

double EmpiricalDistribution::quantile(double q) const {
  if (!valid()) throw std::logic_error{"quantile of an empty distribution"};
  q = std::clamp(q, 0.0, 1.0);
  // See sample(): quantiles respect the exact observed extrema.
  const double target = q * static_cast<double>(total_);
  std::uint64_t prev_cum = 0;
  for (const auto& cell : cells_) {
    if (static_cast<double>(cell.cum) >= target) {
      if (cell.lo == cell.hi) return cell.lo;
      const double inside = target - static_cast<double>(prev_cum);
      const double frac =
          cell.weight > 0 ? inside / static_cast<double>(cell.weight) : 0.0;
      return std::clamp(cell.lo + frac * (cell.hi - cell.lo), min_, max_);
    }
    prev_cum = cell.cum;
  }
  return max_;
}

EmpiricalDistribution EmpiricalDistribution::scaled(double k) const {
  EmpiricalDistribution out = *this;
  for (auto& cell : out.cells_) {
    cell.lo *= k;
    cell.hi *= k;
    if (cell.lo > cell.hi) std::swap(cell.lo, cell.hi);
  }
  if (k < 0) std::reverse(out.cells_.begin(), out.cells_.end());
  out.finalize();
  return out;
}

EmpiricalDistribution EmpiricalDistribution::blended(
    const EmpiricalDistribution& other, double w) const {
  if (!valid()) return other;
  if (!other.valid() || w <= 0.0) return *this;
  if (w >= 1.0) return other;
  // Re-weight both inputs over a common denominator so the mixture has the
  // requested proportions regardless of original sample counts. Round the
  // fixed-point weights: truncation maps w < ~1e-7 to wb == 0 (and w within
  // ~1e-17 of 1 to wa == kScale via double rounding), silently dropping one
  // input while still inserting its cells at zero weight — which corrupts
  // min()/max() because finalize() reads the extreme cells unconditionally.
  constexpr std::uint64_t kScale = 1u << 20;
  const auto wa = static_cast<std::uint64_t>(
      std::llround((1.0 - w) * static_cast<double>(kScale)));
  const auto wb = kScale - wa;
  if (wb == 0) return *this;
  if (wa == 0) return other;
  // Each weight is below 2^64 and each scale at most 2^20, so the
  // products and their sum fit 128 bits; the mixture's total must fit 64.
  EmpiricalDistribution out;
  Uint128 total = 0;
  const auto add = [&](const EmpiricalDistribution& from,
                       std::uint64_t scale) {
    for (const auto& cell : from.cells_) {
      if (cell.weight == 0) continue;
      const Uint128 weight = Uint128{cell.weight} * scale;
      total += weight;
      out.cells_.push_back(Cell{.lo = cell.lo,
                                .hi = cell.hi,
                                .weight = static_cast<std::uint64_t>(weight)});
    }
  };
  add(*this, wa);
  add(other, wb);
  if (total > std::numeric_limits<std::uint64_t>::max()) {
    throw std::overflow_error{
        "EmpiricalDistribution::blended: the interpolated weights overflow "
        "64 bits"};
  }
  std::sort(out.cells_.begin(), out.cells_.end(),
            [](const Cell& a, const Cell& b) {
              return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
            });
  out.finalize();
  return out;
}

void EmpiricalDistribution::save(std::ostream& os) const {
  const auto precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << cells_.size() << '\n';
  for (const auto& cell : cells_) {
    os << cell.lo << ' ' << cell.hi << ' ' << cell.weight << '\n';
  }
  os.precision(precision);
}

EmpiricalDistribution EmpiricalDistribution::load(std::istream& is) {
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error{"EmpiricalDistribution::load: bad header"};
  EmpiricalDistribution d;
  d.cells_.reserve(n);
  double prev_lo = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    Cell cell;
    if (!(is >> cell.lo >> cell.hi >> cell.weight)) {
      throw std::runtime_error{"EmpiricalDistribution::load: truncated data"};
    }
    // A malformed table must not reach finalize(): inverted or non-finite
    // cells break the piecewise-linear CDF, out-of-order cells break the
    // sorted-by-lo invariant cdf()/quantile() rely on, and an overflowing
    // cumulative sum makes the weighted pick land on arbitrary cells.
    if (!std::isfinite(cell.lo) || !std::isfinite(cell.hi)) {
      throw std::runtime_error{"EmpiricalDistribution::load: non-finite cell"};
    }
    if (cell.lo > cell.hi) {
      throw std::runtime_error{"EmpiricalDistribution::load: inverted cell"};
    }
    if (cell.lo < prev_lo) {
      throw std::runtime_error{"EmpiricalDistribution::load: unsorted cells"};
    }
    prev_lo = cell.lo;
    if (cell.weight > std::numeric_limits<std::uint64_t>::max() - d.total_) {
      throw std::runtime_error{"EmpiricalDistribution::load: weight overflow"};
    }
    d.total_ += cell.weight;
    // Every other constructor maintains "cells carry weight"; dropping
    // zero-weight rows here keeps finalize()'s front()/back() min/max read
    // honest.
    if (cell.weight > 0) d.cells_.push_back(cell);
  }
  if (n > 0 && d.total_ == 0) {
    throw std::runtime_error{"EmpiricalDistribution::load: zero total weight"};
  }
  d.finalize();
  return d;
}

}  // namespace stats
