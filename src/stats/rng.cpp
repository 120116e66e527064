#include "stats/rng.h"

#include <cmath>

namespace stats {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  return mix64(x);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  for (auto& word : s_) word = splitmix64(seed);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return v % n;
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * m;
  has_spare_ = true;
  return u * m;
}

double Rng::normal(double mean, double sigma) noexcept {
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

Rng Rng::split() noexcept { return Rng{(*this)()}; }

}  // namespace stats
