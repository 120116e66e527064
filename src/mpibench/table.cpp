#include "mpibench/table.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <set>
#include <stdexcept>

namespace mpibench {

std::string to_string(OpKind op) {
  switch (op) {
    case OpKind::kPtpOneWay: return "ptp_oneway";
    case OpKind::kBarrier: return "barrier";
    case OpKind::kBcast: return "bcast";
    case OpKind::kAlltoall: return "alltoall";
    case OpKind::kReduce: return "reduce";
    case OpKind::kPtpSender: return "ptp_sender";
  }
  return "unknown";
}

void DistributionTable::insert(OpKind op, net::Bytes bytes, int contention,
                               stats::EmpiricalDistribution distribution) {
  if (!distribution.valid()) {
    throw std::invalid_argument{"DistributionTable::insert: empty distribution"};
  }
  entries_[Key{static_cast<int>(op), bytes, contention}] =
      std::move(distribution);
}

const stats::EmpiricalDistribution* DistributionTable::exact(
    OpKind op, net::Bytes bytes, int contention) const {
  const auto it = entries_.find(Key{static_cast<int>(op), bytes, contention});
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<net::Bytes> DistributionTable::sizes(OpKind op) const {
  std::set<net::Bytes> out;
  for (const auto& [key, dist] : entries_) {
    if (key.op == static_cast<int>(op)) out.insert(key.bytes);
  }
  return {out.begin(), out.end()};
}

std::vector<int> DistributionTable::contentions(OpKind op) const {
  std::set<int> out;
  for (const auto& [key, dist] : entries_) {
    if (key.op == static_cast<int>(op)) out.insert(key.contention);
  }
  return {out.begin(), out.end()};
}

namespace {

/// Log-scale interpolation weight of `x` between `lo` and `hi` (+1 guards
/// zero-byte messages).
double log_weight(double lo, double x, double hi) {
  const double a = std::log(lo + 1.0);
  const double b = std::log(hi + 1.0);
  const double v = std::log(x + 1.0);
  if (b <= a) return 0.0;
  return std::clamp((v - a) / (b - a), 0.0, 1.0);
}

/// Neighbours of `x` in a sorted list: (lower-or-equal, upper-or-equal),
/// clamped at the edges.
template <typename T>
std::pair<T, T> bracket(const std::vector<T>& xs, T x) {
  if (xs.empty()) throw std::logic_error{"bracket: empty axis"};
  auto hi = std::lower_bound(xs.begin(), xs.end(), x);
  if (hi == xs.end()) return {xs.back(), xs.back()};
  if (*hi == x || hi == xs.begin()) return {*hi, *hi};
  return {*(hi - 1), *hi};
}

}  // namespace

stats::EmpiricalDistribution DistributionTable::lookup_at_level(
    OpKind op, net::Bytes bytes, int contention) const {
  std::vector<net::Bytes> level_sizes;
  for (const auto& [key, dist] : entries_) {
    if (key.op == static_cast<int>(op) && key.contention == contention) {
      level_sizes.push_back(key.bytes);
    }
  }
  std::sort(level_sizes.begin(), level_sizes.end());
  const auto [s0, s1] = bracket(level_sizes, bytes);
  const auto* d0 = exact(op, s0, contention);
  const auto* d1 = exact(op, s1, contention);
  if (s0 == s1) return *d0;
  const double w =
      log_weight(s0.to_double(), bytes.to_double(), s1.to_double());
  return d0->blended(*d1, w);
}

stats::EmpiricalDistribution DistributionTable::lookup(OpKind op,
                                                       net::Bytes bytes,
                                                       int contention) const {
  const std::vector<int> levels = contentions(op);
  if (levels.empty()) {
    throw std::out_of_range{"DistributionTable::lookup: no entries for op " +
                            to_string(op)};
  }
  const auto [c0, c1] = bracket(levels, contention);
  stats::EmpiricalDistribution at_c0 = lookup_at_level(op, bytes, c0);
  if (c0 == c1) return at_c0;
  const stats::EmpiricalDistribution at_c1 = lookup_at_level(op, bytes, c1);
  const double w = log_weight(c0, contention, c1);
  return at_c0.blended(at_c1, w);
}

void DistributionTable::save(std::ostream& os) const {
  os << "pevpm-table v1\n" << entries_.size() << '\n';
  for (const auto& [key, dist] : entries_) {
    os << key.op << ' ' << key.bytes.count() << ' ' << key.contention
       << '\n';
    dist.save(os);
  }
}

DistributionTable DistributionTable::load(std::istream& is) {
  std::string magic;
  std::string version;
  if (!(is >> magic >> version) || magic != "pevpm-table" || version != "v1") {
    throw std::runtime_error{"DistributionTable::load: bad header"};
  }
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error{"DistributionTable::load: bad count"};
  DistributionTable table;
  for (std::size_t i = 0; i < n; ++i) {
    Key key;
    std::uint64_t raw_bytes = 0;
    if (!(is >> key.op >> raw_bytes >> key.contention)) {
      throw std::runtime_error{"DistributionTable::load: truncated key"};
    }
    if (!is_op_kind(key.op)) {
      throw std::runtime_error{"DistributionTable::load: unknown op " +
                               std::to_string(key.op)};
    }
    key.bytes = net::Bytes{raw_bytes};
    table.entries_[key] = stats::EmpiricalDistribution::load(is);
  }
  return table;
}

}  // namespace mpibench
