#include "core/sampler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace pevpm {

namespace {

/// "<op> at N bytes, contention C": the key an error names.
std::string key_name(mpibench::OpKind op, net::Bytes bytes, int contention) {
  return mpibench::to_string(op) + " at " + std::to_string(bytes.count()) +
         " bytes, contention " + std::to_string(contention);
}

}  // namespace

SamplerCells::SamplerCells(const mpibench::DistributionTable& table,
                           SamplerOptions options)
    : table_{table}, options_{options} {
  for (std::size_t id = 0; id < grid_.size(); ++id) {
    const auto op = static_cast<mpibench::OpKind>(id);
    OpGrid& g = grid_[id];
    // Both lists come sorted from the table.
    const std::vector<net::Bytes> sizes = table_.sizes(op);
    const std::vector<int> contentions = table_.contentions(op);
    g.measured = !sizes.empty() && !contentions.empty();
    if (g.measured) {
      g.min_size = sizes.front();
      g.max_size = sizes.back();
      g.min_contention = contentions.front();
      g.max_contention = contentions.back();
    }
    g.extrapolated =
        options_.scaling != nullptr && options_.scaling->covers(op);
    g.covered = g.measured || g.extrapolated;
    g.key_min = g.extrapolated ? std::numeric_limits<int>::min()
                               : g.min_contention;
    g.key_max = g.extrapolated ? std::numeric_limits<int>::max()
                               : g.max_contention;
  }
}

stats::EmpiricalDistribution SamplerCells::resolve(mpibench::OpKind op,
                                                   net::Bytes bytes,
                                                   int contention) const {
  // The scaling model answers keys the table cannot: operations with no
  // measurements at all, and keys outside the measured grid extent (where
  // lookup() would otherwise clamp to the edge distribution). On-grid keys
  // always come from the table — measured data beats any fitted law.
  const OpGrid& g = grid_[static_cast<std::size_t>(op)];
  if (g.extrapolated) {
    const bool off_grid =
        !g.measured || bytes < g.min_size || bytes > g.max_size ||
        contention < g.min_contention || contention > g.max_contention;
    if (off_grid) {
      try {
        return options_.scaling->distribution(op, bytes, contention);
      } catch (const std::domain_error& error) {
        // A hand-made artifact is model input like any other: name the
        // key that it cannot answer.
        throw ModelError{key_name(op, bytes, contention) + ": " +
                         error.what()};
      }
    }
  }
  try {
    return table_.lookup(op, bytes, contention);
  } catch (const std::overflow_error& error) {
    // Interpolating a table whose weights are near 2^64 can overflow; the
    // table is model input, so name the key.
    throw ModelError{key_name(op, bytes, contention) + ": " + error.what()};
  }
}

const stats::EmpiricalDistribution& SamplerCells::distribution(
    mpibench::OpKind op, net::Bytes bytes, int contention) {
  const Key key{static_cast<int>(op), bytes, contention};
  MutexLock lock{mu_};
  if (const auto it = cells_.find(key); it != cells_.end()) return it->second;
  // Resolved under the lock, so each key is resolved once per prediction
  // however many replications race to it; a throw inserts nothing.
  return cells_.emplace(key, resolve(op, bytes, contention)).first->second;
}

std::size_t SamplerCells::resolved() const {
  MutexLock lock{mu_};
  return cells_.size();
}

DeliverySampler::DeliverySampler(const mpibench::DistributionTable& table,
                                 SamplerOptions options, std::uint64_t seed)
    : own_cells_{std::make_unique<SamplerCells>(table, options)},
      cells_{own_cells_.get()},
      mode_{options.mode},
      fixed_contention_{options.contention == ContentionSource::kFixed},
      contention_level_{options.fixed_contention},
      rngs_{stats::Rng{seed}},
      drawn_(1) {}

DeliverySampler::DeliverySampler(SamplerCells& cells, std::uint64_t seed)
    : DeliverySampler{cells, std::span<const std::uint64_t>{&seed, 1}} {}

DeliverySampler::DeliverySampler(SamplerCells& cells,
                                 std::span<const std::uint64_t> seeds)
    : cells_{&cells},
      mode_{cells.options().mode},
      fixed_contention_{cells.options().contention ==
                        ContentionSource::kFixed},
      contention_level_{cells.options().fixed_contention},
      rngs_(seeds.begin(), seeds.end()),
      drawn_(seeds.size()) {}

void DeliverySampler::throw_uncovered(mpibench::OpKind op) {
  throw std::runtime_error{
      "DeliverySampler: distribution table has no entries for " +
      mpibench::to_string(op)};
}

void DeliverySampler::place_row(std::uint32_t pos) {
  const Row& row = rows_[pos];
  const std::size_t mask = row_slots_.size() - 1;
  std::size_t slot = home_slot(row.op, row.bytes);
  while (row_slots_[slot] != kNoRow) slot = (slot + 1) & mask;
  row_slots_[slot] = pos;
}

const stats::EmpiricalDistribution& DeliverySampler::index_miss(
    mpibench::OpKind op, net::Bytes bytes, int contention) {
  const stats::EmpiricalDistribution& dist =
      cells_->distribution(op, bytes, contention);
  const auto op_id = static_cast<std::int32_t>(op);
  std::uint32_t pos = find_row(op_id, bytes);
  if (pos == kNoRow) {
    pos = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back(Row{bytes, op_id, contention, {}});
    if (rows_.size() * 2 > row_slots_.size()) {
      // Keep the slots at most half full: double them and place every row
      // again.
      row_slots_.assign(row_slots_.size() * 2, kNoRow);
      --slot_shift_;
      for (std::uint32_t p = 0; p < rows_.size(); ++p) place_row(p);
    } else {
      place_row(pos);
    }
  }
  Row& row = rows_[pos];
  const std::int64_t first = std::min<std::int64_t>(row.first, contention);
  const std::int64_t last = std::max<std::int64_t>(
      row.first + static_cast<std::int64_t>(row.by_contention.size()) - 1,
      contention);
  if (last - first >= kDenseContention) return dist;
  row.by_contention.insert(row.by_contention.begin(),
                           static_cast<std::size_t>(row.first - first),
                           nullptr);
  row.by_contention.resize(static_cast<std::size_t>(last - first + 1),
                           nullptr);
  row.first = static_cast<int>(first);
  row.by_contention[static_cast<std::size_t>(contention - first)] = &dist;
  return dist;
}

double DeliverySampler::collective_seconds(CollOp op, net::Bytes bytes,
                                           int nprocs) {
  double seconds = 0.0;
  collective_seconds(op, bytes, nprocs, {&seconds, 1});
  return seconds;
}

void DeliverySampler::collective_seconds(CollOp op, net::Bytes bytes,
                                         int nprocs, std::span<double> out) {
  const auto table_op = [op] {
    switch (op) {
      case CollOp::kBarrier: return mpibench::OpKind::kBarrier;
      case CollOp::kBcast: return mpibench::OpKind::kBcast;
      case CollOp::kReduce:
      case CollOp::kAllreduce: return mpibench::OpKind::kReduce;
      case CollOp::kAlltoall: return mpibench::OpKind::kAlltoall;
    }
    return mpibench::OpKind::kBarrier;
  }();
  const int lanes = static_cast<int>(out.size());
  if (cells_->covered(table_op)) {
    draw(table_op, bytes, nprocs, lanes,
         [&](int lane, double seconds) { out[lane] = seconds; });
    // No direct allreduce table: compose as reduce followed by bcast.
    if (op == CollOp::kAllreduce &&
        cells_->covered(mpibench::OpKind::kBcast)) {
      draw(cell(mpibench::OpKind::kBcast, bytes, nprocs), lanes,
           [&](int lane, double seconds) { out[lane] += seconds; });
    }
    return;
  }
  // Synthesis from point-to-point data: binomial trees are log-depth,
  // all-to-all is (P-1) pairwise rounds. Contention during a collective is
  // roughly one message per process pair active at a time per tree level.
  const int c = std::max(1, nprocs / 2);
  int rounds = 0;
  switch (op) {
    case CollOp::kBarrier:
    case CollOp::kBcast:
    case CollOp::kReduce: {
      for (int span = 1; span < nprocs; span *= 2) ++rounds;
      break;
    }
    case CollOp::kAllreduce: {
      for (int span = 1; span < nprocs; span *= 2) ++rounds;
      rounds *= 2;
      break;
    }
    case CollOp::kAlltoall:
      rounds = nprocs - 1;
      break;
  }
  std::fill(out.begin(), out.end(), 0.0);
  if (rounds == 0) return;
  const net::Bytes per_round = op == CollOp::kBarrier ? net::Bytes{} : bytes;
  const stats::EmpiricalDistribution& round =
      cell(mpibench::OpKind::kPtpOneWay, per_round, c);
  // Each lane adds its rounds in order, as a sum over one lane's draws
  // would.
  for (int i = 0; i < rounds; ++i) {
    draw(round, lanes, [&](int lane, double seconds) { out[lane] += seconds; });
  }
}

}  // namespace pevpm
