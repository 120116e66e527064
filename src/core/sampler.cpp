#include "core/sampler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pevpm {

namespace {
/// Sender-side cost when the table lacks kPtpSender entries.
constexpr double kDefaultSenderSeconds = 25e-6;
}  // namespace

DeliverySampler::DeliverySampler(const mpibench::DistributionTable& table,
                                 SamplerOptions options, std::uint64_t seed)
    : table_{table}, options_{options}, rng_{seed} {}

std::size_t DeliverySampler::hash_key(std::int32_t op, net::Bytes bytes,
                                      std::int32_t contention) noexcept {
  // splitmix64 finaliser over the packed key; op and contention are small,
  // so folding them into the high bits keeps distinct keys distinct.
  return static_cast<std::size_t>(stats::mix64(
      bytes.count() ^ (static_cast<std::uint64_t>(op) << 56) ^
      (static_cast<std::uint64_t>(contention) << 40)));
}

void DeliverySampler::rehash(std::size_t buckets) {
  index_.assign(buckets, kEmpty);
  const std::size_t mask = buckets - 1;
  for (std::uint32_t pos = 0; pos < cells_.size(); ++pos) {
    const Cell& c = cells_[pos];
    std::size_t b = hash_key(c.op, c.bytes, c.contention) & mask;
    while (index_[b] != kEmpty) b = (b + 1) & mask;
    index_[b] = pos;
  }
}

const DeliverySampler::GridExtent& DeliverySampler::extent(
    mpibench::OpKind op) {
  GridExtent& e = extents_[static_cast<std::size_t>(op)];
  if (e.known) return e;
  e.known = true;
  const std::vector<net::Bytes> sizes = table_.sizes(op);
  const std::vector<int> contentions = table_.contentions(op);
  if (!sizes.empty() && !contentions.empty()) {
    e.measured = true;
    e.min_size = *std::min_element(sizes.begin(), sizes.end());
    e.max_size = *std::max_element(sizes.begin(), sizes.end());
    e.min_contention = *std::min_element(contentions.begin(),
                                         contentions.end());
    e.max_contention = *std::max_element(contentions.begin(),
                                         contentions.end());
  }
  return e;
}

bool DeliverySampler::covered(mpibench::OpKind op) {
  if (extent(op).measured) return true;
  return options_.scaling != nullptr && options_.scaling->covers(op);
}

stats::EmpiricalDistribution DeliverySampler::resolve(mpibench::OpKind op,
                                                      net::Bytes bytes,
                                                      int contention) {
  // The scaling model answers keys the table cannot: operations with no
  // measurements at all, and keys outside the measured grid extent (where
  // lookup() would otherwise clamp to the edge distribution). On-grid keys
  // always come from the table — measured data beats any fitted law.
  if (options_.scaling != nullptr && options_.scaling->covers(op)) {
    const GridExtent& e = extent(op);
    const bool off_grid =
        !e.measured || bytes < e.min_size || bytes > e.max_size ||
        contention < e.min_contention || contention > e.max_contention;
    if (off_grid) {
      try {
        return options_.scaling->distribution(op, bytes, contention);
      } catch (const std::domain_error& error) {
        // A hand-made artifact is model input like any other: name the
        // key that it cannot answer.
        throw ModelError{mpibench::to_string(op) + " at " +
                         std::to_string(bytes.count()) + " bytes, contention " +
                         std::to_string(contention) + ": " + error.what()};
      }
    }
  }
  return table_.lookup(op, bytes, contention);
}

const DeliverySampler::Cell& DeliverySampler::cell(mpibench::OpKind op,
                                                   net::Bytes bytes,
                                                   int contention) {
  const auto op_id = static_cast<std::int32_t>(op);
  // Relaxed is enough: the memo is a hint, re-validated against the full
  // key, cells never move once made, and concurrent readers (see the class
  // contract) only run after the cell index stopped growing.
  const Cell* memo = last_cell_.load(std::memory_order_relaxed);
  if (memo != nullptr && memo->op == op_id && memo->bytes == bytes &&
      memo->contention == contention) {
    return *memo;
  }
  if (index_.empty()) rehash(16);
  const std::size_t mask = index_.size() - 1;
  std::size_t b = hash_key(op_id, bytes, contention) & mask;
  while (index_[b] != kEmpty) {
    const Cell& c = cells_[index_[b]];
    if (c.op == op_id && c.bytes == bytes && c.contention == contention) {
      last_cell_.store(&c, std::memory_order_relaxed);
      return c;
    }
    b = (b + 1) & mask;
  }
  const Cell& fresh = cells_.emplace_back(
      Cell{bytes, op_id, contention, resolve(op, bytes, contention)});
  index_[b] = static_cast<std::uint32_t>(cells_.size() - 1);
  last_cell_.store(&fresh, std::memory_order_relaxed);
  // Keep the load factor under 1/2 so probe chains stay short.
  if (cells_.size() * 2 >= index_.size()) rehash(index_.size() * 2);
  return fresh;
}

double DeliverySampler::draw(mpibench::OpKind op, net::Bytes bytes,
                             int contention,
                             std::optional<double> fallback) {
  if (!covered(op)) {
    if (fallback) return *fallback;
    throw std::runtime_error{
        "DeliverySampler: distribution table has no entries for " +
        mpibench::to_string(op)};
  }
  const Cell& c = cell(op, bytes, contention);
  switch (options_.mode) {
    case PredictionMode::kDistribution: return c.dist.sample(rng_);
    case PredictionMode::kAverage: return c.dist.mean();
    case PredictionMode::kMinimum: return c.dist.min();
  }
  return c.dist.mean();
}

double DeliverySampler::delivery_seconds(net::Bytes bytes, int outstanding) {
  const int contention = options_.contention == ContentionSource::kScoreboard
                             ? outstanding
                             : options_.fixed_contention;
  return draw(mpibench::OpKind::kPtpOneWay, bytes, contention, std::nullopt);
}

double DeliverySampler::sender_seconds(net::Bytes bytes, int outstanding) {
  const int contention = options_.contention == ContentionSource::kScoreboard
                             ? outstanding
                             : options_.fixed_contention;
  return draw(mpibench::OpKind::kPtpSender, bytes, contention,
              kDefaultSenderSeconds);
}

double DeliverySampler::late_recv_seconds(net::Bytes bytes, int outstanding) {
  return sender_seconds(bytes, outstanding);
}

double DeliverySampler::collective_seconds(CollOp op, net::Bytes bytes,
                                           int nprocs) {
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
  if (covered(table_op)) {
    double t = draw(table_op, bytes, nprocs, std::nullopt);
    // No direct allreduce table: compose as reduce followed by bcast.
    if (op == CollOp::kAllreduce && covered(mpibench::OpKind::kBcast)) {
      t += draw(mpibench::OpKind::kBcast, bytes, nprocs, std::nullopt);
    }
    return t;
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
  const net::Bytes per_round = op == CollOp::kBarrier ? net::Bytes{} : bytes;
  double total = 0.0;
  for (int i = 0; i < rounds; ++i) {
    total += draw(mpibench::OpKind::kPtpOneWay, per_round, c, std::nullopt);
  }
  return total;
}

}  // namespace pevpm
