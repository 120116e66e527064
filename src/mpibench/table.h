// Distribution tables: MPIBench output, PEVPM input.
//
// A table maps (operation, message size, contention level) to an empirical
// probability distribution of completion time in seconds. "Contention
// level" follows the paper's usage: the total number of concurrently
// communicating processes when the distribution was measured (the n x p of
// the benchmark configuration); PEVPM's scoreboard chooses the level that
// matches the number of outstanding messages during simulation.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "net/units.h"
#include "stats/empirical.h"

namespace mpibench {

enum class OpKind : int {
  kPtpOneWay = 0,  ///< one-way point-to-point delivery (Isend -> recv done)
  kBarrier = 1,
  kBcast = 2,
  kAlltoall = 3,
  kReduce = 4,
  kPtpSender = 5,  ///< local MPI_Isend + MPI_Wait duration at the sender
};

[[nodiscard]] std::string to_string(OpKind op);

/// True when `id` is the value of an OpKind; loaders check every id they
/// read from an artifact.
[[nodiscard]] constexpr bool is_op_kind(int id) noexcept {
  return id >= static_cast<int>(OpKind::kPtpOneWay) &&
         id <= static_cast<int>(OpKind::kPtpSender);
}

class DistributionTable {
 public:
  void insert(OpKind op, net::Bytes bytes, int contention,
              stats::EmpiricalDistribution distribution);

  /// Exact entry or nullptr.
  [[nodiscard]] const stats::EmpiricalDistribution* exact(
      OpKind op, net::Bytes bytes, int contention) const;

  /// Interpolating lookup: blends the bracketing sizes (log scale) at each
  /// of the bracketing contention levels, then blends across contention.
  /// Out-of-range queries clamp to the table edge. Throws if the table has
  /// no entry at all for `op`.
  [[nodiscard]] stats::EmpiricalDistribution lookup(OpKind op, net::Bytes bytes,
                                                    int contention) const;

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::vector<net::Bytes> sizes(OpKind op) const;
  [[nodiscard]] std::vector<int> contentions(OpKind op) const;

  void save(std::ostream& os) const;
  [[nodiscard]] static DistributionTable load(std::istream& is);

 private:
  struct Key {
    int op = 0;
    net::Bytes bytes{};
    int contention = 0;
    [[nodiscard]] auto operator<=>(const Key&) const = default;
  };
  /// Blends across bracketing sizes at one existing contention level.
  [[nodiscard]] stats::EmpiricalDistribution lookup_at_level(
      OpKind op, net::Bytes bytes, int contention) const;

  std::map<Key, stats::EmpiricalDistribution> entries_;
};

}  // namespace mpibench
