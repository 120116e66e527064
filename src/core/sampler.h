// Monte-Carlo sampling of low-level operation times for the PEVPM.
//
// The sampler is PEVPM's only window onto the machine: it never touches the
// network simulator, only the distribution tables produced by MPIBench —
// exactly the closed loop the paper describes. Three prediction modes
// reproduce the paper's Figure 6 comparison:
//
//   kDistribution — draw from the full empirical PDF (the PEVPM proper)
//   kAverage      — use the distribution's mean (what conventional
//                   modelling does with benchmark averages)
//   kMinimum      — use the distribution's minimum (ideal, contention-free
//                   ping-pong modelling; always over-predicts performance)
//
// and two contention sources:
//
//   kScoreboard   — pick the table level matching the number of messages
//                   currently outstanding on the contention scoreboard
//   kFixed        — always use one level (2 = plain ping-pong data, the
//                   "2x1" curves; or n*p for the "n x p averages" curves)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/model.h"
#include "mpibench/table.h"
#include "scaling/model.h"
#include "stats/rng.h"

namespace pevpm {

enum class PredictionMode { kDistribution, kAverage, kMinimum };
enum class ContentionSource { kScoreboard, kFixed };

struct SamplerOptions {
  PredictionMode mode = PredictionMode::kDistribution;
  ContentionSource contention = ContentionSource::kScoreboard;
  int fixed_contention = 2;
  /// Per-quantile scaling model (src/scaling) used as a fallback for grid
  /// cells the table does not cover: keys outside the measured size or
  /// contention range of an operation, or operations with no table entries
  /// at all. Null disables extrapolation — off-grid keys then clamp to the
  /// table edge exactly as before. Not owned; must outlive the sampler.
  const scaling::ScalingModel* scaling = nullptr;
};

// Thread-safety contract: a DeliverySampler is single-threaded while any
// call can grow the cell index or draw randomness. Once every key has been
// resolved (warm), kAverage and kMinimum are read-only and MAY be called
// from several threads; the atomic last-cell memo is their only write.
class DeliverySampler {
 public:
  DeliverySampler(const mpibench::DistributionTable& table,
                  SamplerOptions options, std::uint64_t seed);

  /// One-way delivery time (seconds) for a message of `bytes` with
  /// `outstanding` messages on the scoreboard.
  [[nodiscard]] double delivery_seconds(net::Bytes bytes, int outstanding);

  /// Local cost of the send operation at the sender.
  [[nodiscard]] double sender_seconds(net::Bytes bytes, int outstanding);

  /// Local cost of completing a receive whose message already arrived (the
  /// one-way distribution covers receiver cost only when the receive was
  /// waiting). Uses the kPtpSender table as a proxy for per-size local MPI
  /// op cost.
  [[nodiscard]] double late_recv_seconds(net::Bytes bytes, int outstanding);

  /// Per-process completion time of a collective over `nprocs` processes.
  /// Uses measured collective tables when present (keyed by nprocs on the
  /// contention axis); otherwise synthesises a log-tree / pairwise
  /// estimate from the point-to-point table.
  [[nodiscard]] double collective_seconds(CollOp op, net::Bytes bytes,
                                          int nprocs);

  [[nodiscard]] const SamplerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] stats::Rng& rng() noexcept { return rng_; }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  /// One memoised (op, size, contention) cell and its distribution. Models
  /// use few distinct message sizes and a bounded range of contention
  /// levels, so steady-state sampling resolves every key from this index
  /// without touching the table.
  struct Cell {
    net::Bytes bytes{};
    std::int32_t op = 0;
    std::int32_t contention = 0;
    stats::EmpiricalDistribution dist;
  };

  /// Measured-grid extent of one operation, resolved lazily (the table is
  /// immutable). `measured` is false when the op has no table entries.
  struct GridExtent {
    bool known = false;
    bool measured = false;
    net::Bytes min_size{};
    net::Bytes max_size{};
    int min_contention = 0;
    int max_contention = 0;
  };

  [[nodiscard]] double draw(mpibench::OpKind op, net::Bytes bytes,
                            int contention, std::optional<double> fallback);
  /// Flat-hash lookup of the memoised cell for a key, interpolating from
  /// the table — or reconstructing from the scaling model when the key is
  /// off the measured grid — and growing the index on first use.
  [[nodiscard]] const Cell& cell(mpibench::OpKind op, net::Bytes bytes,
                                 int contention);
  /// The distribution behind a fresh cell: scaling-model reconstruction
  /// for off-grid keys (when enabled), table interpolation otherwise.
  /// A non-finite scaling prediction raises a ModelError naming the key.
  [[nodiscard]] stats::EmpiricalDistribution resolve(mpibench::OpKind op,
                                                     net::Bytes bytes,
                                                     int contention);
  [[nodiscard]] const GridExtent& extent(mpibench::OpKind op);
  /// True when draws for `op` can be answered at all — from the table or
  /// from a scaling-model series.
  [[nodiscard]] bool covered(mpibench::OpKind op);
  void rehash(std::size_t buckets);
  [[nodiscard]] static std::size_t hash_key(std::int32_t op, net::Bytes bytes,
                                            std::int32_t contention) noexcept;

  const mpibench::DistributionTable& table_;
  SamplerOptions options_;
  stats::Rng rng_;
  /// Lazily resolved grid extents, one slot per OpKind. Filled during the
  /// single-threaded warm-up (any cell resolution touches them), read-only
  /// afterwards — same lifecycle as the cell index below.
  std::array<GridExtent, 6> extents_{};
  /// Memoised cells in insertion order; `index_` holds open-addressed
  /// bucket -> cell positions (kEmpty = vacant). A deque, so a cell never
  /// moves once made and the memo below can point at it.
  std::deque<Cell> cells_;
  std::vector<std::uint32_t> index_;
  /// Draws cluster on one key (a model phase hammers a single message
  /// size), so the last resolved cell is checked before probing. Atomic
  /// (relaxed) because of the concurrent-read contract above: a stale or
  /// torn-free racing value only costs one extra probe, never wrong data,
  /// since the memo is validated against the full key on every use.
  std::atomic<const Cell*> last_cell_{nullptr};
};

}  // namespace pevpm
