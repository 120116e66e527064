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

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/model.h"
#include "core/thread_annotations.h"
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

/// Widest window of contention levels a DeliverySampler indexes densely
/// per (op, size). Only ops the scaling model covers keep keys outside
/// their measured levels, so only their rows can outgrow it; a key that
/// would widen a row's window past it is asked of the cells on every draw.
inline constexpr int kDenseContention = 1 << 16;

/// The per-prediction, read-mostly half of the sampler: the distribution
/// behind each (op, size, contention) key, resolved once and shared by every
/// replication of the prediction. Each op's coverage and measured grid
/// extent are fixed at construction (the table and scaling model are
/// immutable). Thread-safe; distributions never move once resolved, so a
/// DeliverySampler may keep pointers to them for the cells' lifetime.
class SamplerCells {
 public:
  /// `table` and `options.scaling` are not owned and must outlive the cells.
  SamplerCells(const mpibench::DistributionTable& table,
               SamplerOptions options);
  SamplerCells(const SamplerCells&) = delete;
  SamplerCells& operator=(const SamplerCells&) = delete;

  [[nodiscard]] const SamplerOptions& options() const noexcept {
    return options_;
  }

  /// True when draws for `op` can be answered at all — from the table or
  /// from a scaling-model series.
  [[nodiscard]] bool covered(mpibench::OpKind op) const noexcept {
    return grid_[static_cast<std::size_t>(op)].covered;
  }

  /// The contention level a key for `op` is formed with. Without a scaling
  /// series for `op`, levels outside its measured range clamp to the edge
  /// level — the one DistributionTable::lookup would answer with — so all
  /// of them share one distribution.
  [[nodiscard]] int key_contention(mpibench::OpKind op,
                                   int contention) const noexcept {
    const OpGrid& g = grid_[static_cast<std::size_t>(op)];
    return std::clamp(contention, g.key_min, g.key_max);
  }

  /// The distribution for a key normalised by key_contention(), resolved on
  /// first use: scaling-model reconstruction for a key off the measured
  /// grid (when enabled), table interpolation otherwise. A non-finite
  /// scaling prediction raises a ModelError naming the key and caches
  /// nothing.
  [[nodiscard]] const stats::EmpiricalDistribution& distribution(
      mpibench::OpKind op, net::Bytes bytes, int contention) EXCLUDES(mu_);

  /// Number of distributions resolved so far.
  [[nodiscard]] std::size_t resolved() const EXCLUDES(mu_);

 private:
  static constexpr std::size_t kOpKinds =
      static_cast<std::size_t>(mpibench::OpKind::kPtpSender) + 1;

  /// Measured-grid extent and key range of one operation. `measured` is
  /// false when the op has no table entries.
  struct OpGrid {
    bool measured = false;
    bool extrapolated = false;  ///< the scaling model has a series for it
    bool covered = false;
    net::Bytes min_size{};
    net::Bytes max_size{};
    int min_contention = 0;
    int max_contention = 0;
    int key_min = 0;
    int key_max = 0;
  };
  struct Key {
    int op = 0;
    net::Bytes bytes{};
    int contention = 0;
    [[nodiscard]] auto operator<=>(const Key&) const = default;
  };

  [[nodiscard]] stats::EmpiricalDistribution resolve(mpibench::OpKind op,
                                                     net::Bytes bytes,
                                                     int contention) const;

  const mpibench::DistributionTable& table_;
  SamplerOptions options_;
  std::array<OpGrid, kOpKinds> grid_{};
  mutable Mutex mu_;
  /// Resolved distributions; map nodes keep their addresses.
  std::map<Key, stats::EmpiricalDistribution> cells_ GUARDED_BY(mu_);
};

// Thread-safety contract: a DeliverySampler is one batch's sampler and
// single-threaded while any call can grow its index or draw randomness.
// Once every key it draws has been indexed (warm), kAverage and kMinimum
// draws write nothing and MAY be called from several threads. Several
// samplers may share one SamplerCells from different threads.
//
// A sampler draws for a batch of replications run in lockstep (vm.h): one
// lane per replication, each with its own random stream. A lane's draws
// depend only on its seed and on the keys asked of it, so a lane draws
// exactly what a sampler of that seed alone would. The lane-wise calls
// look a key up once and call `f(lane, seconds)` with one draw per lane,
// lane 0 first; the scalar calls draw on lane 0 only.
class DeliverySampler {
 public:
  /// A sampler of one lane with private cells.
  DeliverySampler(const mpibench::DistributionTable& table,
                  SamplerOptions options, std::uint64_t seed);
  /// A sampler of one lane over cells shared with the other replications
  /// of one prediction; `cells` must outlive it.
  DeliverySampler(SamplerCells& cells, std::uint64_t seed);
  /// A sampler of one lane per seed, in order, over shared cells.
  DeliverySampler(SamplerCells& cells, std::span<const std::uint64_t> seeds);

  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(rngs_.size());
  }

  /// One-way delivery time (seconds) for a message of `bytes` with
  /// `outstanding` messages on the scoreboard.
  [[nodiscard]] double delivery_seconds(net::Bytes bytes, int outstanding);
  template <class F>
  void delivery_seconds(net::Bytes bytes, int outstanding, F&& f);

  /// Local cost of the send operation at the sender.
  [[nodiscard]] double sender_seconds(net::Bytes bytes, int outstanding);
  template <class F>
  void sender_seconds(net::Bytes bytes, int outstanding, F&& f);

  /// Local cost of completing a receive whose message already arrived (the
  /// one-way distribution covers receiver cost only when the receive was
  /// waiting). Uses the kPtpSender table as a proxy for per-size local MPI
  /// op cost. The lane-wise form draws only on lanes with `late[lane]` set.
  [[nodiscard]] double late_recv_seconds(net::Bytes bytes, int outstanding);
  template <class F>
  void late_recv_seconds(net::Bytes bytes, int outstanding,
                         const unsigned char* late, F&& f);

  /// Per-process completion time of a collective over `nprocs` processes.
  /// Uses measured collective tables when present (keyed by nprocs on the
  /// contention axis); otherwise synthesises a log-tree / pairwise
  /// estimate from the point-to-point table. The span form draws into
  /// `out[lane]` for lanes 0 .. out.size() - 1.
  [[nodiscard]] double collective_seconds(CollOp op, net::Bytes bytes,
                                          int nprocs);
  void collective_seconds(CollOp op, net::Bytes bytes, int nprocs,
                          std::span<double> out);

 private:
  /// Sender-side cost when the table lacks kPtpSender entries.
  static constexpr double kDefaultSenderSeconds = 25e-6;
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  /// One (op, size): its distributions for key contention `first`,
  /// `first + 1`, ..., null where not yet asked of the cells.
  struct Row {
    net::Bytes bytes{};
    std::int32_t op = 0;
    int first = 0;
    std::vector<const stats::EmpiricalDistribution*> by_contention;
  };

  [[nodiscard]] int contention_of(int outstanding) const noexcept;
  /// The distribution behind a key: a coverage bit, a row probe and a
  /// dense index.
  [[nodiscard]] const stats::EmpiricalDistribution& cell(
      mpibench::OpKind op, net::Bytes bytes, int contention);
  /// One draw from `dist` on `lane`'s stream (or its mean or minimum).
  [[nodiscard]] double sample(const stats::EmpiricalDistribution& dist,
                              int lane);
  /// Calls f(lane, draw) for lanes 0 .. lanes - 1, drawing every lane in
  /// one batch (or its mean or minimum, which writes nothing).
  template <class F>
  void draw(const stats::EmpiricalDistribution& dist, int lanes, F&& f);
  /// Looks a key up once, then draws it as above.
  template <class F>
  void draw(mpibench::OpKind op, net::Bytes bytes, int contention, int lanes,
            F&& f);
  /// Position of the (op, size) row in rows_, or kNoRow.
  [[nodiscard]] std::uint32_t find_row(std::int32_t op,
                                       net::Bytes bytes) const noexcept;
  [[nodiscard]] std::size_t home_slot(std::int32_t op,
                                      net::Bytes bytes) const noexcept;
  /// Asks the cells for a key the index lacks and indexes it unless that
  /// would widen its row's window past kDenseContention.
  [[nodiscard]] const stats::EmpiricalDistribution& index_miss(
      mpibench::OpKind op, net::Bytes bytes, int contention);
  void place_row(std::uint32_t pos);
  [[noreturn]] static void throw_uncovered(mpibench::OpKind op);

  std::unique_ptr<SamplerCells> own_cells_;  ///< null when shared
  SamplerCells* cells_ = nullptr;
  PredictionMode mode_ = PredictionMode::kDistribution;
  bool fixed_contention_ = false;
  int contention_level_ = 0;  ///< the fixed level, when fixed_contention_
  std::vector<stats::Rng> rngs_;  ///< one per lane
  std::vector<double> drawn_;     ///< a batch draw per lane, reused
  /// Rows in insertion order, found through `row_slots_`: open-addressed
  /// (op, size) -> row position, kNoRow where vacant, a power of two at
  /// most half full so a probe nearly always ends at its home slot.
  std::vector<Row> rows_;
  std::vector<std::uint32_t> row_slots_ = std::vector<std::uint32_t>(8, kNoRow);
  int slot_shift_ = 61;  ///< 64 - log2(row_slots_.size())
};

// LINT:hot-path begin (the per-message draw: a coverage bit, a row probe
// and a dense index; a key the index lacks goes out of line to the cells)
inline int DeliverySampler::contention_of(int outstanding) const noexcept {
  return fixed_contention_ ? contention_level_ : outstanding;
}

inline std::size_t DeliverySampler::home_slot(
    std::int32_t op, net::Bytes bytes) const noexcept {
  // Fibonacci hashing: the top bits of the product mix every key bit.
  const std::uint64_t key =
      bytes.count() ^ (static_cast<std::uint64_t>(op) << 56);
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                  slot_shift_);
}

inline std::uint32_t DeliverySampler::find_row(
    std::int32_t op, net::Bytes bytes) const noexcept {
  const std::size_t mask = row_slots_.size() - 1;
  for (std::size_t slot = home_slot(op, bytes);; slot = (slot + 1) & mask) {
    const std::uint32_t pos = row_slots_[slot];
    if (pos == kNoRow) return kNoRow;
    const Row& row = rows_[pos];
    if (row.bytes == bytes && row.op == op) return pos;
  }
}

inline const stats::EmpiricalDistribution& DeliverySampler::cell(
    mpibench::OpKind op, net::Bytes bytes, int contention) {
  if (!cells_->covered(op)) [[unlikely]] throw_uncovered(op);
  const int key = cells_->key_contention(op, contention);
  const stats::EmpiricalDistribution* dist = nullptr;
  if (const std::uint32_t pos = find_row(static_cast<std::int32_t>(op), bytes);
      pos != kNoRow) {
    const Row& row = rows_[pos];
    // Unsigned, so a key below `first` wraps past the window and misses.
    const unsigned offset =
        static_cast<unsigned>(key) - static_cast<unsigned>(row.first);
    if (offset < row.by_contention.size()) dist = row.by_contention[offset];
  }
  if (dist == nullptr) [[unlikely]] dist = &index_miss(op, bytes, key);
  return *dist;
}

inline double DeliverySampler::sample(const stats::EmpiricalDistribution& dist,
                                      int lane) {
  switch (mode_) {
    case PredictionMode::kDistribution:
      return dist.sample(rngs_[static_cast<std::size_t>(lane)]);
    case PredictionMode::kAverage: return dist.mean();
    case PredictionMode::kMinimum: return dist.min();
  }
  return dist.mean();
}

template <class F>
inline void DeliverySampler::draw(const stats::EmpiricalDistribution& dist,
                                  int lanes, F&& f) {
  if (mode_ == PredictionMode::kDistribution) {
    const auto count = static_cast<std::size_t>(lanes);
    dist.sample(std::span<stats::Rng>{rngs_}.first(count),
                std::span<double>{drawn_}.first(count));
    for (int lane = 0; lane < lanes; ++lane) {
      f(lane, drawn_[static_cast<std::size_t>(lane)]);
    }
    return;
  }
  const double value = sample(dist, 0);
  for (int lane = 0; lane < lanes; ++lane) f(lane, value);
}

template <class F>
inline void DeliverySampler::draw(mpibench::OpKind op, net::Bytes bytes,
                                  int contention, int lanes, F&& f) {
  draw(cell(op, bytes, contention), lanes, f);
}

template <class F>
inline void DeliverySampler::delivery_seconds(net::Bytes bytes,
                                              int outstanding, F&& f) {
  draw(mpibench::OpKind::kPtpOneWay, bytes, contention_of(outstanding),
       lanes(), f);
}

inline double DeliverySampler::delivery_seconds(net::Bytes bytes,
                                                int outstanding) {
  return sample(cell(mpibench::OpKind::kPtpOneWay, bytes,
                     contention_of(outstanding)),
                0);
}

template <class F>
inline void DeliverySampler::sender_seconds(net::Bytes bytes, int outstanding,
                                            F&& f) {
  if (!cells_->covered(mpibench::OpKind::kPtpSender)) {
    for (int lane = 0; lane < lanes(); ++lane) f(lane, kDefaultSenderSeconds);
    return;
  }
  draw(mpibench::OpKind::kPtpSender, bytes, contention_of(outstanding),
       lanes(), f);
}

inline double DeliverySampler::sender_seconds(net::Bytes bytes,
                                              int outstanding) {
  if (!cells_->covered(mpibench::OpKind::kPtpSender)) {
    return kDefaultSenderSeconds;
  }
  return sample(cell(mpibench::OpKind::kPtpSender, bytes,
                     contention_of(outstanding)),
                0);
}

inline double DeliverySampler::late_recv_seconds(net::Bytes bytes,
                                                 int outstanding) {
  return sender_seconds(bytes, outstanding);
}

template <class F>
inline void DeliverySampler::late_recv_seconds(net::Bytes bytes,
                                               int outstanding,
                                               const unsigned char* late,
                                               F&& f) {
  if (!cells_->covered(mpibench::OpKind::kPtpSender)) {
    for (int lane = 0; lane < lanes(); ++lane) {
      if (late[lane] != 0) f(lane, kDefaultSenderSeconds);
    }
    return;
  }
  const stats::EmpiricalDistribution& dist =
      cell(mpibench::OpKind::kPtpSender, bytes, contention_of(outstanding));
  if (mode_ == PredictionMode::kDistribution) {
    dist.sample(rngs_, late, drawn_);
    for (int lane = 0; lane < lanes(); ++lane) {
      if (late[lane] != 0) f(lane, drawn_[static_cast<std::size_t>(lane)]);
    }
    return;
  }
  const double value = sample(dist, 0);
  for (int lane = 0; lane < lanes(); ++lane) {
    if (late[lane] != 0) f(lane, value);
  }
}
// LINT:hot-path end

}  // namespace pevpm
