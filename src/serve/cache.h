// LRU artifact cache for the prediction service.
//
// Parsing a PEVPM model and loading a distribution table from text are the
// expensive, perfectly shareable parts of a prediction request; the daemon
// keys the parsed artifacts by the request text itself so that repeated
// queries — the common case for a what-if service — skip parse/load
// entirely, whatever label the client attached.
//
// Keys are (kind, text), the kind following from the artifact type;
// values are shared_ptrs so an artifact can be evicted while in-flight
// requests still hold it. All operations are thread-safe; hit/miss/eviction
// counters feed the /stats endpoint.
//
// Next to each table the cache keeps the sampler cells resolved from it:
// one pevpm::SamplerCells per scaling model the jobs on that table use (or
// none), shared by all of those jobs whatever their mode and contention
// source, so each distribution is interpolated once for the life of the
// table's entry instead of once per request. The cache shares a set
// while both its table's entry and its scaling model's entry are resident
// and it holds fewer than kMaxCellSetDistributions distributions, so the
// resident sets are bounded by the resident artifacts, however many
// scaling models or message sizes clients send. A set holds the table and
// scaling model it reads, so an eviction never leaves it dangling for a
// job still drawing from it. Cell sets are not artifacts: they take no
// capacity and leave CacheStats alone.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/model.h"
#include "core/sampler.h"
#include "core/thread_annotations.h"
#include "mpibench/table.h"
#include "net/calibration.h"
#include "scaling/model.h"

namespace serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

struct CellStats {
  std::size_t sets = 0;      ///< resident cell sets
  std::size_t resolved = 0;  ///< distributions the resident sets hold
  /// Distributions resolved since the cache was made, by resident sets and
  /// by sets it has let go of (a set still held by a running job adds what
  /// it resolves after that when the job lets it go).
  std::uint64_t resolutions = 0;
};

/// Most distributions a cached cell set may hold before the next job on its
/// table gets a fresh set in its place; jobs already holding the full set
/// finish on it. Without a cap, requests with ever-new message sizes would
/// grow a set that lives as long as its table without bound. The
/// pevpmd_mixed benchmark workload resolves 58 in all; 4096 one-way
/// distributions of its table take about 1.8 MB.
inline constexpr std::size_t kMaxCellSetDistributions = 4096;

class ArtifactCache {
 public:
  /// `capacity` bounds the number of resident artifacts (>= 1).
  explicit ArtifactCache(std::size_t capacity);

  /// Returns the artifact of type T (a pevpm::Model,
  /// mpibench::DistributionTable, net::ClusterParams or
  /// scaling::ScalingModel) for `text`, loading via `load` on a miss.
  /// `load` runs outside the lock, so concurrent misses on different
  /// artifacts parse in parallel (a racing miss on the same key parses
  /// twice; the artifacts are immutable so either copy is valid). `load`
  /// may throw, in which case nothing is cached and the exception
  /// propagates. A scaling model's `text` is the identity of whatever it
  /// derives from: a shipped scaling artifact, or the table text when the
  /// daemon fits on demand — fitting is deterministic, so table text keys
  /// the fit exactly.
  template <typename T, typename Load>
  [[nodiscard]] std::shared_ptr<const T> get(std::string_view text,
                                             const Load& load) {
    return std::static_pointer_cast<const T>(get_or_load(
        kind_of<T>(), text,
        [&]() -> std::shared_ptr<const void> { return load(); }));
  }

  /// The cell set shared by every job on `table` — the table artifact
  /// cached for `table_text` — with scaling model `scaling` (null: none,
  /// and `scaling_key` is ignored), the scaling artifact cached for
  /// `scaling_key`; made on first use. A set holding
  /// kMaxCellSetDistributions distributions is replaced by a fresh one.
  /// An entry evicted since the caller loaded `table` or `scaling` is put
  /// back; evicting either entry drops the set for later jobs.
  [[nodiscard]] std::shared_ptr<pevpm::SamplerCells> cells(
      std::string_view table_text,
      std::shared_ptr<const mpibench::DistributionTable> table,
      std::string_view scaling_key,
      std::shared_ptr<const scaling::ScalingModel> scaling) EXCLUDES(mu_);

  [[nodiscard]] CacheStats stats() const EXCLUDES(mu_);

  [[nodiscard]] CellStats cell_stats() const EXCLUDES(mu_);

  /// Hit/miss/eviction counters restricted to scaling-model entries (the
  /// /stats endpoint reports fitted-model cache behaviour separately —
  /// fits are far more expensive than parses, so their hit rate is the
  /// one worth watching).
  [[nodiscard]] CacheStats scaling_stats() const EXCLUDES(mu_);

  void clear() EXCLUDES(mu_);

  /// The entry-map lock, exposed for lock-order declarations only
  /// (Service::mu_ is ACQUIRED_BEFORE this: stats() queries the cache
  /// with the service lock held). get_or_load runs the loader outside the
  /// lock; the only lock taken under it is a cell set's own, a leaf, to
  /// count what the set resolved.
  [[nodiscard]] pevpm::Mutex& mutex() const RETURN_CAPABILITY(mu_) {
    return mu_;
  }

 private:
  enum class Kind : int { kModel, kTable, kCluster, kScaling };

  template <typename T>
  static constexpr Kind kind_of() {
    if constexpr (std::is_same_v<T, pevpm::Model>) {
      return Kind::kModel;
    } else if constexpr (std::is_same_v<T, mpibench::DistributionTable>) {
      return Kind::kTable;
    } else if constexpr (std::is_same_v<T, net::ClusterParams>) {
      return Kind::kCluster;
    } else {
      static_assert(std::is_same_v<T, scaling::ScalingModel>,
                    "not a cached artifact type");
      return Kind::kScaling;
    }
  }

  struct CellSet;
  /// A table's cell sets by scaling model: (false, "") without one, (true,
  /// "") for a fit from the table (cached under the table's text), (true,
  /// text) for a shipped artifact.
  using CellsKey = std::pair<bool, std::string>;

  /// An entry's key text is owned by its LRU node, and the index keys on a
  /// view of it, so each resident text is stored once.
  struct Entry {
    Kind kind;
    std::string text;
    std::shared_ptr<const void> artifact;
    std::map<CellsKey, std::shared_ptr<CellSet>> cells;  ///< kTable only
  };
  using Lru = std::list<Entry>;
  using KeyView = std::pair<Kind, std::string_view>;

  [[nodiscard]] std::shared_ptr<const void> get_or_load(
      Kind kind, std::string_view text,
      const std::function<std::shared_ptr<const void>()>& load) EXCLUDES(mu_);
  /// Puts a new entry at the front and evicts past capacity.
  Entry& insert(Kind kind, std::string_view text,
                std::shared_ptr<const void> artifact) REQUIRES(mu_);
  /// Stops sharing `set`: what it resolved so far moves to retired_.
  void retire(CellSet& set) REQUIRES(mu_);
  /// Drops every table's cell set for the scaling model cached under
  /// `scaling_key`.
  void drop_cells_of(std::string_view scaling_key) REQUIRES(mu_);

  mutable pevpm::Mutex mu_;
  std::size_t capacity_;  ///< immutable after construction
  Lru lru_ GUARDED_BY(mu_);  ///< most recently used first
  std::map<KeyView, Lru::iterator> index_ GUARDED_BY(mu_);
  CacheStats stats_ GUARDED_BY(mu_);
  CacheStats scaling_stats_ GUARDED_BY(mu_);  ///< kScaling subset of stats_
  /// Resolutions of the sets the cache has let go of; shared with them,
  /// since one that outlives its entry adds its later resolutions when it
  /// dies.
  std::shared_ptr<std::atomic<std::uint64_t>> retired_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

}  // namespace serve
