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
#pragma once

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

  [[nodiscard]] CacheStats stats() const EXCLUDES(mu_);

  /// Hit/miss/eviction counters restricted to scaling-model entries (the
  /// /stats endpoint reports fitted-model cache behaviour separately —
  /// fits are far more expensive than parses, so their hit rate is the
  /// one worth watching).
  [[nodiscard]] CacheStats scaling_stats() const EXCLUDES(mu_);

  void clear() EXCLUDES(mu_);

  /// The entry-map lock, exposed for lock-order declarations only
  /// (Service::mu_ is ACQUIRED_BEFORE this: stats() queries the cache
  /// with the service lock held). Leaf: get_or_load runs the loader
  /// outside the lock and never acquires another mutex under it.
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

  /// An entry's key text is owned by its LRU node, and the index keys on a
  /// view of it, so each resident text is stored once.
  struct Entry {
    Kind kind;
    std::string text;
    std::shared_ptr<const void> artifact;
  };
  using Lru = std::list<Entry>;
  using KeyView = std::pair<Kind, std::string_view>;

  [[nodiscard]] std::shared_ptr<const void> get_or_load(
      Kind kind, std::string_view text,
      const std::function<std::shared_ptr<const void>()>& load) EXCLUDES(mu_);

  mutable pevpm::Mutex mu_;
  std::size_t capacity_;  ///< immutable after construction
  Lru lru_ GUARDED_BY(mu_);  ///< most recently used first
  std::map<KeyView, Lru::iterator> index_ GUARDED_BY(mu_);
  CacheStats stats_ GUARDED_BY(mu_);
  CacheStats scaling_stats_ GUARDED_BY(mu_);  ///< kScaling subset of stats_
};

}  // namespace serve
