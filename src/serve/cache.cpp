#include "serve/cache.h"

#include <algorithm>
#include <utility>

namespace serve {

/// One shared cell set and the artifacts its cells read.
struct ArtifactCache::CellSet {
  CellSet(std::shared_ptr<const mpibench::DistributionTable> t,
          std::shared_ptr<const scaling::ScalingModel> s,
          std::shared_ptr<std::atomic<std::uint64_t>> r)
      : table{std::move(t)},
        scaling{std::move(s)},
        retired{std::move(r)},
        cells{*table, scaling.get()} {}
  CellSet(const CellSet&) = delete;
  CellSet& operator=(const CellSet&) = delete;
  ~CellSet() { *retired += cells.resolved() - counted; }

  std::shared_ptr<const mpibench::DistributionTable> table;
  std::shared_ptr<const scaling::ScalingModel> scaling;
  std::shared_ptr<std::atomic<std::uint64_t>> retired;
  /// Resolutions already added to *retired (set when the cache lets the
  /// set go, before any holder can destroy it).
  std::size_t counted = 0;
  pevpm::SamplerCells cells;
};

ArtifactCache::ArtifactCache(std::size_t capacity)
    : capacity_{std::max<std::size_t>(1, capacity)} {
  stats_.capacity = capacity_;
}

void ArtifactCache::retire(CellSet& set) {
  set.counted = set.cells.resolved();
  *retired_ += set.counted;
}

void ArtifactCache::drop_cells_of(std::string_view scaling_key) {
  const CellsKey shipped{true, std::string{scaling_key}};
  for (Entry& entry : lru_) {
    // A fit is keyed by its own table's text.
    const auto it = entry.cells.find(
        entry.text == scaling_key ? CellsKey{true, {}} : shipped);
    if (it == entry.cells.end()) continue;
    retire(*it->second);
    entry.cells.erase(it);
  }
}

ArtifactCache::Entry& ArtifactCache::insert(
    Kind kind, std::string_view text, std::shared_ptr<const void> artifact) {
  lru_.push_front(Entry{kind, std::string{text}, std::move(artifact), {}});
  index_.emplace(KeyView{kind, lru_.front().text}, lru_.begin());
  if (kind == Kind::kScaling) ++scaling_stats_.entries;
  while (lru_.size() > capacity_) {
    Entry& victim = lru_.back();
    index_.erase(KeyView{victim.kind, victim.text});
    ++stats_.evictions;
    if (victim.kind == Kind::kScaling) {
      ++scaling_stats_.evictions;
      --scaling_stats_.entries;
      drop_cells_of(victim.text);
    }
    for (auto& [key, set] : victim.cells) retire(*set);
    lru_.pop_back();
  }
  stats_.entries = lru_.size();
  return lru_.front();
}

std::shared_ptr<const void> ArtifactCache::get_or_load(
    Kind kind, std::string_view text,
    const std::function<std::shared_ptr<const void>()>& load) {
  const KeyView key{kind, text};
  pevpm::MutexLock lock{mu_};
  if (const auto it = index_.find(key); it != index_.end()) {
    ++stats_.hits;
    if (kind == Kind::kScaling) ++scaling_stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->artifact;
  }
  ++stats_.misses;
  if (kind == Kind::kScaling) ++scaling_stats_.misses;
  // Parse outside the lock: loads can be slow and concurrent misses on
  // *different* artifacts should not serialise. A racing miss on the same
  // key just parses twice and the first insert stays — wasted work, never
  // wrong, because artifacts are immutable.
  lock.unlock();
  std::shared_ptr<const void> artifact = load();
  lock.lock();
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->artifact;
  }
  return insert(kind, text, std::move(artifact)).artifact;
}

std::shared_ptr<pevpm::SamplerCells> ArtifactCache::cells(
    std::string_view table_text,
    std::shared_ptr<const mpibench::DistributionTable> table,
    std::string_view scaling_key,
    std::shared_ptr<const scaling::ScalingModel> scaling) {
  pevpm::MutexLock lock{mu_};
  // Put back an entry evicted since the caller loaded it, so that evicting
  // it later drops the set.
  if (scaling != nullptr &&
      !index_.contains(KeyView{Kind::kScaling, scaling_key})) {
    (void)insert(Kind::kScaling, scaling_key, scaling);
  }
  const auto it = index_.find(KeyView{Kind::kTable, table_text});
  Entry& entry = it != index_.end() ? *it->second
                                    : insert(Kind::kTable, table_text, table);
  CellsKey key{scaling != nullptr, {}};
  if (scaling != nullptr && scaling_key != table_text) key.second = scaling_key;
  std::shared_ptr<CellSet>& set = entry.cells[key];
  if (set != nullptr && set->cells.resolved() >= kMaxCellSetDistributions) {
    retire(*set);
    set.reset();
  }
  if (set == nullptr) {
    set = std::make_shared<CellSet>(std::move(table), std::move(scaling),
                                    retired_);
  }
  return {set, &set->cells};
}

CacheStats ArtifactCache::stats() const {
  pevpm::MutexLock lock{mu_};
  CacheStats out = stats_;
  out.entries = lru_.size();
  return out;
}

CacheStats ArtifactCache::scaling_stats() const {
  pevpm::MutexLock lock{mu_};
  CacheStats out = scaling_stats_;
  out.capacity = capacity_;
  return out;
}

CellStats ArtifactCache::cell_stats() const {
  pevpm::MutexLock lock{mu_};
  CellStats out;
  out.resolutions = *retired_;
  for (const Entry& entry : lru_) {
    for (const auto& [key, set] : entry.cells) {
      const std::size_t resolved = set->cells.resolved();
      ++out.sets;
      out.resolved += resolved;
      out.resolutions += resolved;
    }
  }
  return out;
}

void ArtifactCache::clear() {
  pevpm::MutexLock lock{mu_};
  for (Entry& entry : lru_) {
    for (auto& [key, set] : entry.cells) retire(*set);
  }
  index_.clear();
  lru_.clear();
  stats_.entries = 0;
  scaling_stats_.entries = 0;
}

}  // namespace serve
