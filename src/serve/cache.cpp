#include "serve/cache.h"

#include <algorithm>
#include <utility>

namespace serve {

ArtifactCache::ArtifactCache(std::size_t capacity)
    : capacity_{std::max<std::size_t>(1, capacity)} {
  stats_.capacity = capacity_;
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
  lru_.push_front(Entry{kind, std::string{text}, artifact});
  index_.emplace(KeyView{kind, lru_.front().text}, lru_.begin());
  if (kind == Kind::kScaling) ++scaling_stats_.entries;
  while (lru_.size() > capacity_) {
    const Entry& victim = lru_.back();
    index_.erase(KeyView{victim.kind, victim.text});
    ++stats_.evictions;
    if (victim.kind == Kind::kScaling) {
      ++scaling_stats_.evictions;
      --scaling_stats_.entries;
    }
    lru_.pop_back();
  }
  stats_.entries = lru_.size();
  return artifact;
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

void ArtifactCache::clear() {
  pevpm::MutexLock lock{mu_};
  index_.clear();
  lru_.clear();
  stats_.entries = 0;
  scaling_stats_.entries = 0;
}

}  // namespace serve
