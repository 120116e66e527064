// Unit tests for the service's LRU artifact cache: hit/miss/eviction
// accounting, deterministic eviction order, and eviction safety while a
// consumer still holds the artifact.
#include "serve/cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/model.h"
#include "core/parse.h"

namespace {

std::shared_ptr<const pevpm::Model> tiny_model(const std::string& name) {
  return std::make_shared<const pevpm::Model>(
      pevpm::parse_model("serial time = 0.001\n", name));
}

TEST(ServeCache, CountsHitsAndMisses) {
  serve::ArtifactCache cache{4};
  int loads = 0;
  const auto load = [&] {
    ++loads;
    return tiny_model("m");
  };
  const auto first = cache.get<pevpm::Model>("text-a", load);
  const auto second = cache.get<pevpm::Model>("text-a", load);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(first.get(), second.get());  // the same resident artifact
  (void)cache.get<pevpm::Model>("text-b", load);
  EXPECT_EQ(loads, 2);
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(ServeCache, EvictsLeastRecentlyUsedDeterministically) {
  serve::ArtifactCache cache{2};
  int loads = 0;
  const auto load = [&] {
    ++loads;
    return tiny_model("m");
  };
  (void)cache.get<pevpm::Model>("a", load);  // LRU order: a
  (void)cache.get<pevpm::Model>("b", load);  // b a
  (void)cache.get<pevpm::Model>("a", load);  // a b (hit refreshes recency)
  (void)cache.get<pevpm::Model>("c", load);  // c a — b evicted
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(loads, 3);
  (void)cache.get<pevpm::Model>("a", load);  // still resident
  EXPECT_EQ(loads, 3);
  (void)cache.get<pevpm::Model>("b", load);  // evicted above, reloads; evicts c
  EXPECT_EQ(loads, 4);
  EXPECT_EQ(cache.stats().evictions, 2u);
  (void)cache.get<pevpm::Model>("c", load);
  EXPECT_EQ(loads, 5);
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 3u);
}

TEST(ServeCache, EvictedArtifactSurvivesWhileHeld) {
  serve::ArtifactCache cache{1};
  const auto held =
      cache.get<pevpm::Model>("x", [] { return tiny_model("held"); });
  // Evicts x.
  (void)cache.get<pevpm::Model>("y", [] { return tiny_model("other"); });
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(held->name, "held");  // still valid through the shared_ptr
}

TEST(ServeCache, DifferentKindsDoNotCollide) {
  serve::ArtifactCache cache{4};
  // The same text as a model and as a table must load twice — the key is
  // (kind, text), not the text alone.
  const std::string text = "serial time = 0.001\n";
  (void)cache.get<pevpm::Model>(text, [&] { return tiny_model("m"); });
  EXPECT_THROW(
      (void)cache.get<mpibench::DistributionTable>(
          text,
          [&]() -> std::shared_ptr<const mpibench::DistributionTable> {
            throw std::runtime_error{"table loader ran"};
          }),
      std::runtime_error);
}

TEST(ServeCache, KeyIsTheTextNotTheCallersBuffer) {
  serve::ArtifactCache cache{4};
  int loads = 0;
  const auto load = [&] {
    ++loads;
    return tiny_model("m");
  };
  std::string text = "serial time = 0.001\n";
  (void)cache.get<pevpm::Model>(text, load);
  // Overwriting the caller's buffer must not change the resident key.
  const std::string original = text;
  text.assign(text.size(), 'x');
  (void)cache.get<pevpm::Model>(text, load);
  EXPECT_EQ(loads, 2);
  (void)cache.get<pevpm::Model>(original, load);
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ServeCache, ThrowingLoaderCachesNothing) {
  serve::ArtifactCache cache{4};
  int attempts = 0;
  const auto failing = [&]() -> std::shared_ptr<const pevpm::Model> {
    ++attempts;
    throw std::runtime_error{"parse error"};
  };
  EXPECT_THROW((void)cache.get<pevpm::Model>("bad", failing),
               std::runtime_error);
  EXPECT_THROW((void)cache.get<pevpm::Model>("bad", failing),
               std::runtime_error);
  EXPECT_EQ(attempts, 2);  // the failure was not cached
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, ClearResetsEntriesButKeepsCounters) {
  serve::ArtifactCache cache{4};
  (void)cache.get<pevpm::Model>("a", [] { return tiny_model("m"); });
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  int loads = 0;
  (void)cache.get<pevpm::Model>("a", [&] {
    ++loads;
    return tiny_model("m");
  });
  EXPECT_EQ(loads, 1);  // really gone
}

}  // namespace
