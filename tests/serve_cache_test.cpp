// Unit tests for the service's LRU artifact cache: hit/miss/eviction
// accounting, deterministic eviction order, eviction safety while a
// consumer still holds the artifact, and the sampler cell sets kept next
// to each table (sharing, lifetime, cap and counters).
#include "serve/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/parse.h"
#include "mpibench/table.h"
#include "scaling/model.h"
#include "stats/empirical.h"

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

std::shared_ptr<const mpibench::DistributionTable> small_table() {
  mpibench::DistributionTable table;
  for (const int contention : {2, 4}) {
    std::vector<double> xs;
    for (int i = 1; i <= 16; ++i) xs.push_back(1e-6 * i * contention);
    table.insert(mpibench::OpKind::kPtpOneWay, net::Bytes{1024}, contention,
                 stats::EmpiricalDistribution::from_samples(xs));
  }
  return std::make_shared<const mpibench::DistributionTable>(std::move(table));
}

void resolve_sizes(pevpm::SamplerCells& cells, std::uint64_t first,
                   std::uint64_t count) {
  for (std::uint64_t bytes = first; bytes < first + count; ++bytes) {
    (void)cells.distribution(mpibench::OpKind::kPtpOneWay, net::Bytes{bytes},
                             2);
  }
}

TEST(ServeCache, JobsOnOneTableShareOneCellSetPerScalingModel) {
  serve::ArtifactCache cache{4};
  const auto table = cache.get<mpibench::DistributionTable>("t", small_table);
  const auto a = cache.cells("t", table, "", nullptr);
  const auto b = cache.cells("t", table, "", nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->scaling(), nullptr);
  resolve_sizes(*a, 1024, 3);
  resolve_sizes(*b, 1024, 3);  // resolved by a already
  serve::CellStats cells = cache.cell_stats();
  EXPECT_EQ(cells.sets, 1u);
  EXPECT_EQ(cells.resolved, 3u);
  EXPECT_EQ(cells.resolutions, 3u);

  // A scaling model names a set of its own: a fit from the table (cached
  // under the table's text) and a shipped artifact (under its own).
  const auto fit = cache.get<scaling::ScalingModel>(
      "t", [] { return std::make_shared<const scaling::ScalingModel>(); });
  const auto fitted = cache.cells("t", table, "t", fit);
  const auto shipped = cache.cells("t", table, "artifact", fit);
  EXPECT_NE(fitted.get(), a.get());
  EXPECT_NE(shipped.get(), fitted.get());
  EXPECT_EQ(fitted->scaling(), fit.get());
  EXPECT_EQ(cache.cells("t", table, "t", fit).get(), fitted.get());
  EXPECT_EQ(cache.cells("t", table, "artifact", fit).get(), shipped.get());
  EXPECT_EQ(cache.cell_stats().sets, 3u);

  // Cell sets are not artifacts: the artifact counters saw two loads and
  // the artifact put back for the shipped set.
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ServeCache, EvictingAScalingModelDropsItsCellSets) {
  serve::ArtifactCache cache{3};
  const auto table = cache.get<mpibench::DistributionTable>("t", small_table);
  const auto scaling_model = [] {
    return std::make_shared<const scaling::ScalingModel>();
  };
  const auto fit = cache.get<scaling::ScalingModel>("t", scaling_model);
  const auto fitted = cache.cells("t", table, "t", fit);
  resolve_sizes(*fitted, 1024, 1);
  // Ever-new shipped artifacts on one table: each evicts the least
  // recently used one, and its set with it.
  (void)cache.get<mpibench::DistributionTable>("t", small_table);
  for (int i = 0; i < 10; ++i) {
    const std::string text = "artifact " + std::to_string(i);
    const auto shipped = cache.get<scaling::ScalingModel>(text, scaling_model);
    resolve_sizes(*cache.cells("t", table, text, shipped), 1024, 1);
    (void)cache.get<mpibench::DistributionTable>("t", small_table);
    EXPECT_LE(cache.cell_stats().sets, 2u) << i;
  }
  // The fit went first; a later job on it gets a fresh set.
  EXPECT_EQ(cache.scaling_stats().evictions, 9u);
  const auto refit = cache.get<scaling::ScalingModel>("t", scaling_model);
  EXPECT_NE(cache.cells("t", table, "t", refit).get(), fitted.get());
  const serve::CellStats cells = cache.cell_stats();
  EXPECT_EQ(cells.resolutions, 11u);
}

TEST(ServeCache, CellSetOutlivesItsEvictedTable) {
  serve::ArtifactCache cache{1};
  std::shared_ptr<pevpm::SamplerCells> held;
  {
    const auto table =
        cache.get<mpibench::DistributionTable>("t", small_table);
    held = cache.cells("t", table, "", nullptr);
  }
  resolve_sizes(*held, 1024, 2);
  // Evicts the table and its set; the holder keeps both alive.
  (void)cache.get<pevpm::Model>("m", [] { return tiny_model("m"); });
  EXPECT_EQ(cache.stats().evictions, 1u);
  serve::CellStats cells = cache.cell_stats();
  EXPECT_EQ(cells.sets, 0u);
  EXPECT_EQ(cells.resolved, 0u);
  EXPECT_EQ(cells.resolutions, 2u);
  resolve_sizes(*held, 2048, 1);  // the table it reads is still there
  EXPECT_EQ(held->resolved(), 3u);

  // A later job on the table gets a fresh set; the held one counts what
  // it resolved after the eviction when its last holder lets it go.
  const auto table = cache.get<mpibench::DistributionTable>("t", small_table);
  const auto fresh = cache.cells("t", table, "", nullptr);
  EXPECT_NE(fresh.get(), held.get());
  EXPECT_EQ(fresh->resolved(), 0u);
  EXPECT_EQ(cache.cell_stats().resolutions, 2u);
  held.reset();
  cells = cache.cell_stats();
  EXPECT_EQ(cells.sets, 1u);
  EXPECT_EQ(cells.resolutions, 3u);
}

TEST(ServeCache, EvictedTableIsPutBackForItsCellSet) {
  // A table evicted between a job's load and its cell-set lookup comes
  // back, so the set it gets is the one later jobs share.
  serve::ArtifactCache cache{1};
  const auto table = cache.get<mpibench::DistributionTable>("t", small_table);
  (void)cache.get<pevpm::Model>("m", [] { return tiny_model("m"); });
  const auto cells = cache.cells("t", table, "", nullptr);
  EXPECT_EQ(cache.cell_stats().sets, 1u);
  EXPECT_EQ(cache.cells("t", table, "", nullptr).get(), cells.get());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ServeCache, FullCellSetIsReplacedForLaterJobs) {
  serve::ArtifactCache cache{4};
  const auto table = cache.get<mpibench::DistributionTable>("t", small_table);
  const auto full = cache.cells("t", table, "", nullptr);
  resolve_sizes(*full, 1, serve::kMaxCellSetDistributions - 1);
  // One short of the cap: still shared.
  EXPECT_EQ(cache.cells("t", table, "", nullptr).get(), full.get());
  resolve_sizes(*full, serve::kMaxCellSetDistributions, 1);
  const auto fresh = cache.cells("t", table, "", nullptr);
  EXPECT_NE(fresh.get(), full.get());
  EXPECT_EQ(fresh->resolved(), 0u);
  // The full set stays valid for the job holding it.
  resolve_sizes(*full, 1, 1);
  EXPECT_EQ(full->resolved(), serve::kMaxCellSetDistributions);
  const serve::CellStats cells = cache.cell_stats();
  EXPECT_EQ(cells.sets, 1u);
  EXPECT_EQ(cells.resolved, 0u);
  EXPECT_EQ(cells.resolutions, serve::kMaxCellSetDistributions);
}

TEST(ServeCache, ClearLetsGoOfCellSetsButKeepsTheirCount) {
  serve::ArtifactCache cache{4};
  const auto table = cache.get<mpibench::DistributionTable>("t", small_table);
  resolve_sizes(*cache.cells("t", table, "", nullptr), 1024, 2);
  cache.clear();
  const serve::CellStats cells = cache.cell_stats();
  EXPECT_EQ(cells.sets, 0u);
  EXPECT_EQ(cells.resolved, 0u);
  EXPECT_EQ(cells.resolutions, 2u);
}

}  // namespace
