// VersionedLruCache (src/server/versioned_lru_cache.h) through both of its
// cost policies, PlanCache (1 per entry) and ResultCache (accounted bytes):
//
//   - the per-shard resident gauges are shared by every live cache with
//     the same metric prefix: they sum over caches, and a destroyed cache
//     takes its share back out,
//   - 8 threads mixing Get/Put/EvictUnreachable: every lookup counts once
//     as a hit or a miss, resident cost never exceeds the budget, and the
//     gauges summed over shards agree with GetStats.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/plan_cache.h"
#include "server/result_cache.h"

namespace sparqluo {
namespace {

std::shared_ptr<const CachedResult> MakeResult(size_t rows, size_t width) {
  auto result = std::make_shared<CachedResult>();
  std::vector<VarId> schema;
  for (size_t c = 0; c < width; ++c) schema.push_back(static_cast<VarId>(c));
  result->rows = BindingSet(std::move(schema));
  std::vector<TermId> row(width, TermId{1});
  for (size_t r = 0; r < rows; ++r) result->rows.AppendRow(row);
  return result;
}

/// Sum of a per-shard gauge family over shard labels [0, shards).
int64_t GaugeSum(const std::string& name, size_t shards) {
  int64_t sum = 0;
  for (size_t i = 0; i < shards; ++i) {
    sum += MetricRegistry::Global()
               .GetGauge(name, "", "shard=\"" + std::to_string(i) + "\"")
               ->value();
  }
  return sum;
}

// --- Shared gauges across cache instances --------------------------------

TEST(VersionedCacheGaugeTest, ResultCachesSumAndDestroyedCacheLeaves) {
  auto result = MakeResult(4, 2);
  auto a = std::make_unique<ResultCache>(/*byte_budget=*/1 << 20, 1);
  auto b = std::make_unique<ResultCache>(/*byte_budget=*/1 << 20, 1);
  const int64_t entries0 = GaugeSum("sparqluo_result_cache_entries", 1);
  const int64_t bytes0 = GaugeSum("sparqluo_result_cache_bytes", 1);

  a->Put("a1", result, 0);
  b->Put("b1", result, 0);
  b->Put("b2", result, 0);
  const int64_t a_bytes = static_cast<int64_t>(a->GetStats().bytes);
  const int64_t b_bytes = static_cast<int64_t>(b->GetStats().bytes);
  EXPECT_EQ(GaugeSum("sparqluo_result_cache_entries", 1) - entries0, 3);
  EXPECT_EQ(GaugeSum("sparqluo_result_cache_bytes", 1) - bytes0,
            a_bytes + b_bytes);

  b.reset();  // b's two entries leave the gauges with it
  EXPECT_EQ(GaugeSum("sparqluo_result_cache_entries", 1) - entries0, 1);
  EXPECT_EQ(GaugeSum("sparqluo_result_cache_bytes", 1) - bytes0, a_bytes);

  a->EvictUnreachable(/*current_version=*/1, {});
  EXPECT_EQ(GaugeSum("sparqluo_result_cache_entries", 1) - entries0, 0);
  EXPECT_EQ(GaugeSum("sparqluo_result_cache_bytes", 1) - bytes0, 0);
}

TEST(VersionedCacheGaugeTest, PlanCachesSumAndDestroyedCacheLeaves) {
  auto plan = std::make_shared<const CachedPlan>();
  auto a = std::make_unique<PlanCache>(/*capacity=*/8, /*shards=*/1);
  auto b = std::make_unique<PlanCache>(/*capacity=*/8, /*shards=*/1);
  const int64_t entries0 = GaugeSum("sparqluo_plan_cache_entries", 1);

  a->Put("a1", plan);
  a->Put("a2", plan);
  b->Put("b1", plan);
  EXPECT_EQ(GaugeSum("sparqluo_plan_cache_entries", 1) - entries0, 3);

  a.reset();
  EXPECT_EQ(GaugeSum("sparqluo_plan_cache_entries", 1) - entries0, 1);

  b->Clear();
  EXPECT_EQ(GaugeSum("sparqluo_plan_cache_entries", 1) - entries0, 0);
}

// --- Concurrent mixed traffic --------------------------------------------

constexpr size_t kThreads = 8;
constexpr size_t kOpsPerThread = 4000;
constexpr size_t kKeys = 64;
constexpr size_t kShards = 8;

/// Runs kThreads threads of mixed Get/Put/EvictUnreachable over `cache`
/// (a "commit" bumps the shared version and sweeps with the previous
/// version pinned), then checks the cache's accounting. `value(i)` returns
/// the value to Put for random draw i; `bytes_family` is empty when the
/// cache exports no bytes gauge.
template <typename Cache, typename ValueFn>
void HammerAndCheck(Cache& cache, size_t budget, ValueFn value,
                    const std::string& entries_family,
                    const std::string& bytes_family) {
  const int64_t entries0 = GaugeSum(entries_family, kShards);
  const int64_t bytes0 =
      bytes_family.empty() ? 0 : GaugeSum(bytes_family, kShards);
  std::atomic<uint64_t> version{0};
  std::atomic<uint64_t> lookups{0};
  std::atomic<bool> over_budget{false};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t + 1));
      uint64_t mine = 0;
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        const uint32_t draw = rng();
        const uint64_t v = version.load();
        const std::string key =
            std::to_string((draw >> 8) % kKeys) + "@v" + std::to_string(v);
        const uint32_t kind = draw % 20;
        if (kind == 0) {  // commit: publish v+1, the previous one pinned
          const uint64_t next = version.fetch_add(1) + 1;
          cache.EvictUnreachable(next, {next - 1});
          if (cache.GetStats().bytes > budget) over_budget = true;
        } else if (kind < 8) {
          cache.Put(key, value(draw), v);
        } else {
          cache.Get(key);
          ++mine;
        }
      }
      lookups += mine;
    });
  }
  for (auto& th : threads) th.join();

  const LruCacheStats stats = cache.GetStats();
  EXPECT_FALSE(over_budget.load());
  EXPECT_LE(stats.bytes, budget);
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(GaugeSum(entries_family, kShards) - entries0,
            static_cast<int64_t>(stats.entries));
  if (!bytes_family.empty()) {
    EXPECT_EQ(GaugeSum(bytes_family, kShards) - bytes0,
              static_cast<int64_t>(stats.bytes));
  }
}

TEST(VersionedCacheConcurrencyTest, PlanCostPolicy) {
  constexpr size_t kCapacity = 4 * kShards;
  PlanCache cache(kCapacity, kShards);
  auto plan = std::make_shared<const CachedPlan>();
  HammerAndCheck(
      cache, kCapacity, [&](uint32_t) { return plan; },
      "sparqluo_plan_cache_entries", "");
  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.bytes, stats.entries);  // every plan costs 1
  EXPECT_EQ(stats.oversize, 0u);
}

TEST(VersionedCacheConcurrencyTest, ByteCostPolicy) {
  constexpr size_t kBudget = 4096 * kShards;
  ResultCache cache(kBudget, kShards);
  // Results of varying size; the last one exceeds a shard's whole budget.
  std::vector<std::shared_ptr<const CachedResult>> results;
  for (size_t rows = 0; rows < 15; ++rows)
    results.push_back(MakeResult(rows, 2));
  results.push_back(MakeResult(1000, 2));
  HammerAndCheck(
      cache, kBudget,
      [&](uint32_t draw) { return results[(draw >> 16) % results.size()]; },
      "sparqluo_result_cache_entries", "sparqluo_result_cache_bytes");
  EXPECT_GT(cache.GetStats().oversize, 0u);
}

}  // namespace
}  // namespace sparqluo
