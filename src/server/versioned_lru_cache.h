// Sharded, cost-budgeted, version-scoped LRU cache: the one implementation
// behind the plan cache (server/plan_cache.h) and the result cache
// (server/result_cache.h).
//
// Each shard is an independent LRU protected by its own mutex, so lock hold
// times stay short under many worker threads. Every entry has a cost, given
// by the cache's entry-cost function (1 per plan, accounted bytes per
// result); each shard holds budget/shards cost units. An entry costing
// more than a whole shard's budget is not cached at all: it would only
// evict the shard's working set and then be evicted itself by the next
// insert.
//
// Entries carry the database version they were built against (the version
// is also part of every key, so nothing is ever served across versions).
// After each commit the query service calls EvictUnreachable, which drops
// every entry no reader can reach any more.
//
// Values are shared_ptr<const V>, so an entry evicted while another thread
// still uses it stays alive until that thread lets go.
//
// Every shard mirrors its traffic into the process-global MetricRegistry
// (obs/metrics.h) under a shard="N" label. The resident gauges are shared
// by all caches with the same prefix: each cache adds its deltas and takes
// its remaining share back out when destroyed, so the gauges report the sum
// over live caches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace sparqluo {

/// Counters of one cache, summed over its shards.
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;   ///< LRU + version-sweep removals.
  uint64_t oversize = 0;    ///< Entries too costly to cache at all.
  size_t entries = 0;
  /// Resident cost across shards: payload bytes for the result cache,
  /// the entry count for the plan cache.
  size_t bytes = 0;
};

template <typename V>
class VersionedLruCache {
 public:
  using Stats = LruCacheStats;
  using CostFn = size_t (*)(const std::string& key, const V& value);

  static constexpr size_t kDefaultShards = 8;

  /// `budget` is the total cost budget, split evenly across `shards` (at
  /// most one shard per cost unit). A budget of 0 disables insertion:
  /// every Put is a no-op. Metric families are named `metric_prefix` +
  /// `_hits_total`, `_misses_total`, `_evictions_total` and `_entries`,
  /// plus `_bytes` (resident cost) when `bytes_gauge` is set; `what`
  /// starts their HELP text.
  VersionedLruCache(size_t budget, size_t shards, CostFn cost,
                    const std::string& metric_prefix, const std::string& what,
                    bool bytes_gauge)
      : budget_(budget), cost_(cost) {
    shards = std::clamp<size_t>(shards, 1, std::max<size_t>(budget, 1));
    per_shard_budget_ = (budget + shards - 1) / shards;
    shards_.reserve(shards);
    MetricRegistry& reg = MetricRegistry::Global();
    for (size_t i = 0; i < shards; ++i) {
      auto shard = std::make_unique<Shard>();
      std::string label = "shard=\"" + std::to_string(i) + "\"";
      shard->hits_metric = reg.GetCounter(metric_prefix + "_hits_total",
                                          what + " lookups served", label);
      shard->misses_metric = reg.GetCounter(metric_prefix + "_misses_total",
                                            what + " lookups missed", label);
      shard->evictions_metric = reg.GetCounter(
          metric_prefix + "_evictions_total", what + " entries evicted", label);
      shard->entries_metric = reg.GetGauge(metric_prefix + "_entries",
                                           what + " resident entries", label);
      if (bytes_gauge) {
        shard->bytes_metric = reg.GetGauge(
            metric_prefix + "_bytes", what + " resident payload bytes", label);
      }
      shards_.push_back(std::move(shard));
    }
  }

  ~VersionedLruCache() {
    for (const auto& shard : shards_)
      AddToGauges(*shard, -Signed(shard->lru.size()), -Signed(shard->cost));
  }

  VersionedLruCache(const VersionedLruCache&) = delete;
  VersionedLruCache& operator=(const VersionedLruCache&) = delete;

  /// Returns the cached value for `key` (touching its LRU position), or
  /// null.
  std::shared_ptr<const V> Get(const std::string& key) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      shard.misses_metric->Increment();
      return nullptr;
    }
    ++shard.hits;
    shard.hits_metric->Increment();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Inserts (or replaces) the value for `key`, evicting least recently
  /// used entries until the shard is back under its budget. `version` is
  /// the database version the value was built against (also baked into
  /// the key); the post-commit reachability sweep uses it.
  void Put(const std::string& key, std::shared_ptr<const V> value,
           uint64_t version = 0) {
    Shard& shard = ShardOf(key);
    const size_t cost = cost_(key, *value);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (cost > per_shard_budget_) {
      ++shard.oversize;
      return;
    }
    const size_t old_entries = shard.lru.size();
    const size_t old_cost = shard.cost;
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Concurrent builders can race to insert the same key; keep the
      // newest (same key means same version and same normalized text).
      shard.cost -= it->second->cost;
      it->second->value = std::move(value);
      it->second->version = version;
      it->second->cost = cost;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), version, cost});
      shard.index.emplace(key, shard.lru.begin());
    }
    shard.cost += cost;
    while (shard.cost > per_shard_budget_ && shard.lru.size() > 1) {
      EraseLocked(shard, std::prev(shard.lru.end()));
    }
    PublishLocked(shard, old_entries, old_cost);
  }

  /// Drops every entry no reader can reach: one whose version is below
  /// `current_version` and not in `pinned_versions` (sorted ascending).
  /// Keeps hit/miss counters; removals count as evictions. Entries for
  /// pinned older versions survive, so a request that snapshotted just
  /// before a commit still hits, while entries for intermediate versions
  /// (published and superseded while an old pin was held) stop occupying
  /// budget.
  void EvictUnreachable(uint64_t current_version,
                        const std::vector<uint64_t>& pinned_versions) {
    auto reachable = [&](uint64_t version) {
      return version >= current_version ||
             std::binary_search(pinned_versions.begin(),
                                pinned_versions.end(), version);
    };
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      const size_t old_entries = shard->lru.size();
      const size_t old_cost = shard->cost;
      for (auto it = shard->lru.begin(); it != shard->lru.end();) {
        it = reachable(it->version) ? std::next(it) : EraseLocked(*shard, it);
      }
      PublishLocked(*shard, old_entries, old_cost);
    }
  }

  /// Drops every entry (keeps hit/miss/eviction counters).
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      const size_t old_entries = shard->lru.size();
      const size_t old_cost = shard->cost;
      shard->index.clear();
      shard->lru.clear();
      shard->cost = 0;
      PublishLocked(*shard, old_entries, old_cost);
    }
  }

  Stats GetStats() const {
    Stats out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out.hits += shard->hits;
      out.misses += shard->misses;
      out.evictions += shard->evictions;
      out.oversize += shard->oversize;
      out.entries += shard->lru.size();
      out.bytes += shard->cost;
    }
    return out;
  }

 protected:
  /// Protected so a cost function can charge sizeof(Entry) per entry.
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
    uint64_t version = 0;  ///< Database version the value was built against.
    size_t cost = 0;
  };

  size_t budget() const { return budget_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used. The map indexes into the list.
    std::list<Entry> lru;
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index;
    size_t cost = 0;  ///< Sum of Entry::cost currently resident.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t oversize = 0;
    // Registry mirrors, resolved at construction so the locked paths only
    // touch atomics. bytes_metric is null when the cache has no bytes gauge.
    Counter* hits_metric = nullptr;
    Counter* misses_metric = nullptr;
    Counter* evictions_metric = nullptr;
    Gauge* entries_metric = nullptr;
    Gauge* bytes_metric = nullptr;
  };

  Shard& ShardOf(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  /// Removes one entry as an eviction; returns the next list position.
  /// Caller holds shard.mu.
  static typename std::list<Entry>::iterator EraseLocked(
      Shard& shard, typename std::list<Entry>::iterator it) {
    shard.cost -= it->cost;
    shard.index.erase(it->key);
    ++shard.evictions;
    shard.evictions_metric->Increment();
    return shard.lru.erase(it);
  }

  /// Moves the shard's share of the resident gauges from (old_entries,
  /// old_cost) to its current size. Caller holds shard.mu.
  static void PublishLocked(Shard& shard, size_t old_entries,
                            size_t old_cost) {
    AddToGauges(shard, Signed(shard.lru.size()) - Signed(old_entries),
                Signed(shard.cost) - Signed(old_cost));
  }

  static void AddToGauges(Shard& shard, int64_t entries, int64_t cost) {
    if (entries != 0) shard.entries_metric->Add(entries);
    if (cost != 0 && shard.bytes_metric != nullptr)
      shard.bytes_metric->Add(cost);
  }

  static int64_t Signed(size_t n) { return static_cast<int64_t>(n); }

  size_t budget_;
  size_t per_shard_budget_;
  CostFn cost_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sparqluo
