// Byte-budgeted cache of finished query results.
//
// One level above the plan cache: where a plan-cache hit skips parsing and
// transformation but still re-executes the BGPs, a result-cache hit serves
// the finished BindingSet without touching the engines at all. Entries are
// keyed by PlanCache::MakeKey (normalized query text, plan-relevant option
// toggles and the DatabaseVersion the query executed against), so results
// are never served across versions, and commits run the same
// version-reachability sweep over both caches through
// QueryService::InvalidateCaches. Storage, eviction and metrics are the
// shared VersionedLruCache (server/versioned_lru_cache.h).
//
// Budgeting is by bytes, not entries: result sizes span six orders of
// magnitude (an ASK row vs a million-row SELECT), so an entry budget would
// either starve small results or let a handful of giants own all memory.
#pragma once

#include <memory>
#include <string>

#include "algebra/binding_set.h"
#include "server/plan_cache.h"
#include "server/versioned_lru_cache.h"

namespace sparqluo {

/// An immutable finished result: the rows plus the plan that produced them
/// (serializers need the plan's Query — variable names and query form — to
/// render the rows; sharing it also re-warms the plan on a result hit).
struct CachedResult {
  BindingSet rows;
  std::shared_ptr<const CachedPlan> plan;
};

/// Results are budgeted by accounted bytes (EntryBytes).
class ResultCache : public VersionedLruCache<CachedResult> {
 public:
  /// `byte_budget` is the total payload budget, split evenly across
  /// `shards`. A budget of 0 disables insertion (every Put is a no-op),
  /// which keeps a disabled cache cheap without branching at call sites.
  /// Keys come from PlanCache::MakeKey. Only successful results may be
  /// cached: callers must never Put a failed or aborted response.
  explicit ResultCache(size_t byte_budget, size_t shards = kDefaultShards);

  size_t byte_budget() const { return budget(); }

  /// Accounted size of one entry: the rows' cell payload plus the key
  /// (which each shard stores twice: list entry + index).
  static size_t EntryBytes(const std::string& key, const CachedResult& result);
};

}  // namespace sparqluo
