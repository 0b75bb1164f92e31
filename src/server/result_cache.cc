#include "server/result_cache.h"

namespace sparqluo {

ResultCache::ResultCache(size_t byte_budget, size_t shards)
    : VersionedLruCache(byte_budget, shards, &ResultCache::EntryBytes,
                        "sparqluo_result_cache", "Result cache",
                        /*bytes_gauge=*/true) {}

size_t ResultCache::EntryBytes(const std::string& key,
                               const CachedResult& result) {
  // Width-0 results (ASK, SELECT over no variables) carry no cells but
  // still occupy an entry; charge a row-count-independent floor so a
  // million cached ASKs cannot be "free".
  size_t rows = result.rows.width() == 0
                    ? result.rows.size()
                    : result.rows.size() * result.rows.width();
  return rows * sizeof(TermId) + 2 * key.size() + sizeof(Entry) + 64;
}

}  // namespace sparqluo
