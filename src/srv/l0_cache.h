#ifndef EDS_SRV_L0_CACHE_H_
#define EDS_SRV_L0_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "term/term.h"

namespace eds::srv {

// Level-0 exact-text plan cache: the cheapest possible serving fast path,
// consulted before the parser even runs. The key is the query text after a
// lexical normalization (whitespace collapsed, comments stripped, case
// folded outside string literals) — no parse, no fingerprint, just one
// string hash. A hit replays the fully instantiated optimized plan plus
// its result columns, skipping parse, translate, rewrite, fingerprinting
// AND schema inference; only execution runs. Queries that differ only in
// literals miss here and fall through to the structural plan cache
// (srv/plan_cache.h), which is exactly the layering: L0 catches verbatim
// repeats (dashboards, retries), L1 catches parameterized repeats.
//
// Invalidation mirrors the plan cache: each entry remembers the catalog
// and rule-library epochs it was built under, and a lookup that finds a
// stale entry drops it (counted as an invalidation) and reports a miss.
//
// Eviction: a plain LRU bounded by entry count; a hit or a refresh moves
// the entry to the head, and an insert past `capacity` drops the tail.
// Admission is not the cache's business: QueryService stores a text only
// on its second cacheable miss (the same rule as the plan cache's), so a
// stream of one-shot texts never reaches this cache at all. Warm restores
// call Insert directly and so bypass that rule.
//
// Concurrency: one mutex around the list and its index. The critical
// section is a string hash and a list splice — contention is negligible
// next to query execution, so sharding would be ceremony.
class L0Cache {
 public:
  struct Entry {
    term::TermRef raw_plan;        // pre-rewrite plan (for QueryResult)
    term::TermRef plan;            // optimized, fully instantiated plan
    std::vector<std::string> columns;  // inferred output column names
    uint64_t catalog_epoch = 0;
    uint64_t rules_epoch = 0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;      // capacity evictions (LRU tail)
    uint64_t invalidations = 0;  // stale-epoch entries dropped at lookup
    uint64_t oversize_rejects = 0;  // keys past the length cap, not cached
    uint64_t entries = 0;        // live entries
  };

  // One live entry plus its bookkeeping, as Snapshot() reports it; `hits`
  // is the per-entry hit count (the pg_query_rewrite-style rewrite_count)
  // persistence ranks hotness by.
  struct SnapshotEntry {
    std::string key;
    Entry entry;
    uint64_t hits = 0;
  };

  // Keys longer than this never enter the cache: one pathological
  // megaquery must not bloat the key set (or, downstream, the persisted
  // cache file). Lookups and inserts past the cap are counted as
  // oversize_rejects and behave as misses/no-ops.
  static constexpr size_t kDefaultMaxKeyBytes = 1 << 16;

  explicit L0Cache(size_t capacity,
                   size_t max_key_bytes = kDefaultMaxKeyBytes)
      : capacity_(capacity), max_key_bytes_(max_key_bytes) {}

  L0Cache(const L0Cache&) = delete;
  L0Cache& operator=(const L0Cache&) = delete;

  // Returns a copy of the entry for `normalized` and moves it to the head
  // of the LRU, or nullopt. An entry whose epochs do not match the current
  // ones is erased (invalidation) and reported as a miss.
  std::optional<Entry> Lookup(const std::string& normalized,
                              uint64_t catalog_epoch, uint64_t rules_epoch);

  // Inserts (or refreshes) the entry at the head of the LRU, then evicts
  // from the tail while over capacity. A zero-capacity cache is a counted
  // no-op, as is an oversize key. `seed_hits` pre-charges the entry's hit
  // counter (warm restore keeps persisted hotness so the next snapshot
  // ranks it correctly).
  void Insert(const std::string& normalized, Entry entry,
              uint64_t seed_hits = 0);

  // Drops every entry (the shell's \cache clear).
  void InvalidateAll();

  Stats GetStats() const;

  // Copies every live entry with its hit count, most recently used first.
  // The persistence snapshot thread calls this off the serve path.
  std::vector<SnapshotEntry> Snapshot() const;

  size_t max_key_bytes() const { return max_key_bytes_; }

 private:
  struct Node {
    std::string key;
    Entry entry;
    uint64_t hits = 0;
  };
  using List = std::list<Node>;  // most recently used first

  mutable std::mutex mu_;
  size_t capacity_;
  size_t max_key_bytes_;
  List lru_;
  std::unordered_map<std::string, List::iterator> index_;
  // Counters kept here; `entries` is read off lru_.
  Stats stats_;
};

// Lexical normalization for L0 keying: '--' comments become whitespace,
// whitespace runs collapse to one space, letters fold to upper case —
// except inside single-quoted string literals, which pass through verbatim
// ('' doubling included). Leading/trailing whitespace is trimmed. Purely
// lexical: never parses, never fails. Normalization stops once the output
// exceeds `max_bytes` (the result is then longer than max_bytes, so
// callers can detect the overflow without scanning a megaquery to its
// end); the default keeps the full text.
std::string NormalizeQueryText(std::string_view esql,
                               size_t max_bytes = SIZE_MAX);

// Metrics exporter, mirroring ExportCacheStats: srv.l0.*.
void ExportL0Stats(const L0Cache::Stats& stats, obs::MetricsRegistry* registry);

}  // namespace eds::srv

#endif  // EDS_SRV_L0_CACHE_H_
