#ifndef EDS_SRV_L0_CACHE_H_
#define EDS_SRV_L0_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "srv/segmented_lru.h"
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
// Eviction: the plan cache's segment policy (srv/segmented_lru.h), charged
// one per entry. A new text enters a probation window of
// max(1, capacity / 16) entries; its first hit (the second sighting)
// promotes it to protected, and only the probation tail is evicted. So a
// stream of one-shot texts churns through 16 slots instead of pinning all
// 256 raw and optimized plans, and cannot evict a text that repeats. The
// cache also remembers the hashes of the last `capacity` texts it evicted:
// one that comes back is admitted straight to protected. A text whose
// repeats are further apart than the window (say a cycle of 20 to 256
// texts) therefore misses twice, not once, and then hits as it would under
// a plain LRU. An Insert with seed_hits > 0 (a warm restore) goes straight
// to protected too.
//
// Concurrency: one mutex around the segment lists and their index. The
// critical section is a string hash and a list splice — contention is
// negligible next to query execution, so sharding would be ceremony.
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
    uint64_t evictions = 0;      // capacity evictions (probation tail)
    uint64_t invalidations = 0;  // stale-epoch entries dropped at lookup
    uint64_t oversize_rejects = 0;  // keys past the length cap, not cached
    uint64_t entries = 0;        // live entries
    uint64_t promotions = 0;     // probation -> protected on a first hit
    uint64_t readmissions = 0;   // recently evicted texts inserted again,
                                 // straight into protected
    uint64_t probation_entries = 0;  // the part of `entries` in probation
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
      : capacity_(capacity),
        max_key_bytes_(max_key_bytes),
        lru_(capacity),
        evicted_(capacity) {}

  L0Cache(const L0Cache&) = delete;
  L0Cache& operator=(const L0Cache&) = delete;

  // Returns a copy of the entry for `normalized` and moves it to the head
  // of the protected segment (promoting it out of probation on its first
  // hit), or nullopt. An entry whose epochs do not match the current ones
  // is erased (invalidation) and reported as a miss.
  std::optional<Entry> Lookup(const std::string& normalized,
                              uint64_t catalog_epoch, uint64_t rules_epoch);

  // Inserts (or refreshes) the entry at the head of its segment —
  // probation for a new text; protected for a refreshed protected one, a
  // recently evicted text, or when `seed_hits` > 0 — then demotes
  // protected overflow and evicts from the probation tail. A
  // zero-capacity cache is a counted no-op, as is an oversize key.
  // `seed_hits` pre-charges the entry's hit counter (warm restore keeps
  // persisted hotness so the next snapshot ranks it correctly).
  void Insert(const std::string& normalized, Entry entry,
              uint64_t seed_hits = 0);

  // Drops every entry (the shell's \cache clear).
  void InvalidateAll();

  Stats GetStats() const;

  // Copies every live entry with its hit count: the protected segment,
  // then probation, each most-recently-used first. The persistence
  // snapshot thread calls this off the serve path.
  std::vector<SnapshotEntry> Snapshot() const;

  size_t max_key_bytes() const { return max_key_bytes_; }

 private:
  struct Node {
    std::string key;
    Entry entry;
    uint64_t hits = 0;
  };
  using Segments = SegmentedLru<Node>;

  static uint64_t KeyHash(const std::string& normalized);
  // Demotes protected overflow and evicts the probation tail, unindexing
  // each evicted key and remembering its hash in evicted_.
  void EnforceCapsLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  size_t max_key_bytes_;
  Segments lru_;
  std::unordered_map<std::string, Segments::iterator> index_;
  EvictedKeys evicted_;
  // Counters kept here; the size figures are read off lru_.
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
