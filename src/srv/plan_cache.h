#ifndef EDS_SRV_PLAN_CACHE_H_
#define EDS_SRV_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "term/term.h"

namespace eds::srv {

// LRU cache of rewritten plans, keyed on the query's canonical
// template (srv/fingerprint.h) plus the catalog and rule-library epochs it
// was rewritten under. A hit skips the entire rewrite phase: the cached
// normal form is instantiated with the query's literals and goes straight
// to schema inference/execution.
//
// Keying and invalidation:
//   * The template TermRef in the key is hash-consed, and the entry keeps
//     it alive, so any later structurally identical template IS the same
//     pointer — equality is a pointer compare with a term::Equals fallback
//     for the testing-clone/hash-collision fringe.
//   * Epochs ride in the key (catalog::Catalog::epoch(),
//     exec::Session::rules_epoch()). DDL or a rule-library change bumps an
//     epoch, so every stale entry simply stops matching and ages out
//     through the LRU — invalidation is lazy and O(1). InvalidateAll()
//     drops everything eagerly (the shell's \cache clear).
//
// Concurrency: one mutex around a classic LRU (list + hash index), as in
// L0Cache. The critical section is a hash probe and a list splice, small
// next to the query execution around it.
//
// Memory: each entry is charged its template + normal-form node counts
// against one node-count ceiling; an insert or refresh that leaves the
// cache past the ceiling evicts least-recently-used entries. This is the
// same currency as the governor's interner-node budget, so operators
// reason about one unit ("term nodes") for both.
class PlanCache {
 public:
  struct Config {
    uint64_t max_nodes = 1 << 20;  // node ceiling
  };

  struct Key {
    term::TermRef tmpl;
    uint64_t catalog_epoch = 0;
    uint64_t rules_epoch = 0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;       // LRU evictions under the node ceiling
    uint64_t insert_failures = 0; // chaos-injected insert skips
    uint64_t invalidations = 0;   // dropped by InvalidateAll/DropStale
    uint64_t entries = 0;         // live entries
    uint64_t nodes = 0;           // charged node count of live entries
  };

  // Nested-class NSDMIs are not parseable in a default argument here, so
  // the default config gets its own delegating constructor.
  PlanCache() : PlanCache(Config{}) {}
  explicit PlanCache(const Config& config);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // One live entry plus its bookkeeping as Snapshot() reports it. `hits`
  // and `rewrite_ns` (what the original rewrite cost) are the
  // pg_query_rewrite-style per-entry counters the persistence layer ranks
  // hotness by; `sample_params` are the literals of the query that
  // populated the entry, kept so a loaded entry can be re-verified by
  // ground differential execution.
  struct SnapshotEntry {
    term::TermRef tmpl;
    term::TermRef normal_form;
    uint64_t catalog_epoch = 0;
    uint64_t rules_epoch = 0;
    uint64_t hits = 0;
    uint64_t rewrite_ns = 0;
    term::TermList sample_params;
  };

  // Returns the cached normal form and bumps the entry to most-recent, or
  // nullopt (counted as a miss).
  std::optional<term::TermRef> Lookup(const Key& key);

  // Inserts (or refreshes) the normal form for `key`, evicting LRU entries
  // until the cache is back under its node ceiling. The chaos site
  // "srv.cache.insert" (EDS_FAIL_POINT) turns the insert into a counted
  // no-op — a degraded miss on the next lookup, never a wrong plan.
  // `rewrite_ns` records what the rewrite that produced `normal_form`
  // cost, `sample_params` the literals it ran under, and `seed_hits`
  // pre-charges the hit counter (warm restore keeps persisted hotness).
  void Insert(const Key& key, term::TermRef normal_form,
              uint64_t rewrite_ns = 0, term::TermList sample_params = {},
              uint64_t seed_hits = 0);

  // Copies every live entry with its stats, most-recently-used first. The
  // persistence snapshot calls this off the serve path.
  std::vector<SnapshotEntry> Snapshot() const;

  // Eagerly drops every entry (epoch bumps make stale entries unreachable
  // even without this).
  void InvalidateAll();

  // Drops every entry whose key epochs differ from the given (current)
  // pair, counting each into `invalidations`. Stale entries are already
  // unreachable — their epochs stopped matching — so this only reclaims
  // their node charge promptly instead of waiting for LRU aging. The
  // service calls it once per snapshot publication, which is what makes
  // "each DDL invalidates a stale entry exactly once" an observable
  // contract rather than an accident of eviction order.
  void DropStale(uint64_t catalog_epoch, uint64_t rules_epoch);

  Stats GetStats() const;

 private:
  struct Entry {
    Key key;
    term::TermRef normal_form;
    uint64_t charged_nodes = 0;
    uint64_t hits = 0;
    uint64_t rewrite_ns = 0;
    term::TermList sample_params;
  };
  // LRU list, most-recent first; the map indexes into it.
  using EntryList = std::list<Entry>;

  static uint64_t KeyHash(const Key& key);
  static bool KeyEquals(const Key& a, const Key& b);
  // The entry for `key` under `hash`, or entries_.end().
  EntryList::iterator FindLocked(const Key& key, uint64_t hash);
  // Unlinks `it` (list + index + node accounting).
  void EraseLocked(EntryList::iterator it);

  const uint64_t max_nodes_;
  mutable std::mutex mu_;
  EntryList entries_;
  std::unordered_map<uint64_t, std::vector<EntryList::iterator>> index_;
  Stats stats_;  // entries and nodes kept live
};

}  // namespace eds::srv

#endif  // EDS_SRV_PLAN_CACHE_H_
