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

// Segmented-LRU cache of rewritten plans, keyed on the query's canonical
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
// Concurrency: one mutex around the two LRU lists and their shared hash
// index, as in L0Cache. The critical section is a hash probe and a list
// splice, small next to the query execution around it.
//
// Memory: each entry is charged its template + normal-form node counts,
// the same currency as the governor's interner-node budget, so operators
// reason about one unit ("term nodes") for both. The node ceiling is split
// into two segments (the SLRU of W-TinyLFU's main region):
//   * probation — every new entry starts here, and the segment is capped
//     at 1/kProbationShare of the ceiling. Going over that cap evicts from
//     the probation tail only, so a flood of one-shot templates churns
//     through this window instead of the whole cache;
//   * protected — an entry's first Lookup hit promotes it here, and only
//     this segment may use the rest of the ceiling. When it overflows, its
//     least-recently-used entry is demoted to the probation head for a
//     second chance rather than evicted outright.
// An Insert with seed_hits > 0 (a warm restore of a persisted hot entry)
// goes straight to protected.
class PlanCache {
 public:
  struct Config {
    uint64_t max_nodes = 1 << 20;  // node ceiling
  };

  // Probation's share of the node ceiling is 1/kProbationShare. Chosen by
  // sweeping 1/16, 1/8 and 1/4 on bench_e2e's rewrite_cold (EXPERIMENTS.md).
  static constexpr uint64_t kProbationShare = 16;

  struct Key {
    term::TermRef tmpl;
    uint64_t catalog_epoch = 0;
    uint64_t rules_epoch = 0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;       // probation-tail evictions
    uint64_t insert_failures = 0; // chaos-injected insert skips
    uint64_t invalidations = 0;   // dropped by InvalidateAll/DropStale
    uint64_t entries = 0;         // live entries
    uint64_t nodes = 0;           // charged node count of live entries
    uint64_t promotions = 0;      // probation -> protected on a first hit
    uint64_t probation_nodes = 0; // the part of `nodes` in probation
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

  // Returns the cached normal form and moves the entry to the head of the
  // protected segment (promoting it out of probation on its first hit), or
  // nullopt (counted as a miss).
  std::optional<term::TermRef> Lookup(const Key& key);

  // Inserts (or refreshes) the normal form for `key` at the head of its
  // segment — probation for a new entry, protected for a refreshed
  // protected one or when `seed_hits` > 0 — then demotes protected
  // overflow to probation and evicts from the probation tail until both
  // segments are back under their caps. The chaos site
  // "srv.cache.insert" (EDS_FAIL_POINT) turns the insert into a counted
  // no-op — a degraded miss on the next lookup, never a wrong plan.
  // `rewrite_ns` records what the rewrite that produced `normal_form`
  // cost, `sample_params` the literals it ran under, and `seed_hits`
  // pre-charges the hit counter (warm restore keeps persisted hotness).
  void Insert(const Key& key, term::TermRef normal_form,
              uint64_t rewrite_ns = 0, term::TermList sample_params = {},
              uint64_t seed_hits = 0);

  // Copies every live entry with its stats: the protected segment, then
  // probation, each most-recently-used first. The persistence snapshot
  // calls this off the serve path.
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
    bool is_protected = false;  // which segment's list holds the entry
  };
  // One list per segment, most-recent first; the map indexes into both
  // (splicing between lists keeps the iterators valid).
  using EntryList = std::list<Entry>;

  static uint64_t KeyHash(const Key& key);
  static bool KeyEquals(const Key& a, const Key& b);
  // The entry for `key` under `hash`, if cached.
  std::optional<EntryList::iterator> FindLocked(const Key& key, uint64_t hash);
  // Re-charges `entry` at `nodes`, keeping the totals in step.
  void ChargeLocked(Entry& entry, uint64_t nodes);
  // Moves `it` to the head of the protected or the probation list.
  void MoveToHeadLocked(EntryList::iterator it, bool to_protected);
  // Demotes protected-tail entries while protected is over its share, then
  // evicts probation-tail entries while probation is over its cap. Neither
  // segment is emptied: its head survives even when it alone is over.
  void EnforceCapsLocked();
  // Unlinks `it` (list + index + node accounting).
  void EraseLocked(EntryList::iterator it);

  const uint64_t max_nodes_;
  const uint64_t probation_cap_;  // max_nodes_ / kProbationShare, at least 1
  mutable std::mutex mu_;
  EntryList probation_;
  EntryList protected_;
  std::unordered_map<uint64_t, std::vector<EntryList::iterator>> index_;
  Stats stats_;  // entries, nodes and probation_nodes kept live
};

}  // namespace eds::srv

#endif  // EDS_SRV_PLAN_CACHE_H_
