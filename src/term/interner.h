#ifndef EDS_TERM_INTERNER_H_
#define EDS_TERM_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "term/term.h"

namespace eds::term {

// Hash-cons table behind the Term factories. Every construction goes
// through Intern(), which returns an existing node when a structurally
// equal one is still alive, so structurally equal terms built while their
// twin lives are *pointer-identical*. That canonical identity is what lets
// the rewrite engine replace deep hashing/equality with pointer reads.
//
// Design notes:
//   - The table holds plain node pointers and never extends a term's
//     lifetime. A node's reference count lives in the node (TermRef is an
//     intrusive handle), so a fresh intern costs one allocation. A lookup
//     takes its reference by incrementing the count only if it is not
//     zero, under the shard lock; a node whose count reached zero is dead
//     and is skipped. The release that takes the count to zero locks the
//     node's shard, unlinks its slot by backward-shift deletion, unlocks,
//     and only then frees the node, so its children are released outside
//     any table lock. There are no tombstones and nothing to sweep: a dead
//     term's memory returns at once, in whatever drops its last reference.
//   - Candidate comparison is *shallow*: kind, payload, and child
//     POINTERS. Children were interned first (construction is bottom-up),
//     so shallow identity implies deep structural identity.
//   - Constants are deduped by their exact payload via value::Compare,
//     which treats Int(2) and Real(2.0) as equal but execution semantics
//     may not (integer vs. real arithmetic) — so value-equivalent
//     constants of different kinds can both survive as distinct canonical
//     nodes. The interner is a performance device, not a correctness
//     device: term::Equals keeps a deep fallback for exactly this case,
//     and imperfect dedup is always safe.
//   - Global() is a leaky singleton (like the parser's operator tables):
//     terms may be destroyed during static teardown, and their releases
//     still find the table.
//   - The table is sharded by structural hash (kShardCount bucket groups,
//     each behind its own mutex) so concurrent term construction from the
//     query-service worker pool does not serialize on one lock. Children
//     are interned before parents regardless of thread, so the shallow
//     pointer-equality comparison stays exact under concurrency; two
//     threads racing to intern the same structure serialize on that
//     structure's shard and the loser gets a hit. Single-threaded cost of
//     the sharding is one shift/mask to pick the shard.
class Interner {
 public:
  static Interner& Global();

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  // Canonicalizing constructor used by the Term factories. `name` is the
  // variable name or the (already upper-cased) functor; `args` must all be
  // interned (or testing clones, which simply never unify with anything).
  TermRef Intern(TermKind kind, value::Value value, std::string name,
                 TermList args);

  struct Stats {
    size_t hits = 0;      // constructions answered by an existing node
    size_t misses = 0;    // constructions that allocated a new node
    size_t entries = 0;   // table entries == live interned terms
    size_t capacity = 0;  // slots allocated across the shard tables
  };
  Stats GetStats();

  // Lock-free running count of term-node allocations (== misses). The
  // query governor's node ceiling diffs this against a per-query baseline;
  // an atomic copy of the locked counter keeps the governor's hot checks
  // off the interner mutex.
  uint64_t ApproxAllocated() const {
    return approx_allocated_.load(std::memory_order_relaxed);
  }

  // Testing hook: force every lookup into one bucket, simulating total
  // hash collision. Dedup stays exact (candidates are compared
  // structurally) — only table performance degrades — so flipping this
  // mid-process is safe.
  static void SetDegenerateBucketsForTesting(bool on);

  // Testing hook behind term::testing::CloneWithHashForTesting.
  static TermRef CloneWithHashForTesting(const TermRef& t,
                                         uint64_t forced_hash);

 private:
  friend class Term;  // Term::Destroy unlinks through Unlink()

  Interner() = default;

  // One slot of a shard's flat linear-probe table (power-of-two capacity,
  // home index = home hash & mask). `home` is the node's structural hash,
  // or 0 for a node placed in degenerate test mode; a null `term` is an
  // empty slot. 16 bytes, so a probe step reads no node memory until the
  // home hash matches.
  struct Slot {
    uint64_t home = 0;
    const Term* term = nullptr;
  };

  // A bucket group: one mutex guarding one open-addressed table. Terms are
  // assigned to shards by the *top* bits of their structural hash so the
  // in-shard home index (low bits) stays well distributed. A table is
  // allocated at kMinCapacity slots on the shard's first intern, doubles
  // when more than 3/4 full and halves when less than 1/4 full, never
  // below kMinCapacity.
  static constexpr size_t kShardBits = 4;
  static constexpr size_t kShardCount = 1u << kShardBits;
  static constexpr size_t kMinCapacity = 16;
  struct Shard {
    std::mutex mu;
    std::vector<Slot> slots;
    Stats stats;  // entries == non-empty slots, capacity == slots.size()
  };

  static size_t ShardIndex(uint64_t hash) {
    return static_cast<size_t>(hash >> (64 - kShardBits));
  }

  // Removes a dead node's slot. Called once per interned node, by the
  // release that took its count to zero.
  void Unlink(const Term* node);

  // Rebuilds one shard's table at `capacity` slots. Requires the shard's
  // mutex to be held.
  static void RehashLocked(Shard& shard, size_t capacity);

  Shard shards_[kShardCount];
  std::atomic<uint64_t> approx_allocated_{0};  // == sum of shard misses

  static std::atomic<bool> degenerate_buckets_;
};

}  // namespace eds::term

#endif  // EDS_TERM_INTERNER_H_
