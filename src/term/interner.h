#ifndef EDS_TERM_INTERNER_H_
#define EDS_TERM_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
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
//   - The table holds weak_ptrs, so it never extends a term's lifetime;
//     dead entries linger as tombstones (occasionally reused in place by a
//     hash-equal newcomer) until an amortized compacting sweep reclaims
//     them once inserts outgrow the live population. Each node is
//     allocated apart from its shared_ptr control block (no make_shared),
//     so a dead node is freed with its last TermRef and a tombstone pins
//     only the ~32-byte control block, not the whole ~128-byte node. The
//     price is one extra allocation per fresh intern, small next to the
//     work around it: bench_e2e's rewrite_cold makes ~220 interner misses
//     per request, whose rewrite alone takes ~1 ms.
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
//     terms may be destroyed during static teardown, and destroying a
//     Term never touches the table, so there is no order-of-destruction
//     hazard.
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

  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  // Canonicalizing constructor used by the Term factories. `name` is the
  // variable name or the (already upper-cased) functor; `args` must all be
  // interned (or testing clones, which simply never unify with anything).
  TermRef Intern(TermKind kind, value::Value value, std::string name,
                 TermList args);

  struct Stats {
    size_t hits = 0;     // constructions answered by an existing node
    size_t misses = 0;   // constructions that allocated a new node
    size_t entries = 0;  // table entries (live + not-yet-swept dead)
    size_t sweeps = 0;   // bulk sweeps performed
  };
  Stats GetStats();

  // Lock-free running count of term-node allocations (== misses). The
  // query governor's node ceiling diffs this against a per-query baseline;
  // an atomic copy of the locked counter keeps the governor's hot checks
  // off the interner mutex.
  uint64_t ApproxAllocated() const {
    return approx_allocated_.load(std::memory_order_relaxed);
  }

  // Drops every expired entry now; returns how many were erased.
  size_t Sweep();

  // Testing hook: force every lookup into one bucket, simulating total
  // hash collision. Dedup stays exact (candidates are compared
  // structurally) — only table performance degrades — so flipping this
  // mid-process is safe.
  static void SetDegenerateBucketsForTesting(bool on);

  // Testing hook behind term::testing::CloneWithHashForTesting.
  static TermRef CloneWithHashForTesting(const TermRef& t,
                                         uint64_t forced_hash);

 private:
  // One slot of the flat linear-probe table. Each shard's table is
  // open-addressed (power-of-two capacity, home index = structural hash &
  // mask) rather than a node-based map: term construction is the hottest
  // path in the whole system — the executor churns through millions of
  // short-lived terms — and a flat table makes a fresh intern cost no
  // allocation beyond the term node and its control block.
  struct Slot {
    uint64_t hash = 0;
    std::weak_ptr<const Term> term;
    bool used = false;  // distinguishes never-used from expired slots
  };

  // A bucket group: one mutex guarding one open-addressed table. Terms are
  // assigned to shards by the *top* bits of their structural hash so the
  // in-shard home index (low bits) stays well distributed.
  static constexpr size_t kShardBits = 4;
  static constexpr size_t kShardCount = 1u << kShardBits;
  struct Shard {
    std::mutex mu;
    std::vector<Slot> slots;  // empty until the first Intern() in the shard
    Stats stats;              // entries == used slots (live + unswept dead)
    size_t next_sweep = 1024;
  };

  static size_t ShardIndex(uint64_t hash) {
    return static_cast<size_t>(hash >> (64 - kShardBits));
  }

  // Compacting rehash of one shard: drops every expired entry, resizes to
  // fit the live population, and reinserts. Doubles as both the amortized
  // sweep and the load-factor growth path. Returns how many dead entries
  // were erased. Requires the shard's mutex to be held.
  static size_t SweepShardLocked(Shard& shard);

  Shard shards_[kShardCount];
  std::atomic<uint64_t> approx_allocated_{0};  // == sum of shard misses

  static std::atomic<bool> degenerate_buckets_;
};

}  // namespace eds::term

#endif  // EDS_TERM_INTERNER_H_
