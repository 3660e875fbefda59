#include "term/interner.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "gov/failpoint.h"

namespace eds::term {

namespace {

// Gives interner.cc access to Term's protected default constructor, the
// same way term.cc used to build nodes before construction moved here.
struct TermBuilder : Term {};

// Smallest per-shard table ever allocated. Power of two; sized so
// steady-state programs (parser operator tables, built-in rule libraries, a
// live query) rarely rehash. 512 × 16 shards matches the footprint of the
// old single 4096-slot table within a factor of two.
constexpr size_t kMinCapacity = 512;

}  // namespace

std::atomic<bool> Interner::degenerate_buckets_{false};

Interner& Interner::Global() {
  // Leaky: never destroyed, so factories stay valid during static teardown.
  static Interner* global = new Interner();
  return *global;
}

void Interner::SetDegenerateBucketsForTesting(bool on) {
  degenerate_buckets_.store(on, std::memory_order_relaxed);
}

namespace {

// Shallow structural identity against an existing interned node: child
// comparison is by pointer, which is exact because children are already
// canonical.
bool ShallowEquals(const Term& cand, TermKind kind, const value::Value& value,
                   const std::string& name, const TermList& args) {
  if (cand.kind() != kind) return false;
  switch (kind) {
    case TermKind::kConstant:
      return value::Compare(cand.constant(), value) == 0 &&
             cand.constant().kind() == value.kind();
    case TermKind::kVariable:
    case TermKind::kCollectionVariable:
      return cand.var_name() == name;
    case TermKind::kApply: {
      if (cand.functor() != name || cand.arity() != args.size()) return false;
      for (size_t i = 0; i < args.size(); ++i) {
        if (cand.arg(i).get() != args[i].get()) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

TermRef Interner::Intern(TermKind kind, value::Value value, std::string name,
                         TermList args) {
  uint64_t child_hashes_buf[8];
  std::vector<uint64_t> child_hashes_vec;
  const uint64_t* child_hashes = child_hashes_buf;
  if (args.size() <= 8) {
    for (size_t i = 0; i < args.size(); ++i) {
      child_hashes_buf[i] = args[i]->structural_hash();
    }
  } else {
    child_hashes_vec.reserve(args.size());
    for (const TermRef& a : args) {
      child_hashes_vec.push_back(a->structural_hash());
    }
    child_hashes = child_hashes_vec.data();
  }
  const uint64_t hash =
      internal::HashNode(kind, name, value, child_hashes, args.size());
  // Degenerate test mode collapses both the shard choice and the in-shard
  // home index, simulating total hash collision across the whole table.
  const bool degenerate = degenerate_buckets_.load(std::memory_order_relaxed);
  const uint64_t home = degenerate ? 0 : hash;
  Shard& shard = shards_[degenerate ? 0 : ShardIndex(hash)];

  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots.empty()) shard.slots.assign(kMinCapacity, Slot{});
  const size_t mask = shard.slots.size() - 1;
  size_t idx = home & mask;
  size_t reuse = std::numeric_limits<size_t>::max();
  for (;;) {
    Slot& s = shard.slots[idx];
    if (!s.used) break;  // end of this probe chain: the term is not interned
    if (s.hash == hash) {
      if (TermRef cand = s.term.lock()) {
        if (ShallowEquals(*cand, kind, value, name, args)) {
          ++shard.stats.hits;
          return cand;
        }
      } else if (reuse == std::numeric_limits<size_t>::max()) {
        // A hash-equal entry whose term died: remember it so the newcomer
        // can take its slot. (Expiry of hash-unequal slots is deliberately
        // not checked here — that would cost an atomic per probe step on
        // the hottest path; the sweep reclaims those.)
        reuse = idx;
      }
    }
    idx = (idx + 1) & mask;
  }

  // Not make_shared: that would put the node and its control block in one
  // allocation, so the table's weak_ptr would pin the whole dead node until
  // the next sweep. Separate, the node is freed with its last TermRef and
  // a tombstone holds only the control block.
  std::shared_ptr<TermBuilder> t(new TermBuilder());
  t->kind_ = kind;
  t->value_ = std::move(value);
  t->name_ = std::move(name);
  t->args_ = std::move(args);
  t->hash_ = hash;
  uint64_t nodes = 1;
  bool ground = kind != TermKind::kVariable &&
                kind != TermKind::kCollectionVariable;
  bool pattern_free =
      ground && !(kind == TermKind::kApply && !t->name_.empty() &&
                  t->name_.front() == '?');
  for (const TermRef& a : t->args_) {
    nodes += a->node_count_;
    ground = ground && a->ground_;
    pattern_free = pattern_free && a->pattern_free_;
  }
  t->node_count_ = static_cast<uint32_t>(
      std::min<uint64_t>(nodes, Term::kMaxNodeCount));
  t->ground_ = ground ? 1 : 0;
  t->pattern_free_ = pattern_free ? 1 : 0;
  t->interned_ = 1;
  if (reuse != std::numeric_limits<size_t>::max()) {
    // Overwriting a dead slot keeps it `used`, so probe chains that pass
    // through it stay intact; the entry count is unchanged.
    shard.slots[reuse] = Slot{hash, t, true};
  } else {
    shard.slots[idx] = Slot{hash, t, true};
    ++shard.stats.entries;
  }
  ++shard.stats.misses;
  approx_allocated_.fetch_add(1, std::memory_order_relaxed);
  // Chaos hook: "term.interner.sweep" simulates constant reclamation
  // pressure by forcing a compacting sweep on every allocation. The
  // interner has no error path, so injection here is a behavior stress,
  // not a Status — dedup and canonicality must survive it.
  if (gov::FailPoints::AnyArmed() &&
      !gov::FailPoints::Global().Hit("term.interner.sweep").ok()) {
    SweepShardLocked(shard);
  }
  // Compact once used slots outgrow the live population (amortized O(1)
  // per insert), or before the load factor can degrade probe chains.
  if (shard.stats.entries >= shard.next_sweep ||
      (shard.stats.entries + 1) * 4 >= shard.slots.size() * 3) {
    SweepShardLocked(shard);
  }
  return t;
}

size_t Interner::SweepShardLocked(Shard& shard) {
  std::vector<Slot> old = std::move(shard.slots);
  size_t live = 0;
  for (const Slot& s : old) {
    if (s.used && !s.term.expired()) ++live;
  }
  size_t capacity = kMinCapacity;
  while (capacity < live * 2) capacity <<= 1;
  shard.slots.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (Slot& s : old) {
    if (!s.used) continue;
    std::weak_ptr<const Term> w = std::move(s.term);
    if (w.expired()) continue;
    // Reinsert at the real home index even for entries created in
    // degenerate test mode: a degenerate-mode lookup may then miss them
    // and create a duplicate, which is safe (imperfect dedup always is).
    size_t idx = s.hash & mask;
    while (shard.slots[idx].used) idx = (idx + 1) & mask;
    shard.slots[idx] = Slot{s.hash, std::move(w), true};
  }
  size_t erased = shard.stats.entries - live;
  shard.stats.entries = live;
  ++shard.stats.sweeps;
  // Re-arm so sweeping stays amortized O(1) per insert.
  shard.next_sweep = std::max<size_t>(1024, shard.stats.entries * 2);
  return erased;
}

size_t Interner::Sweep() {
  size_t erased = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    erased += SweepShardLocked(shard);
  }
  return erased;
}

Interner::Stats Interner::GetStats() {
  Stats total;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.entries += shard.stats.entries;
    total.sweeps += shard.stats.sweeps;
  }
  return total;
}

TermRef Interner::CloneWithHashForTesting(const TermRef& t,
                                          uint64_t forced_hash) {
  auto clone = std::make_shared<TermBuilder>();
  clone->kind_ = t->kind_;
  clone->value_ = t->value_;
  clone->name_ = t->name_;
  clone->args_ = t->args_;
  clone->hash_ = forced_hash;
  clone->node_count_ = t->node_count_;
  clone->ground_ = t->ground_;
  clone->pattern_free_ = t->pattern_free_;
  clone->interned_ = false;
  return clone;
}

}  // namespace eds::term
