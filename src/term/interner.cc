#include "term/interner.h"

#include <algorithm>
#include <new>

#include "gov/failpoint.h"

namespace eds::term {

std::atomic<bool> Interner::degenerate_buckets_{false};

Interner& Interner::Global() {
  // Leaky: never destroyed, so releases stay valid during static teardown.
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

// Increment-if-nonzero: a count of zero means the node's last reference is
// gone and its releaser is waiting for the shard lock to unlink it.
bool TryAcquire(std::atomic<uint32_t>& refs) {
  uint32_t n = refs.load(std::memory_order_relaxed);
  while (n != 0) {
    if (refs.compare_exchange_weak(n, n + 1, std::memory_order_relaxed)) {
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
  if (shard.slots.empty()) RehashLocked(shard, kMinCapacity);
  size_t mask = shard.slots.size() - 1;
  size_t idx = home & mask;
  for (;; idx = (idx + 1) & mask) {
    const Slot& s = shard.slots[idx];
    if (s.term == nullptr) break;  // end of the probe chain: not interned
    if (s.home != home || s.term->hash_ != hash) continue;
    if (ShallowEquals(*s.term, kind, value, name, args) &&
        TryAcquire(s.term->refs_)) {
      ++shard.stats.hits;
      return TermRef::Adopt(s.term);
    }
  }

  // Make room before allocating, so nothing below can throw once the node
  // is in the table. Chaos hook: "term.interner.rehash" moves every entry
  // of the shard on every allocation. The interner has no error path, so
  // injection here is a behavior stress, not a Status — dedup and
  // canonicality must survive it.
  const bool grow = (shard.stats.entries + 1) * 4 > shard.slots.size() * 3;
  if (grow || (gov::FailPoints::AnyArmed() &&
               !gov::FailPoints::Global().Hit("term.interner.rehash").ok())) {
    RehashLocked(shard, grow ? shard.slots.size() * 2 : shard.slots.size());
    mask = shard.slots.size() - 1;
    idx = home & mask;
    while (shard.slots[idx].term != nullptr) idx = (idx + 1) & mask;
  }

  Term* t = new Term();
  t->kind_ = static_cast<uint32_t>(kind);
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
  t->degenerate_ = degenerate ? 1 : 0;
  shard.slots[idx] = Slot{home, t};
  ++shard.stats.entries;
  ++shard.stats.misses;
  approx_allocated_.fetch_add(1, std::memory_order_relaxed);
  return TermRef::Adopt(t);
}

void Interner::Unlink(const Term* node) {
  Shard& shard = shards_[node->degenerate_ ? 0 : ShardIndex(node->hash_)];
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<Slot>& slots = shard.slots;
  const size_t mask = slots.size() - 1;
  // The node is still in its probe chain: only this release removes it.
  size_t hole = (node->degenerate_ ? 0 : node->hash_) & mask;
  while (slots[hole].term != node) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the chain into the
  // hole unless its home lies cyclically in (hole, j], where moving it
  // would put it before its home.
  for (size_t j = (hole + 1) & mask; slots[j].term != nullptr;
       j = (j + 1) & mask) {
    const size_t want = slots[j].home & mask;
    const bool stays = hole <= j ? (hole < want && want <= j)
                                 : (hole < want || want <= j);
    if (stays) continue;
    slots[hole] = slots[j];
    hole = j;
  }
  slots[hole] = Slot{};
  --shard.stats.entries;
  if (slots.size() > kMinCapacity && shard.stats.entries * 4 < slots.size()) {
    try {
      RehashLocked(shard, slots.size() / 2);
    } catch (const std::bad_alloc&) {
      // A release cannot fail: keep the larger table.
    }
  }
}

void Interner::RehashLocked(Shard& shard, size_t capacity) {
  std::vector<Slot> slots(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& s : shard.slots) {
    if (s.term == nullptr) continue;
    size_t idx = s.home & mask;
    while (slots[idx].term != nullptr) idx = (idx + 1) & mask;
    slots[idx] = s;
  }
  shard.slots.swap(slots);
  shard.stats.capacity = capacity;
}

void Term::Destroy(const Term* node) noexcept {
  if (node->interned_) Interner::Global().Unlink(node);
  delete node;
}

Interner::Stats Interner::GetStats() {
  Stats total;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.entries += shard.stats.entries;
    total.capacity += shard.stats.capacity;
  }
  return total;
}

TermRef Interner::CloneWithHashForTesting(const TermRef& t,
                                          uint64_t forced_hash) {
  Term* clone = new Term();
  clone->kind_ = t->kind_;
  clone->value_ = t->value_;
  clone->name_ = t->name_;
  clone->args_ = t->args_;
  clone->hash_ = forced_hash;
  clone->node_count_ = t->node_count_;
  clone->ground_ = t->ground_;
  clone->pattern_free_ = t->pattern_free_;
  clone->interned_ = 0;
  return TermRef::Adopt(clone);
}

}  // namespace eds::term
