#include "srv/plan_cache.h"

#include <iterator>
#include <utility>

#include "gov/failpoint.h"

namespace eds::srv {

namespace {

// 64-bit mix (splitmix64 finalizer) so the epochs spread across the whole
// index hash.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

PlanCache::PlanCache(const Config& config) : max_nodes_(config.max_nodes) {}

size_t PlanCache::KeyHasher::operator()(const Key& key) const {
  uint64_t h = key.tmpl != nullptr ? key.tmpl->structural_hash() : 0;
  return Mix(h ^ Mix(key.catalog_epoch) ^ (Mix(key.rules_epoch) << 1));
}

bool PlanCache::KeyEqual::operator()(const Key& a, const Key& b) const {
  if (a.catalog_epoch != b.catalog_epoch || a.rules_epoch != b.rules_epoch) {
    return false;
  }
  if (a.tmpl.get() == b.tmpl.get()) return true;
  // Hash-equal distinct nodes (value-equivalent constants interned apart,
  // or manufactured collisions in tests) fall back to the deep compare.
  return term::Equals(a.tmpl, b.tmpl);
}

void PlanCache::EraseLocked(List::iterator it) {
  nodes_ -= it->charge;
  index_.erase(it->key);
  lru_.erase(it);
}

std::optional<term::TermRef> PlanCache::Lookup(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto found = index_.find(key);
  if (found == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  List::iterator it = found->second;
  ++stats_.hits;
  ++it->hits;
  lru_.splice(lru_.begin(), lru_, it);
  return it->normal_form;
}

void PlanCache::Insert(const Key& key, term::TermRef normal_form,
                       uint64_t rewrite_ns, term::TermList sample_params,
                       uint64_t seed_hits) {
  if (key.tmpl == nullptr || normal_form == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Chaos: a failed insert is a skipped insert — the entry simply is not
  // cached, so the next lookup misses and pays a normal rewrite. Inside
  // the lock so the stats bump is race-free; a lambda because
  // EDS_FAIL_POINT returns out of its enclosing function.
  auto injected = []() -> Status {
    EDS_FAIL_POINT("srv.cache.insert");
    return Status::OK();
  };
  if (!injected().ok()) {
    ++stats_.insert_failures;
    return;
  }
  // A refresh (same key rewritten again, e.g. after a racing double-miss)
  // updates the entry in place.
  auto found = index_.find(key);
  if (found != index_.end()) {
    lru_.splice(lru_.begin(), lru_, found->second);
    nodes_ -= lru_.front().charge;
  } else {
    lru_.emplace_front();
    lru_.front().key = key;
    index_.emplace(key, lru_.begin());
    ++stats_.inserts;
  }
  Entry& e = lru_.front();
  e.charge = key.tmpl->node_count() + normal_form->node_count();
  e.normal_form = std::move(normal_form);
  e.hits += seed_hits;
  e.rewrite_ns = rewrite_ns;
  e.sample_params = std::move(sample_params);
  nodes_ += e.charge;
  // The entry just written survives even when it alone exceeds the
  // ceiling: a cache that cannot hold the working entry is useless, not
  // wrong.
  while (nodes_ > max_nodes_ && lru_.size() > 1) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

std::vector<PlanCache::SnapshotEntry> PlanCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotEntry> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) {
    out.push_back(SnapshotEntry{e.key.tmpl, e.normal_form,
                                e.key.catalog_epoch, e.key.rules_epoch,
                                e.hits, e.rewrite_ns, e.sample_params});
  }
  return out;
}

void PlanCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += lru_.size();
  lru_.clear();
  index_.clear();
  nodes_ = 0;
}

void PlanCache::DropStale(uint64_t catalog_epoch, uint64_t rules_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.catalog_epoch == catalog_epoch &&
        it->key.rules_epoch == rules_epoch) {
      ++it;
    } else {
      EraseLocked(it++);
      ++stats_.invalidations;
    }
  }
}

PlanCache::Stats PlanCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.entries = lru_.size();
  out.nodes = nodes_;
  return out;
}

}  // namespace eds::srv
