#include "srv/plan_cache.h"

#include <algorithm>
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

PlanCache::PlanCache(const Config& config) : lru_(config.max_nodes) {}

uint64_t PlanCache::KeyHash(const Key& key) {
  uint64_t h = key.tmpl != nullptr ? key.tmpl->structural_hash() : 0;
  h = Mix(h ^ Mix(key.catalog_epoch) ^ (Mix(key.rules_epoch) << 1));
  return h;
}

bool PlanCache::KeyEquals(const Key& a, const Key& b) {
  if (a.catalog_epoch != b.catalog_epoch || a.rules_epoch != b.rules_epoch) {
    return false;
  }
  if (a.tmpl.get() == b.tmpl.get()) return true;
  // Hash-equal distinct nodes (value-equivalent constants interned apart,
  // or manufactured collisions in tests) fall back to the deep compare.
  return term::Equals(a.tmpl, b.tmpl);
}

std::optional<PlanCache::Segments::iterator> PlanCache::FindLocked(
    const Key& key, uint64_t hash) {
  auto it = index_.find(hash);
  if (it != index_.end()) {
    for (Segments::iterator eit : it->second) {
      if (KeyEquals(eit->value.key, key)) return eit;
    }
  }
  return std::nullopt;
}

void PlanCache::UnindexLocked(const Entry& entry) {
  auto idx = index_.find(KeyHash(entry.key));
  if (idx == index_.end()) return;
  auto& vec = idx->second;
  vec.erase(std::remove_if(vec.begin(), vec.end(),
                           [&](Segments::iterator it) {
                             return &it->value == &entry;
                           }),
            vec.end());
  if (vec.empty()) index_.erase(idx);
}

void PlanCache::EnforceCapsLocked() {
  lru_.EnforceCaps([this](const Entry& e) { UnindexLocked(e); });
}

std::optional<term::TermRef> PlanCache::Lookup(const Key& key) {
  const uint64_t hash = KeyHash(key);
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<Segments::iterator> found = FindLocked(key, hash);
  if (!found.has_value()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Segments::iterator it = *found;
  ++stats_.hits;
  ++it->value.hits;
  lru_.Promote(it);
  EnforceCapsLocked();
  return it->value.normal_form;
}

void PlanCache::Insert(const Key& key, term::TermRef normal_form,
                       uint64_t rewrite_ns, term::TermList sample_params,
                       uint64_t seed_hits) {
  if (key.tmpl == nullptr || normal_form == nullptr) return;
  const uint64_t hash = KeyHash(key);
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
  const uint64_t charge =
      key.tmpl->node_count() + normal_form->node_count();
  // A refresh (same key rewritten again, e.g. after a racing double-miss)
  // updates the entry in place and keeps its segment.
  std::optional<Segments::iterator> found = FindLocked(key, hash);
  Segments::iterator it;
  if (found.has_value()) {
    it = *found;
    lru_.Charge(it, charge);
  } else {
    Entry fresh;
    fresh.key = key;
    it = lru_.Insert(std::move(fresh), charge);
    index_[hash].push_back(it);
    ++stats_.inserts;
  }
  Entry& e = it->value;
  e.normal_form = std::move(normal_form);
  e.hits += seed_hits;
  e.rewrite_ns = rewrite_ns;
  e.sample_params = std::move(sample_params);
  lru_.Touch(it, /*hot=*/seed_hits > 0);
  EnforceCapsLocked();
}

std::vector<PlanCache::SnapshotEntry> PlanCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotEntry> out;
  out.reserve(lru_.size());
  lru_.ForEach([&](const Entry& e) {
    out.push_back(SnapshotEntry{e.key.tmpl, e.normal_form,
                                e.key.catalog_epoch, e.key.rules_epoch,
                                e.hits, e.rewrite_ns, e.sample_params});
  });
  return out;
}

void PlanCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += lru_.size();
  lru_.Clear();
  index_.clear();
}

void PlanCache::DropStale(uint64_t catalog_epoch, uint64_t rules_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += lru_.EraseIf([&](const Entry& e) {
    if (e.key.catalog_epoch == catalog_epoch &&
        e.key.rules_epoch == rules_epoch) {
      return false;
    }
    UnindexLocked(e);
    return true;
  });
}

PlanCache::Stats PlanCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.evictions = lru_.evictions();
  out.entries = lru_.size();
  out.nodes = lru_.charge();
  out.promotions = lru_.promotions();
  out.probation_nodes = lru_.probation_charge();
  return out;
}

}  // namespace eds::srv
