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

PlanCache::PlanCache(const Config& config)
    : max_nodes_(std::max<uint64_t>(1, config.max_nodes)) {}

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

PlanCache::EntryList::iterator PlanCache::FindLocked(const Key& key,
                                                     uint64_t hash) {
  auto it = index_.find(hash);
  if (it != index_.end()) {
    for (EntryList::iterator eit : it->second) {
      if (KeyEquals(eit->key, key)) return eit;
    }
  }
  return entries_.end();
}

std::optional<term::TermRef> PlanCache::Lookup(const Key& key) {
  const uint64_t hash = KeyHash(key);
  std::lock_guard<std::mutex> lock(mu_);
  EntryList::iterator it = FindLocked(key, hash);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  ++it->hits;
  entries_.splice(entries_.begin(), entries_, it);  // bump to most-recent
  return it->normal_form;
}

void PlanCache::EraseLocked(EntryList::iterator it) {
  auto idx = index_.find(KeyHash(it->key));
  if (idx != index_.end()) {
    auto& vec = idx->second;
    vec.erase(std::remove(vec.begin(), vec.end(), it), vec.end());
    if (vec.empty()) index_.erase(idx);
  }
  stats_.nodes -= it->charged_nodes;
  --stats_.entries;
  entries_.erase(it);
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
  EntryList::iterator it = FindLocked(key, hash);
  if (it == entries_.end()) {
    entries_.push_front(Entry{});
    entries_.front().key = key;
    index_[hash].push_back(entries_.begin());
    ++stats_.inserts;
    ++stats_.entries;
  } else {
    // Refresh in place (same key rewritten again, e.g. after a racing
    // double-miss).
    stats_.nodes -= it->charged_nodes;
    entries_.splice(entries_.begin(), entries_, it);
  }
  Entry& entry = entries_.front();
  entry.normal_form = std::move(normal_form);
  entry.charged_nodes =
      key.tmpl->node_count() + entry.normal_form->node_count();
  entry.hits += seed_hits;
  entry.rewrite_ns = rewrite_ns;
  entry.sample_params = std::move(sample_params);
  stats_.nodes += entry.charged_nodes;
  // Evict least-recently-used entries until back under the ceiling (a
  // refresh can grow an entry too); the entry just written survives even
  // when it alone exceeds the ceiling (a cache that cannot hold the
  // working plan is useless, not wrong).
  while (stats_.nodes > max_nodes_ && entries_.size() > 1) {
    EraseLocked(std::prev(entries_.end()));
    ++stats_.evictions;
  }
}

std::vector<PlanCache::SnapshotEntry> PlanCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotEntry> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    SnapshotEntry s;
    s.tmpl = e.key.tmpl;
    s.normal_form = e.normal_form;
    s.catalog_epoch = e.key.catalog_epoch;
    s.rules_epoch = e.key.rules_epoch;
    s.hits = e.hits;
    s.rewrite_ns = e.rewrite_ns;
    s.sample_params = e.sample_params;
    out.push_back(std::move(s));
  }
  return out;
}

void PlanCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += entries_.size();
  stats_.entries = 0;
  stats_.nodes = 0;
  entries_.clear();
  index_.clear();
}

void PlanCache::DropStale(uint64_t catalog_epoch, uint64_t rules_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->key.catalog_epoch == catalog_epoch &&
        it->key.rules_epoch == rules_epoch) {
      ++it;
      continue;
    }
    EraseLocked(it++);
    ++stats_.invalidations;
  }
}

PlanCache::Stats PlanCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace eds::srv
