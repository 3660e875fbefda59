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
    : max_nodes_(std::max<uint64_t>(1, config.max_nodes)),
      probation_cap_(std::max<uint64_t>(1, max_nodes_ / kProbationShare)) {}

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

std::optional<PlanCache::EntryList::iterator> PlanCache::FindLocked(
    const Key& key, uint64_t hash) {
  auto it = index_.find(hash);
  if (it != index_.end()) {
    for (EntryList::iterator eit : it->second) {
      if (KeyEquals(eit->key, key)) return eit;
    }
  }
  return std::nullopt;
}

void PlanCache::ChargeLocked(Entry& entry, uint64_t nodes) {
  stats_.nodes = stats_.nodes - entry.charged_nodes + nodes;
  if (!entry.is_protected) {
    stats_.probation_nodes =
        stats_.probation_nodes - entry.charged_nodes + nodes;
  }
  entry.charged_nodes = nodes;
}

void PlanCache::MoveToHeadLocked(EntryList::iterator it, bool to_protected) {
  // Uncharged from the old segment, recharged to the new one.
  const uint64_t charge = it->charged_nodes;
  ChargeLocked(*it, 0);
  EntryList& from = it->is_protected ? protected_ : probation_;
  EntryList& to = to_protected ? protected_ : probation_;
  to.splice(to.begin(), from, it);
  it->is_protected = to_protected;
  ChargeLocked(*it, charge);
}

void PlanCache::EnforceCapsLocked() {
  // Protected may use what probation's cap leaves of the ceiling; its
  // overflow gets a second chance at the probation head.
  const uint64_t protected_cap =
      max_nodes_ > probation_cap_ ? max_nodes_ - probation_cap_ : 0;
  while (stats_.nodes - stats_.probation_nodes > protected_cap &&
         protected_.size() > 1) {
    MoveToHeadLocked(std::prev(protected_.end()), /*to_protected=*/false);
  }
  // Only probation evicts, so a flood of one-shot inserts can never push
  // out a plan that has been reused. The head survives even when it alone
  // exceeds the cap (a cache that cannot hold the working plan is useless,
  // not wrong).
  while (stats_.probation_nodes > probation_cap_ && probation_.size() > 1) {
    EraseLocked(std::prev(probation_.end()));
    ++stats_.evictions;
  }
}

std::optional<term::TermRef> PlanCache::Lookup(const Key& key) {
  const uint64_t hash = KeyHash(key);
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<EntryList::iterator> found = FindLocked(key, hash);
  if (!found.has_value()) {
    ++stats_.misses;
    return std::nullopt;
  }
  EntryList::iterator it = *found;
  ++stats_.hits;
  ++it->hits;
  if (!it->is_protected) ++stats_.promotions;
  MoveToHeadLocked(it, /*to_protected=*/true);
  EnforceCapsLocked();
  return it->normal_form;
}

void PlanCache::EraseLocked(EntryList::iterator it) {
  auto idx = index_.find(KeyHash(it->key));
  if (idx != index_.end()) {
    auto& vec = idx->second;
    vec.erase(std::remove(vec.begin(), vec.end(), it), vec.end());
    if (vec.empty()) index_.erase(idx);
  }
  ChargeLocked(*it, 0);
  --stats_.entries;
  (it->is_protected ? protected_ : probation_).erase(it);
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
  // A refresh (same key rewritten again, e.g. after a racing double-miss)
  // updates the entry in place and keeps its segment.
  std::optional<EntryList::iterator> found = FindLocked(key, hash);
  EntryList::iterator it;
  if (found.has_value()) {
    it = *found;
  } else {
    probation_.push_front(Entry{});
    it = probation_.begin();
    it->key = key;
    index_[hash].push_back(it);
    ++stats_.inserts;
    ++stats_.entries;
  }
  it->normal_form = std::move(normal_form);
  ChargeLocked(*it, key.tmpl->node_count() + it->normal_form->node_count());
  it->hits += seed_hits;
  it->rewrite_ns = rewrite_ns;
  it->sample_params = std::move(sample_params);
  MoveToHeadLocked(it, it->is_protected || seed_hits > 0);
  EnforceCapsLocked();
}

std::vector<PlanCache::SnapshotEntry> PlanCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotEntry> out;
  out.reserve(stats_.entries);
  for (const EntryList* segment : {&protected_, &probation_}) {
    for (const Entry& e : *segment) {
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
  }
  return out;
}

void PlanCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += stats_.entries;
  stats_.entries = 0;
  stats_.nodes = 0;
  stats_.probation_nodes = 0;
  probation_.clear();
  protected_.clear();
  index_.clear();
}

void PlanCache::DropStale(uint64_t catalog_epoch, uint64_t rules_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (EntryList* segment : {&protected_, &probation_}) {
    for (auto it = segment->begin(); it != segment->end();) {
      if (it->key.catalog_epoch == catalog_epoch &&
          it->key.rules_epoch == rules_epoch) {
        ++it;
        continue;
      }
      EraseLocked(it++);
      ++stats_.invalidations;
    }
  }
}

PlanCache::Stats PlanCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace eds::srv
