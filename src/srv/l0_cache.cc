#include "srv/l0_cache.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace eds::srv {

std::optional<L0Cache::Entry> L0Cache::Lookup(const std::string& normalized,
                                              uint64_t catalog_epoch,
                                              uint64_t rules_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (normalized.size() > max_key_bytes_) {
    ++stats_.oversize_rejects;
    ++stats_.misses;
    return std::nullopt;
  }
  auto it = index_.find(normalized);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  List::iterator node = it->second;
  if (node->entry.catalog_epoch != catalog_epoch ||
      node->entry.rules_epoch != rules_epoch) {
    // DDL or a rule-library change happened since this entry was built;
    // drop it so the slot is free for the rebuilt plan.
    index_.erase(it);
    lru_.erase(node);
    ++stats_.invalidations;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  ++node->hits;
  lru_.splice(lru_.begin(), lru_, node);
  return node->entry;
}

void L0Cache::Insert(const std::string& normalized, Entry entry,
                     uint64_t seed_hits) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.inserts;
  if (capacity_ == 0) return;
  if (normalized.size() > max_key_bytes_) {
    ++stats_.oversize_rejects;
    return;
  }
  auto it = index_.find(normalized);
  if (it != index_.end()) {
    it->second->entry = std::move(entry);
    it->second->hits += seed_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Node{normalized, std::move(entry), seed_hits});
  index_.emplace(normalized, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::vector<L0Cache::SnapshotEntry> L0Cache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotEntry> out;
  out.reserve(lru_.size());
  for (const Node& n : lru_) {
    out.push_back(SnapshotEntry{n.key, n.entry, n.hits});
  }
  return out;
}

void L0Cache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += lru_.size();
  lru_.clear();
  index_.clear();
}

L0Cache::Stats L0Cache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.entries = lru_.size();
  return out;
}

std::string NormalizeQueryText(std::string_view esql, size_t max_bytes) {
  std::string out;
  out.reserve(std::min(esql.size(), max_bytes + 1));
  bool in_string = false;
  bool pending_space = false;  // a whitespace run awaits its single space
  const size_t n = esql.size();
  for (size_t i = 0; i < n; ++i) {
    // Stop once past the cap: the caller only needs to see that the
    // output is oversize, not the full normalization of a megaquery.
    if (out.size() > max_bytes) break;
    char c = esql[i];
    if (in_string) {
      // Verbatim through the closing quote; '' doubling toggles twice,
      // which copies both quotes and stays inside the literal.
      out += c;
      if (c == '\'') in_string = false;
      continue;
    }
    if (c == '-' && i + 1 < n && esql[i + 1] == '-') {
      // '--' line comment: consume to end of line, acts as whitespace.
      while (i < n && esql[i] != '\n') ++i;
      --i;  // the loop increment lands on the newline (or the end)
      pending_space = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space) {
      if (!out.empty()) out += ' ';  // no leading space
      pending_space = false;
    }
    if (c == '\'') {
      in_string = true;
      out += c;
    } else {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  // A trailing pending_space is dropped: that trims the right edge.
  return out;
}

void ExportL0Stats(const L0Cache::Stats& stats,
                   obs::MetricsRegistry* registry) {
  registry->Counter("srv.l0.hits", stats.hits);
  registry->Counter("srv.l0.misses", stats.misses);
  registry->Counter("srv.l0.inserts", stats.inserts);
  registry->Counter("srv.l0.evictions", stats.evictions);
  registry->Counter("srv.l0.invalidations", stats.invalidations);
  registry->Counter("srv.l0.oversize_rejects", stats.oversize_rejects);
  registry->Gauge("srv.l0.entries", static_cast<double>(stats.entries));
}

}  // namespace eds::srv
