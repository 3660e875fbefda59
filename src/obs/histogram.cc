#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace eds::obs {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < 2 * kSubCount) return static_cast<size_t>(value);
  const int exp = std::bit_width(value) - (kSubBits + 1);  // >= 1 here
  return static_cast<size_t>(exp) * kSubCount +
         static_cast<size_t>(value >> exp);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < 2 * kSubCount) return index;
  const size_t exp = index / kSubCount - 1;
  const uint64_t mantissa = index - exp * kSubCount;  // in [kSubCount, 2*kSubCount)
  return mantissa << exp;
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < 2 * kSubCount) return index;
  const size_t exp = index / kSubCount - 1;
  const uint64_t mantissa = index - exp * kSubCount;
  // The top bucket's upper bound wraps to 2^64-1 via well-defined
  // unsigned arithmetic ((mantissa+1) << exp == 0 there).
  return ((mantissa + 1) << exp) - 1;
}

size_t Histogram::ShardSlot() {
  static std::atomic<size_t> next{0};
  // One round-robin assignment per thread: workers spread across shards
  // and then stay put, so a shard's counters live in that worker's cache.
  static thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

Histogram::~Histogram() {
  for (std::atomic<Shard*>& shard : shards_) delete shard.load();
}

Histogram::Shard& Histogram::LocalShard() {
  std::atomic<Shard*>& slot = shards_[ShardSlot()];
  Shard* shard = slot.load(std::memory_order_acquire);
  if (shard != nullptr) return *shard;
  // Threads sharing a slot may race to allocate it: one CAS wins, and the
  // loser frees its copy and records into the winner's.
  Shard* fresh = new Shard();
  if (slot.compare_exchange_strong(shard, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *shard;
}

void Histogram::Record(uint64_t value) {
  Shard& shard = LocalShard();
  shard.counts[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !shard.max.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.counts.assign(kBuckets, 0);
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (size_t i = 0; i < kBuckets; ++i) {
      snap.counts[i] += shard->counts[i].load(std::memory_order_relaxed);
    }
    snap.count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, shard->max.load(std::memory_order_relaxed));
  }
  return snap;
}

void Histogram::ResetForTesting() {
  for (std::atomic<Shard*>& slot : shards_) {
    delete slot.exchange(nullptr, std::memory_order_relaxed);
  }
}

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * count)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      return std::min(Histogram::BucketUpperBound(i), max);
    }
  }
  return max;
}

}  // namespace eds::obs
