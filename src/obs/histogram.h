#ifndef EDS_OBS_HISTOGRAM_H_
#define EDS_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace eds::obs {

// Log-bucketed (HDR-style) latency histogram for the serving hot path.
//
// Bucketing is log-linear: values below 2^kSubBits+1 land in exact unit
// buckets; above that, each power-of-two octave is split into kSubCount
// linear sub-buckets, so the relative quantile error is bounded by
// 1/kSubCount (~6% with kSubBits=4) across the full uint64 range. This is
// the classic HdrHistogram layout reduced to what a latency gauge needs:
// bounded memory, O(1) record, O(buckets) snapshot.
//
// Concurrency: recording is lock-free. Counters are relaxed atomics,
// sharded kShards ways with each shard on its own cache line set; a thread
// picks its shard once (thread-local round-robin), so the worker pool
// records without a shared lock OR a shared cache line. A shard (~7.8 KB)
// is allocated by the first Record() that lands on it, so a histogram
// costs one pointer per shard until used and one shard per recording
// thread after (up to kShards). Snapshot() sums the shards with relaxed
// loads — it is a statistically consistent view, not a linearizable one,
// which is all a quantile gauge needs. The one
// cross-shard invariant tests may rely on: every Record() that
// happens-before a Snapshot() is fully visible in it (count, sum, and its
// bucket all move together per shard).
class Histogram;

// One merged view of a Histogram: bucket counts plus exact count/sum/max.
// Obtain via Histogram::Snapshot(); quantiles are extracted here so the
// walk happens once per export, never on the record path.
struct HistogramSnapshot {
  std::vector<uint64_t> counts;  // size Histogram::kBuckets
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  // Value at quantile q in [0,1]: the upper bound of the bucket holding
  // the ceil(q*count)-th smallest recorded value, clamped to the observed
  // max (so p100 == max exactly). Returns 0 on an empty snapshot.
  uint64_t ValueAtQuantile(double q) const;
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

class Histogram {
 public:
  static constexpr int kSubBits = 4;  // 16 sub-buckets per octave
  static constexpr size_t kSubCount = size_t{1} << kSubBits;
  // Unit buckets cover [0, 2*kSubCount); each further octave adds
  // kSubCount buckets up to 2^64-1. 59 octaves * 16 + 32 = 976.
  static constexpr size_t kBuckets = (63 - kSubBits) * kSubCount + 2 * kSubCount;

  Histogram() = default;
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Lock-free; safe from any thread.
  void Record(uint64_t value);

  HistogramSnapshot Snapshot() const;

  // Drops every shard. NOT safe concurrently with Record (tests only).
  void ResetForTesting();

  // Bucket math, exposed for tests and the Prometheus exporter.
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);  // inclusive

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> counts{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  static size_t ShardSlot();
  // The calling thread's shard, allocated on its first use.
  Shard& LocalShard();

  std::array<std::atomic<Shard*>, kShards> shards_{};
};

}  // namespace eds::obs

#endif  // EDS_OBS_HISTOGRAM_H_
