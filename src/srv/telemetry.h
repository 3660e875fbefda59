#ifndef EDS_SRV_TELEMETRY_H_
#define EDS_SRV_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "exec/session.h"
#include "gov/governor.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace eds::srv {

// Serving telemetry: the per-query workload record the ROADMAP's
// workload-driven items (rule tuning, per-tenant admission, rule
// discovery) all presuppose. Three pieces, owned by QueryService:
//
//   * latency histograms (obs/histogram.h) over queue wait, serve time,
//     and the pipeline phases, with serve time additionally split by
//     cache outcome — exported as srv.latency.* quantile gauges and as
//     Prometheus histogram series;
//   * a flight recorder: a bounded ring of structured QueryRecords for
//     the last N served queries, rendered by the shell's \top and \slow;
//   * a slow-query JSONL log: queries whose serve time crossed a
//     threshold are appended as one JSON object per line, with their own
//     Chrome span trace attached (captured retroactively — no re-run
//     under --trace-out needed).
//
// Everything here is off the serve path's critical section: histograms
// record via relaxed atomics, the recorder takes one short mutex per
// query.

// One served (or failed) query as the flight recorder keeps it.
struct QueryRecord {
  uint64_t seq = 0;           // 1-based admission-order id within the service
  std::string text;           // normalized query text, truncated
  uint64_t template_hash = 0; // structural hash of the fingerprint template
  exec::PhaseTimes phases;    // parse/translate/rewrite/schema/exec/total
  uint64_t queue_ns = 0;      // admission -> dequeue
  uint64_t serve_ns = 0;      // dequeue -> completion
  gov::GovernorLimits base;     // the service's configured budget template
  gov::GovernorLimits granted;  // load-scaled budget actually granted
  std::string trip;           // rewrite trip reason, "" when none
  bool l0_hit = false;
  bool cache_hit = false;     // template (plan-cache) hit
  bool cache_stored = false;
  bool cache_bypass = false;
  size_t worker_id = 0;
  bool ok = true;
  std::string error;          // status message when !ok
  uint64_t rows = 0;
  bool slow = false;          // crossed the slow-query threshold
  std::string trace_json;     // Chrome trace of this query (slow only)
};

// "l0", "tmpl", "miss", or "error" — the cache-outcome tag used in record
// rendering and the latency split.
const char* CacheOutcomeName(const QueryRecord& record);

// One JSONL line (no trailing newline). `trace_json`, already valid JSON,
// is embedded verbatim under "trace"; everything else is escaped.
std::string QueryRecordToJson(const QueryRecord& record);

// Bounded ring of the last `capacity` QueryRecords. One mutex; the
// critical section is a deque push + pop, negligible next to a query.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity) : capacity_(capacity) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Stamps record.seq (1-based, total admission order) and appends,
  // dropping the oldest record past capacity. Returns the stamped seq.
  uint64_t Add(QueryRecord record);

  // Newest first. limit == 0 means everything retained.
  std::vector<QueryRecord> Recent(size_t limit = 0) const;
  // Retained records ranked by serve_ns descending (ties: newer first).
  std::vector<QueryRecord> Slowest(size_t limit) const;

  uint64_t total_added() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t next_seq_ = 1;
  std::deque<QueryRecord> ring_;  // oldest first
};

// Append-only JSONL sink for slow queries. Opens lazily on first append
// (so configuring a path costs nothing until a query is actually slow)
// and flushes per line — a slow query is rare and worth durable capture.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(std::string path) : path_(std::move(path)) {}

  Status Append(const QueryRecord& record);
  uint64_t appended() const;
  const std::string& path() const { return path_; }

 private:
  mutable std::mutex mu_;
  std::string path_;
  std::ofstream out_;
  uint64_t appended_ = 0;
};

// The serve-path latency histograms. queue/serve cover every query;
// parse/rewrite/execute record only when the phase actually ran (an L0
// hit skips parse, a template hit skips rewrite — recording their zeros
// would fake an impossibly fast phase); the serve_* split buckets serve
// time by cache outcome so a cache regression shows up as a distribution
// shift, not just a ratio.
struct LatencyHistograms {
  obs::Histogram queue;
  obs::Histogram serve;
  obs::Histogram parse;
  obs::Histogram rewrite;
  obs::Histogram execute;
  obs::Histogram serve_l0_hit;
  obs::Histogram serve_tmpl_hit;
  obs::Histogram serve_miss;
};

// Registers every histogram's quantiles (srv.latency.<name>.{p50,p90,p99,
// max,mean,count}) plus Prometheus distributions into `registry`.
void ExportLatencyMetrics(const LatencyHistograms& latency,
                          obs::MetricsRegistry* registry);

}  // namespace eds::srv

#endif  // EDS_SRV_TELEMETRY_H_
