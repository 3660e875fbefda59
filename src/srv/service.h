#ifndef EDS_SRV_SERVICE_H_
#define EDS_SRV_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/session.h"
#include "gov/governor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "srv/l0_cache.h"
#include "srv/persist.h"
#include "srv/plan_cache.h"
#include "srv/snapshot.h"
#include "srv/telemetry.h"

namespace eds::srv {

// The serving layer: a multi-threaded, in-process query service over one
// Session. Clients Submit() ESQL SELECTs and get a future; a bounded
// admission queue sheds load when full; a worker pool drains the queue,
// each admitted query running under a QueryGuard whose budgets are derived
// from the service's base limits scaled by the load observed at admission;
// and a rewritten-plan cache (srv/plan_cache.h) in front of the workers
// lets structurally repeated queries skip the rewrite phase entirely.
// docs/server.md covers the architecture and policies.
//
// Concurrency contract: workers never read the live session catalog or
// optimizer — every admitted query pins the immutable ServingSnapshot
// (srv/snapshot.h) current at admission and serves entirely from it, so
// schema/rule DDL issued through ApplyDdl() while queries are in flight
// never blocks them: they drain on the old snapshot while new arrivals see
// the newly published one, and both plan-cache tiers key on the snapshot's
// epochs so invalidation follows publication. Data writes (INSERT) do
// stop the world briefly — ApplyDdl takes the serve gate exclusively for
// them, because table contents are shared, not snapshotted. Direct session
// mutation (ExecuteScript/AddConstraint on the wrapped session) remains
// legal only while no query is in flight; the next Submit() notices the
// epoch change and republishes. The service never touches the session's
// trace sink; per-worker sinks keep tracing safe under the pool
// (worker_sinks()).

// Serving metadata carried alongside the ordinary QueryResult.
struct ServedQuery {
  exec::QueryResult result;
  bool l0_hit = false;        // exact-text hit: parse through schema skipped
  bool cache_hit = false;     // rewrite phase skipped via the plan cache
  bool cache_stored = false;  // this query populated the cache
  bool cache_bypass = false;  // rewriter off / degraded rewrite: not cached
  uint64_t queue_ns = 0;      // admission -> dequeue wait
  uint64_t serve_ns = 0;      // dequeue -> completion
  gov::GovernorLimits granted;  // derived budget the query ran under
  size_t worker_id = 0;       // 0-based worker that served it
  // Structural hash of the fingerprint template (0 on the L0/uncached
  // paths, where no fingerprint is computed): the workload key the flight
  // recorder groups repeated query shapes by.
  uint64_t template_hash = 0;
  // Epochs of the serving snapshot this query was pinned to at admission;
  // the wire protocol reports them so clients (and the DDL-under-load
  // tests) can tell which schema/rule generation served them.
  uint64_t catalog_epoch = 0;
  uint64_t rules_epoch = 0;
  std::string tenant;  // tenant id carried on Submit ("" = default)
};

// Distinct tenant ids ServiceStats::tenant_admitted tracks individually
// before newcomers fold into the shared "other" bucket. Tenants with a
// configured weight (and the "" default) always get their own entry; the
// bound keeps client-supplied ids from growing the map — and every
// metrics export — without limit.
inline constexpr size_t kMaxTrackedTenants = 64;

// Cumulative service tallies, exported as srv.* metrics.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;   // load-shed at admission (queue full)
  uint64_t completed = 0;  // served with an OK result
  uint64_t failed = 0;     // served with an error (incl. governor trips)
  uint64_t max_queue_depth = 0;
  uint64_t ddl_applied = 0;  // successful ApplyDdl() calls
  // Admissions per tenant id ("" shows as "default" in metrics). Bounded:
  // past kMaxTrackedTenants distinct ids, unconfigured newcomers are
  // counted under "other".
  std::map<std::string, uint64_t> tenant_admitted;
};

struct ServiceOptions {
  // Worker threads; 0 means no threads are spawned and the owner pumps
  // queries with ServeQueuedForTesting() (deterministic admission tests).
  size_t workers = 4;
  // Bounded admission queue; a Submit() finding it full is rejected
  // immediately with ResourceExhausted ("load shed").
  size_t queue_capacity = 64;
  // Per-query budget template. Admission derives each query's actual
  // GovernorLimits from this via DeriveLimits(); zero fields stay
  // unlimited. The cancel field is ignored (cancellation is per-Submit).
  gov::GovernorLimits base_limits;
  // Per-tenant admission weights (satellite of the snapshot-server PR): a
  // tenant with weight w sees the queue as if it were w times larger, so
  // under pressure a weight-2 tenant keeps roughly twice the budget share
  // of a weight-1 tenant before both bottom out at 25%. Unknown tenants
  // (and the "" default tenant) weigh 1.0, which reproduces the unweighted
  // policy bit-for-bit.
  std::map<std::string, double> tenant_weights;
  // Rewritten-plan cache (srv/plan_cache.h).
  PlanCache::Config cache;
  // Level-0 exact-text cache in front of the parser (srv/l0_cache.h);
  // 0 disables it, serving every query through the full front half.
  size_t l0_capacity = 256;
  // When true each worker keeps every query's spans in its own TraceSink
  // (worker_sinks(); obs::WriteMergedChromeTrace merges them by timestamp
  // into one Chrome trace).
  bool collect_traces = false;
  // Applied to every served query's rewrite phase (trace/profile knobs are
  // overridden per worker; the guard field is owned by the service).
  rewrite::RewriteOptions rewrite_options;
  exec::ExecOptions exec_options;
  bool rewrite = true;  // run the rewriter at all (false: raw plans)

  // --- Serving telemetry (srv/telemetry.h; always on) ---
  // Slow-query thresholds; a query is "slow" when either fires. The
  // absolute one is in nanoseconds of serve time; the relative one marks
  // queries slower than `multiple` times the trailing p99 of serve time
  // (only once >= 32 samples exist, so a cold start can't flag everything).
  // 0 disables each. Slow queries get their span trace captured
  // retroactively (from their worker's sink, which either threshold arms)
  // and attached to their QueryRecord.
  uint64_t slow_query_ns = 0;
  double slow_query_p99_multiple = 0.0;
  // When set, every slow query is also appended to this JSONL file (one
  // QueryRecordToJson line per query, trace included).
  std::string slow_query_log_path;
  // When set, the background thread writes a Prometheus text-format
  // metrics snapshot (ExportMetrics + MetricsRegistry::ToPrometheus) to
  // this path every interval, and once more at Stop(), after the final
  // persist save.
  std::string telemetry_export_path;
  uint64_t telemetry_export_interval_ms = 1000;
  // Deterministic latency injection for tests and demos: a query whose
  // text contains the marker sleeps test_delay_ns (cut short if the query
  // is cancelled) inside a traced "srv.injected_delay" span before serving
  // begins. The serving analog of the gov fail points (which can only
  // inject errors, not latency).
  std::string test_delay_marker;
  uint64_t test_delay_ns = 0;

  // --- Plan-cache persistence (srv/persist.h) ---
  // When set, Start() warms both caches from this file (a missing file is
  // a cold start, not an error) and Stop() snapshots the hot entries back
  // to it; see docs/persistence.md. Empty disables persistence.
  std::string persist_path;
  // Background snapshot cadence between Start and Stop; 0 means only the
  // final write at Stop(). Snapshots run on the background thread, never
  // on the serve path.
  uint64_t persist_interval_ms = 0;
  // The hottest-k cut per cache (top_k), paranoia caps and optional
  // load-time differential re-verification (PersistOptions::verify_load).
  PersistOptions persist;
};

// Admission policy: scales the base deadline and term-node budgets by the
// queue depth observed at admission — full budget when idle, shrinking
// linearly to 25% when the queue is full — so background pressure tightens
// every query's leash instead of letting tail queries starve. The row
// ceiling is NOT scaled (it bounds result size, a correctness-adjacent
// limit, not a load knob). `tenant_weight` divides the observed load: a
// weight-w tenant experiences depth/w, so heavier tenants keep more budget
// under the same pressure (weight 1.0 = the unweighted policy; weights
// <= 0 are treated as 1.0). Exposed for tests and docs.
gov::GovernorLimits DeriveLimits(const gov::GovernorLimits& base,
                                 size_t queue_depth, size_t queue_capacity,
                                 double tenant_weight = 1.0);

// Per-submit parameters beyond the query text.
struct SubmitOptions {
  // Cooperative cancellation; when set it must outlive the query's
  // completion. Cancels at the governor's chokepoints.
  const gov::CancelToken* cancel = nullptr;
  // Tenant id for weighted admission ("" = default tenant). Carried on the
  // wire by HELLO and surfaced in ServedQuery::tenant.
  std::string tenant;
};

class QueryService {
 public:
  // `session` must outlive the service. The service does not own it.
  QueryService(exec::Session* session, const ServiceOptions& options);
  ~QueryService();  // Stop()s if still running

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Prebuilds the session's optimizer, publishes the initial serving
  // snapshot, and spawns the worker pool. Must be called before Submit().
  Status Start();

  // Stops admission, drains queued work to promises with RuntimeError,
  // finishes in-flight queries, and joins the workers. Idempotent.
  void Stop();

  // Submits one SELECT. Returns a future resolving to the served result or
  // an error (parse errors, execution errors, governor trips, load-shed
  // rejections, shutdown). See SubmitOptions for cancellation and tenant.
  std::future<Result<ServedQuery>> Submit(std::string esql,
                                          const SubmitOptions& opts = {});

  // Callback flavor of Submit for callers that must not park a thread per
  // query (the network server's response writers). `done` is invoked
  // exactly once — from a worker thread normally, or inline from this call
  // on rejection (shed/not-started) — and must not re-enter the service.
  void SubmitWithCallback(std::string esql, const SubmitOptions& opts,
                          std::function<void(Result<ServedQuery>)> done);

  // Applies a DDL/INSERT script against the wrapped session and publishes
  // a fresh serving snapshot, all without blocking in-flight queries
  // (INSERT excepted: data writes take the serve gate exclusively, since
  // table contents are shared rather than snapshotted). Serialized against
  // concurrent ApplyDdl calls; SELECTs in the script are rejected. Safe to
  // call while N clients are submitting — this is the "DDL under load"
  // entry point the wire protocol's EXEC message lands on.
  Status ApplyDdl(const std::string& script);

  // The snapshot new arrivals are currently pinned to (null before
  // Start()). Exposed for tests and the shell.
  SnapshotRef current_snapshot() const { return snapshots_.Current(); }

  // Snapshot publications since construction (>= 1 once Start() ran).
  uint64_t snapshot_publishes() const { return snapshots_.publish_count(); }

  // Serves one queued query on the calling thread (workers == 0 test
  // pump). Returns false when the queue is empty.
  bool ServeQueuedForTesting();

  ServiceStats GetStats() const;
  PlanCache& cache() { return cache_; }
  const PlanCache& cache() const { return cache_; }
  L0Cache& l0_cache() { return l0_; }
  const L0Cache& l0_cache() const { return l0_; }
  const ServiceOptions& options() const { return options_; }

  // Per-worker sinks (empty unless collect_traces or a slow threshold is
  // set; emptied after each query without collect_traces), for merging
  // with a session-level sink through obs::WriteMergedChromeTrace; index ==
  // worker id (by convention tid = worker id + 2, tid 1 being the
  // submitting thread).
  std::vector<const obs::TraceSink*> worker_sinks() const;

  // Flight recorder queries. Recent() is newest first; Slowest() ranks the
  // retained window by serve time.
  std::vector<QueryRecord> RecentQueries(size_t limit = 0) const;
  std::vector<QueryRecord> SlowestQueries(size_t limit) const;
  // Lines appended to the slow-query log so far (0 without a log path).
  uint64_t slow_queries_logged() const;

  // One-stop metrics export: srv.* service tallies, srv.queue_depth (the
  // current queue depth, a gauge), cache.* plan-cache stats, srv.l0.*
  // exact-text stats, gov.* trip counters, and the srv.latency.*
  // histograms (quantile gauges + Prometheus distributions).
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  // Renders ExportMetrics() as Prometheus text exposition into `path`
  // (truncating). The telemetry_export_path background tick calls this.
  Status WriteTelemetrySnapshot(const std::string& path) const;

  // Snapshots both caches to options.persist_path right now (crash-atomic;
  // see srv/persist.h). The periodic persist tick and Stop() call this;
  // exposed so operators (eds_shell \persist) can force a write. Error
  // when persistence is not configured or the write fails.
  Status SavePersistNow();

  // Cumulative persistence tallies (what ExportMetrics reports as
  // persist.*): load stats from the Start() warm-up, save stats summed
  // over every snapshot written so far.
  LoadStats persist_load_stats() const;
  SaveStats persist_save_stats() const;

 private:
  struct Item {
    std::string esql;
    const gov::CancelToken* cancel = nullptr;
    // Completion callback (a promise-filling lambda for the future flavor).
    std::function<void(Result<ServedQuery>)> done;
    uint64_t enqueue_ns = 0;
    gov::GovernorLimits granted;
    SnapshotRef snapshot;  // pinned at admission; serves entirely from it
    std::string tenant;
  };

  void WorkerLoop(size_t worker_id);
  void ServeItem(Item item, size_t worker_id);
  // Builds the QueryRecord for one served (or failed) query, records the
  // latency histograms, applies the slow-query policy (attach `sink`'s
  // events from `first_event` on + log append), and adds the record to
  // the flight recorder.
  void RecordTelemetry(const std::string& esql,
                       const Result<ServedQuery>& served,
                       const gov::GovernorLimits& granted, uint64_t queue_ns,
                       uint64_t serve_ns, size_t worker_id,
                       const obs::TraceSink* sink, size_t first_event);
  // Whether the background thread has periodic persist saves / metrics
  // exports to run.
  bool persist_ticks() const {
    return !options_.persist_path.empty() && options_.persist_interval_ms != 0;
  }
  bool export_ticks() const { return !options_.telemetry_export_path.empty(); }
  // The background thread: runs each periodic tick when it falls due,
  // until Stop() sets stopping_.
  void BackgroundLoop();
  // Warms the caches from options.persist_path at Start(); a missing or
  // header-corrupt file is a counted cold start, never a Start() failure.
  void WarmFromDisk();
  // The cached pipeline: L0 lookup, else PlanQuery; then the shared tail
  // (exec::FinishQuery: schema -> execute). Reads schema and rule state
  // only from `snap`.
  Result<ServedQuery> ServeNow(const std::string& esql,
                               const ServingSnapshot& snap,
                               const gov::GovernorLimits& granted,
                               const gov::CancelToken* cancel,
                               obs::TraceSink* sink, size_t worker_id);
  // The front half behind an L0 miss: parse -> translate -> fingerprint ->
  // cache lookup or template rewrite + insert. Returns the plan to run.
  Result<term::TermRef> PlanQuery(const std::string& esql,
                                  const ServingSnapshot& snap,
                                  gov::QueryGuard* guard, obs::TraceSink* sink,
                                  ServedQuery* served);
  // Rebuilds + publishes the snapshot if the session's epochs moved (the
  // direct-session-DDL-while-idle compatibility path). Cheap no-op when
  // clean: two relaxed loads + one shared_ptr copy.
  Status MaybeRefreshSnapshot();
  // As above but assumes ddl_mu_ is held; always rebuilds when epochs
  // differ from the current snapshot.
  Status RefreshSnapshotLocked();

  exec::Session* session_;
  ServiceOptions options_;
  PlanCache cache_;
  L0Cache l0_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool started_ = false;
  bool stopping_ = false;
  ServiceStats stats_;

  // Snapshot machinery. ddl_mu_ serializes snapshot builds and session
  // mutation (ApplyDdl vs the MaybeRefreshSnapshot compatibility path);
  // serve_gate_ is held shared by every serving worker and exclusively by
  // ApplyDdl's INSERT application only — schema/rule DDL never takes it
  // exclusively, which is precisely what keeps DDL non-blocking.
  SnapshotPublisher snapshots_;
  std::mutex ddl_mu_;
  std::shared_mutex serve_gate_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<obs::TraceSink>> sinks_;  // per worker

  LatencyHistograms latency_;
  FlightRecorder recorder_;
  std::unique_ptr<SlowQueryLog> slow_log_;  // null without a log path

  // persist_io_mu_ serializes actual file writes (periodic tick vs an
  // explicit SavePersistNow vs the final Stop() write); persist_stats_mu_
  // guards the cumulative tallies.
  std::mutex persist_io_mu_;
  mutable std::mutex persist_stats_mu_;
  LoadStats persist_load_stats_;
  SaveStats persist_save_stats_;
  uint64_t persist_saves_ = 0;          // successful snapshot writes
  uint64_t persist_save_failures_ = 0;  // failed snapshot writes

  // The one background thread (persist saves and metrics exports). It
  // waits under mu_ for stopping_ but on its own cv: sharing cv_ would let
  // it consume a notify_one meant for a worker and stall a queued query.
  std::condition_variable background_cv_;
  std::thread background_;
};

// Metrics importers, mirroring the obs:: exporters: cache.* and srv.*.
void ExportCacheStats(const PlanCache::Stats& stats,
                      obs::MetricsRegistry* registry);
void ExportServiceStats(const ServiceStats& stats,
                        obs::MetricsRegistry* registry);

}  // namespace eds::srv

#endif  // EDS_SRV_SERVICE_H_
