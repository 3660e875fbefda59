#include "srv/service.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "esql/parser.h"
#include "rules/optimizer.h"
#include "srv/fingerprint.h"
#include "term/term.h"

namespace eds::srv {

namespace {
// Flight-recorder text truncation: enough to recognize the query, bounded
// so the ring's memory stays O(capacity).
constexpr size_t kRecordTextLimit = 200;
// Minimum serve-time samples before the trailing-p99 slow threshold can
// fire; below this the p99 estimate is noise.
constexpr uint64_t kSlowP99MinSamples = 32;
}  // namespace

// All telemetry state lives behind one pointer so that telemetry=false
// costs the serve path a single null branch.
struct QueryService::TelemetryState {
  LatencyHistograms latency;
  FlightRecorder recorder;
  std::unique_ptr<SlowQueryLog> slow_log;  // null without a log path
  // Any slow threshold configured: per-query scratch tracing is on so a
  // slow query's spans can be kept retroactively.
  bool capture_slow = false;
  // Per-worker scratch sinks (index == worker id; one extra covers the
  // workers==0 test pump). Cleared before each query; a slow query's
  // contents are serialized into its QueryRecord before the clear.
  std::vector<std::unique_ptr<obs::TraceSink>> scratch;

  explicit TelemetryState(const ServiceOptions& options)
      : recorder(options.flight_recorder_capacity),
        capture_slow(options.slow_query_ns != 0 ||
                     options.slow_query_p99_multiple > 0.0) {
    if (!options.slow_query_log_path.empty()) {
      slow_log = std::make_unique<SlowQueryLog>(options.slow_query_log_path);
    }
    if (capture_slow) {
      const size_t n = std::max<size_t>(options.workers, 1);
      scratch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        scratch.push_back(std::make_unique<obs::TraceSink>());
      }
    }
  }
};

gov::GovernorLimits DeriveLimits(const gov::GovernorLimits& base,
                                 size_t queue_depth, size_t queue_capacity,
                                 double tenant_weight) {
  gov::GovernorLimits derived = base;
  derived.cancel = nullptr;  // cancellation is wired per-Submit
  if (queue_capacity == 0) return derived;
  const double weight = tenant_weight > 0.0 ? tenant_weight : 1.0;
  // A weight-w tenant experiences the queue as if it were w times larger;
  // weight 1.0 reproduces the unweighted policy exactly.
  const double load =
      std::min(1.0, static_cast<double>(queue_depth) /
                        (static_cast<double>(queue_capacity) * weight));
  const double scale = 1.0 - 0.75 * load;  // full budget idle, 25% saturated
  auto scaled = [scale](uint64_t v) -> uint64_t {
    if (v == 0) return 0;  // unlimited stays unlimited
    return std::max<uint64_t>(1, static_cast<uint64_t>(v * scale));
  };
  derived.deadline_ms = scaled(base.deadline_ms);
  derived.max_term_nodes = scaled(base.max_term_nodes);
  // max_rows deliberately unscaled; see header.
  return derived;
}

QueryService::QueryService(exec::Session* session,
                           const ServiceOptions& options)
    : session_(session),
      options_(options),
      cache_(options.cache),
      l0_(options.l0_capacity),
      telemetry_(options.telemetry ? std::make_unique<TelemetryState>(options)
                                   : nullptr) {}

QueryService::~QueryService() { Stop(); }

Status QueryService::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::RuntimeError("service already started");
    started_ = true;
    stopping_ = false;
  }
  // Build the session's optimizer (persistence warm-up re-verifies loaded
  // entries through the session) and publish the initial serving snapshot
  // workers will pin.
  EDS_RETURN_IF_ERROR(session_->optimizer().status());
  {
    std::lock_guard<std::mutex> ddl(ddl_mu_);
    EDS_RETURN_IF_ERROR(RefreshSnapshotLocked());
  }
  // Warm restart: load the persisted caches before any worker exists, so
  // the first query already sees them. A missing or corrupt file is a cold
  // start, never a Start() failure.
  if (!options_.persist_path.empty()) WarmFromDisk();
  sinks_.clear();
  for (size_t i = 0; i < options_.workers; ++i) {
    sinks_.push_back(options_.collect_traces
                         ? std::make_unique<obs::TraceSink>()
                         : nullptr);
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  if (persist_ticks() || export_ticks()) {
    background_ = std::thread([this] { BackgroundLoop(); });
  }
  return Status::OK();
}

void QueryService::Stop() {
  std::deque<Item> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    orphaned.swap(queue_);
    cv_.notify_all();
    background_cv_.notify_all();
  }
  for (Item& item : orphaned) {
    item.done(Status::RuntimeError("query service stopping"));
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (background_.joinable()) background_.join();
  // The final writes follow the drain, so they see every query served
  // before shutdown: the persist snapshot is what the next process warms
  // from, and the last metrics export comes after it so it counts that
  // save.
  if (!options_.persist_path.empty()) {
    (void)SavePersistNow();  // failures are counted, never block shutdown
  }
  if (export_ticks()) {
    (void)WriteTelemetrySnapshot(options_.telemetry_export_path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

std::future<Result<ServedQuery>> QueryService::Submit(
    std::string esql, const gov::CancelToken* cancel) {
  SubmitOptions opts;
  opts.cancel = cancel;
  return Submit(std::move(esql), opts);
}

std::future<Result<ServedQuery>> QueryService::Submit(
    std::string esql, const SubmitOptions& opts) {
  auto promise = std::make_shared<std::promise<Result<ServedQuery>>>();
  std::future<Result<ServedQuery>> future = promise->get_future();
  SubmitWithCallback(std::move(esql), opts,
                     [promise](Result<ServedQuery> served) {
                       promise->set_value(std::move(served));
                     });
  return future;
}

void QueryService::SubmitWithCallback(
    std::string esql, const SubmitOptions& opts,
    std::function<void(Result<ServedQuery>)> done) {
  // Compatibility path for direct session DDL while the service was idle:
  // republish before admitting so this query sees the new schema. A no-op
  // (two relaxed loads + a shared_ptr copy) when the epochs are clean.
  const Status refreshed = MaybeRefreshSnapshot();
  Status reject;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (!started_ || stopping_) {
      reject = Status::RuntimeError("query service is not accepting work");
    } else if (!refreshed.ok()) {
      reject = refreshed;
    } else if (queue_.size() >= options_.queue_capacity) {
      ++stats_.rejected;
      reject = Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) +
          " queued): load shed");
    } else {
      Item item;
      item.esql = std::move(esql);
      item.cancel = opts.cancel;
      item.done = std::move(done);
      item.enqueue_ns = obs::NowNs();
      double weight = options_.default_tenant_weight;
      auto it = options_.tenant_weights.find(opts.tenant);
      if (it != options_.tenant_weights.end()) weight = it->second;
      item.granted = DeriveLimits(options_.base_limits, queue_.size(),
                                  options_.queue_capacity, weight);
      item.granted.cancel = opts.cancel;
      item.snapshot = snapshots_.Current();
      item.tenant = opts.tenant;
      queue_.push_back(std::move(item));
      ++stats_.admitted;
      // Bounded per-tenant tally: tenant ids arrive from clients (HELLO),
      // so an attacker minting unique ids must not grow this map — and
      // every metrics export — without limit. Configured tenants and the
      // "" default always track; past kMaxTrackedTenants distinct ids,
      // newcomers fold into "other".
      const bool tracked =
          opts.tenant.empty() ||
          options_.tenant_weights.count(opts.tenant) > 0 ||
          stats_.tenant_admitted.count(opts.tenant) > 0 ||
          stats_.tenant_admitted.size() < kMaxTrackedTenants;
      ++stats_.tenant_admitted[tracked ? opts.tenant : "other"];
      stats_.max_queue_depth =
          std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
    }
  }
  if (!reject.ok()) {
    // Invoked outside mu_ so the callback may take its own locks.
    done(std::move(reject));
    return;
  }
  cv_.notify_one();
}

Status QueryService::MaybeRefreshSnapshot() {
  SnapshotRef cur = snapshots_.Current();
  if (cur == nullptr) return Status::OK();  // not started: Start() publishes
  if (cur->catalog_epoch == session_->catalog().epoch() &&
      cur->rules_epoch == session_->rules_epoch()) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  return RefreshSnapshotLocked();
}

Status QueryService::RefreshSnapshotLocked() {
  SnapshotRef cur = snapshots_.Current();
  if (cur != nullptr && cur->catalog_epoch == session_->catalog().epoch() &&
      cur->rules_epoch == session_->rules_epoch()) {
    return Status::OK();
  }
  EDS_ASSIGN_OR_RETURN(
      SnapshotRef snap,
      BuildSnapshot(session_->catalog(), session_->optimizer_options(),
                    session_->rules_epoch()));
  const uint64_t catalog_epoch = snap->catalog_epoch;
  const uint64_t rules_epoch = snap->rules_epoch;
  snapshots_.Publish(std::move(snap));
  // Entries keyed under the superseded epochs stopped matching the moment
  // the publish landed; sweep them now so each DDL counts one invalidation
  // per stale entry instead of leaving them to age out silently. (A query
  // still draining on its pinned old snapshot may re-insert afterwards —
  // harmless: that entry serves its fellow pinned queries and the next
  // publish sweeps it.)
  cache_.DropStale(catalog_epoch, rules_epoch);
  return Status::OK();
}

Status QueryService::ApplyDdl(const std::string& script) {
  // One DDL batch at a time; snapshot builds share the same mutex, so the
  // live catalog is never read while a statement mutates it.
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  EDS_ASSIGN_OR_RETURN(std::vector<esql::Statement> stmts,
                       esql::ParseScript(script));
  for (const esql::Statement& stmt : stmts) {
    if (stmt.kind == esql::StatementKind::kSelect) {
      return Status::InvalidArgument(
          "ApplyDdl: SELECT belongs on Submit(), not in a DDL script");
    }
  }
  for (const esql::Statement& stmt : stmts) {
    if (stmt.kind == esql::StatementKind::kInsert) {
      // Data writes mutate shared table storage, which snapshots do not
      // copy: exclude serving for this one statement. Schema/rule DDL
      // below never takes the gate — that is what keeps DDL non-blocking
      // for in-flight queries.
      std::unique_lock<std::shared_mutex> gate(serve_gate_);
      EDS_RETURN_IF_ERROR(session_->Apply(stmt));
    } else {
      EDS_RETURN_IF_ERROR(session_->Apply(stmt));
    }
  }
  // Publish the post-DDL snapshot (a no-op if the script was all INSERTs
  // and the epochs did not move). In-flight queries keep their pinned
  // snapshots; new arrivals see this one.
  EDS_RETURN_IF_ERROR(RefreshSnapshotLocked());
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.ddl_applied;
  return Status::OK();
}

void QueryService::WorkerLoop(size_t worker_id) {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    ServeItem(std::move(item), worker_id);
  }
}

bool QueryService::ServeQueuedForTesting() {
  Item item;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    item = std::move(queue_.front());
    queue_.pop_front();
  }
  ServeItem(std::move(item), 0);
  return true;
}

void QueryService::ServeItem(Item item, size_t worker_id) {
  const uint64_t dequeue_ns = obs::NowNs();
  obs::TraceSink* worker_sink =
      worker_id < sinks_.size() ? sinks_[worker_id].get() : nullptr;
  // With slow-query capture on, the query's spans go to a per-worker
  // scratch sink so they can be kept retroactively if it turns out slow;
  // otherwise straight to the long-lived worker sink (or nowhere).
  obs::TraceSink* scratch = nullptr;
  if (telemetry_ != nullptr && telemetry_->capture_slow &&
      worker_id < telemetry_->scratch.size()) {
    scratch = telemetry_->scratch[worker_id].get();
    scratch->Clear();
  }
  obs::TraceSink* sink = scratch != nullptr ? scratch : worker_sink;
  Result<ServedQuery> served = [&]() -> Result<ServedQuery> {
    if (item.snapshot == nullptr) {
      return Status::Internal("no serving snapshot pinned (service bug)");
    }
    // Shared hold for the whole serve: only ApplyDdl's INSERT application
    // takes this exclusively. Schema/rule DDL republishes the snapshot
    // without touching the gate, so it never waits on us.
    std::shared_lock<std::shared_mutex> gate(serve_gate_);
    return ServeNow(item.esql, *item.snapshot, item.granted, item.cancel,
                    sink, worker_id);
  }();
  const uint64_t serve_ns = obs::NowNs() - dequeue_ns;
  const uint64_t queue_ns = dequeue_ns - item.enqueue_ns;
  if (served.ok()) {
    served->queue_ns = queue_ns;
    served->serve_ns = serve_ns;
    served->granted = item.granted;
    served->worker_id = worker_id;
    served->tenant = item.tenant;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (served.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
  }
  if (telemetry_ != nullptr) {
    RecordTelemetry(item.esql, served, item.granted, queue_ns, serve_ns,
                    worker_id, scratch);
    // Scratch traces detoured around the worker sink; fold them back in so
    // collect_traces sees the same merged timeline either way.
    if (scratch != nullptr && worker_sink != nullptr) {
      worker_sink->AppendFrom(*scratch);
    }
  }
  item.done(std::move(served));
}

void QueryService::RecordTelemetry(const std::string& esql,
                                   const Result<ServedQuery>& served,
                                   const gov::GovernorLimits& granted,
                                   uint64_t queue_ns, uint64_t serve_ns,
                                   size_t worker_id,
                                   const obs::TraceSink* scratch) {
  TelemetryState& tel = *telemetry_;

  QueryRecord rec;
  rec.text = esql.substr(0, kRecordTextLimit);
  rec.queue_ns = queue_ns;
  rec.serve_ns = serve_ns;
  rec.worker_id = worker_id;
  rec.base = options_.base_limits;
  rec.base.cancel = nullptr;
  rec.granted = granted;
  rec.granted.cancel = nullptr;
  if (served.ok()) {
    const ServedQuery& q = *served;
    rec.template_hash = q.template_hash;
    rec.phases = q.result.phase_times;
    rec.l0_hit = q.l0_hit;
    rec.cache_hit = q.cache_hit;
    rec.cache_stored = q.cache_stored;
    rec.cache_bypass = q.cache_bypass;
    rec.rows = q.result.rows.size();
    if (q.result.rewrite_trip.tripped()) {
      rec.trip = q.result.rewrite_trip.ToString();
    }
  } else {
    rec.ok = false;
    rec.error = served.status().ToString();
  }

  // Slow decision first, against the p99 of *prior* queries: recording the
  // current sample before snapshotting would let an extreme outlier raise
  // the very threshold it is judged by.
  bool slow = options_.slow_query_ns != 0 && serve_ns >= options_.slow_query_ns;
  if (!slow && options_.slow_query_p99_multiple > 0.0) {
    const obs::HistogramSnapshot prior = tel.latency.serve.Snapshot();
    if (prior.count >= kSlowP99MinSamples) {
      const double threshold =
          options_.slow_query_p99_multiple *
          static_cast<double>(prior.ValueAtQuantile(0.99));
      slow = static_cast<double>(serve_ns) >= threshold;
    }
  }
  rec.slow = slow;
  if (slow && scratch != nullptr) {
    rec.trace_json = scratch->ToChromeTraceJson();
  }

  tel.latency.queue.Record(queue_ns);
  tel.latency.serve.Record(serve_ns);
  if (rec.ok) {
    // Phase histograms record only phases that actually ran: an L0 hit
    // skips parse, a template hit skips rewrite, and folding their zeros
    // in would fake an impossibly fast phase.
    if (!rec.l0_hit) {
      tel.latency.parse.Record(rec.phases.parse_ns);
      if (options_.rewrite && !rec.cache_hit) {
        tel.latency.rewrite.Record(rec.phases.rewrite_ns);
      }
    }
    tel.latency.execute.Record(rec.phases.exec_ns);
    if (rec.l0_hit) {
      tel.latency.serve_l0_hit.Record(serve_ns);
    } else if (rec.cache_hit) {
      tel.latency.serve_tmpl_hit.Record(serve_ns);
    } else {
      tel.latency.serve_miss.Record(serve_ns);
    }
  }

  const bool log_slow = slow && tel.slow_log != nullptr;
  QueryRecord for_log;
  if (log_slow) for_log = rec;
  const uint64_t seq = tel.recorder.Add(std::move(rec));
  if (log_slow) {
    for_log.seq = seq;
    (void)tel.slow_log->Append(for_log);  // sink errors must not fail serving
  }
}

Result<ServedQuery> QueryService::ServeNow(const std::string& esql,
                                           const ServingSnapshot& snap,
                                           const gov::GovernorLimits& granted,
                                           const gov::CancelToken* cancel,
                                           obs::TraceSink* sink,
                                           size_t worker_id) {
  ServedQuery served;
  served.catalog_epoch = snap.catalog_epoch;
  served.rules_epoch = snap.rules_epoch;
  exec::QueryResult& result = served.result;
  const uint64_t q0 = obs::NowNs();
  obs::Span query_span(sink, "srv.query", "session");
  if (sink != nullptr) {
    query_span.Arg("esql", std::string(esql.substr(0, 120)));
    query_span.Arg("worker", static_cast<int64_t>(worker_id));
  }

  // Fail fast on work that was cancelled while it sat in the queue.
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::ResourceExhausted(
        "query governor: cancelled: cancelled while queued");
  }

  // Deterministic latency injection (tests/demos): see ServiceOptions.
  if (options_.test_delay_ns != 0 && !options_.test_delay_marker.empty() &&
      esql.find(options_.test_delay_marker) != std::string::npos) {
    obs::Span delay_span(sink, "srv.injected_delay", "srv");
    if (sink != nullptr) {
      delay_span.Arg("delay_ns", options_.test_delay_ns);
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(options_.test_delay_ns));
  }

  gov::QueryGuard guard;
  if (granted.any()) guard.Arm(granted);
  exec::FinishOptions finish;
  finish.catalog = snap.catalog.get();
  finish.db = &session_->db();
  finish.exec_options = options_.exec_options;
  finish.exec_options.trace_sink = sink;
  finish.limits = granted;
  finish.guard = granted.any() ? &guard : nullptr;
  finish.max_applications = options_.rewrite_options.max_applications;
  finish.start_ns = q0;

  // Level 0: exact-text lookup before the parser runs. A hit replays the
  // fully instantiated plan and its columns — parse, translate, rewrite
  // and schema inference are all skipped (their phase times stay 0) and
  // the query goes straight to governed execution.
  const bool use_l0 = options_.l0_capacity != 0;
  std::string l0_key;
  std::optional<L0Cache::Entry> hit;
  if (use_l0) {
    l0_key = NormalizeQueryText(esql);
    hit = l0_.Lookup(l0_key, snap.catalog_epoch, snap.rules_epoch);
  }
  term::TermRef plan;
  if (hit.has_value()) {
    served.l0_hit = true;
    result.raw_plan = hit->raw_plan;
    result.columns = hit->columns;
    finish.infer_schema = false;
    plan = hit->plan;
  } else {
    EDS_ASSIGN_OR_RETURN(plan,
                         PlanQuery(esql, snap, finish.guard, sink, &served));
  }
  Status finished;
  {
    obs::Span replay_span(served.l0_hit ? sink : nullptr, "srv.l0.replay",
                          "srv");
    finished = exec::FinishQuery(plan, finish, &result);
  }

  // Populate L0 once the columns are known (an execution failure does not
  // make the plan wrong), and only with full-fidelity plans: a
  // governor-degraded or safety-stopped rewrite is correct but
  // under-optimized, and an L0 hit would replay it verbatim forever.
  if (use_l0 && !served.l0_hit && !result.columns.empty() &&
      !result.rewrite_stats.trip.tripped() &&
      !result.rewrite_stats.safety_stop) {
    l0_.Insert(l0_key, {result.raw_plan, plan, result.columns,
                        snap.catalog_epoch, snap.rules_epoch});
  }
  EDS_RETURN_IF_ERROR(finished);
  return served;
}

Result<term::TermRef> QueryService::PlanQuery(const std::string& esql,
                                              const ServingSnapshot& snap,
                                              gov::QueryGuard* guard,
                                              obs::TraceSink* sink,
                                              ServedQuery* served) {
  exec::QueryResult& result = served->result;
  // Against the snapshot's catalog, and never the session's trace sink.
  EDS_ASSIGN_OR_RETURN(term::TermRef raw,
                       exec::TranslateSelect(esql, snap.catalog.get(), sink,
                                             &result.phase_times));
  result.raw_plan = raw;
  if (!options_.rewrite) return raw;

  // Fingerprint, then hit->replay / miss->rewrite+insert.
  uint64_t rw0 = obs::NowNs();
  Fingerprint fp;
  {
    obs::Span span(sink, "srv.fingerprint", "srv");
    fp = FingerprintPlan(raw);
  }
  if (telemetry_ != nullptr) {
    served->template_hash = term::Hash(fp.tmpl);
  }
  PlanCache::Key key{fp.tmpl, snap.catalog_epoch, snap.rules_epoch};
  std::optional<term::TermRef> cached = cache_.Lookup(key);
  if (cached.has_value()) {
    obs::Span span(sink, "srv.cache.replay", "srv");
    Result<term::TermRef> replayed = InstantiatePlan(*cached, fp.params);
    if (replayed.ok()) {
      served->cache_hit = true;
      return *replayed;  // rewrite_ns stays 0: the rewrite phase never ran
    }
    // A malformed entry falls through to the miss path below.
  }
  rewrite::RewriteOptions rw = options_.rewrite_options;
  rw.trace_sink = sink;
  if (rw.guard == nullptr) rw.guard = guard;
  obs::Span span(sink, "phase.rewrite", "phase");
  // Rewrite the *template*: parameter variables are opaque to every
  // value-inspecting rule method, so the normal form is valid for any
  // literal instantiation (srv/fingerprint.h).
  EDS_ASSIGN_OR_RETURN(rewrite::RewriteOutcome outcome,
                       snap.optimizer->Rewrite(fp.tmpl, rw));
  result.rewrite_stats = outcome.stats;
  Result<term::TermRef> plan = InstantiatePlan(outcome.term, fp.params);
  if (!plan.ok()) {
    // A template normal form that cannot be re-instantiated (a rule moved
    // a parameter into a context substitution rejects) is uncacheable:
    // degrade to a plain rewrite of the raw plan.
    served->cache_bypass = true;
    EDS_ASSIGN_OR_RETURN(rewrite::RewriteOutcome direct,
                         snap.optimizer->Rewrite(raw, rw));
    result.rewrite_stats = direct.stats;
    plan = direct.term;
  } else if (!outcome.stats.trip.tripped() && !outcome.stats.safety_stop) {
    // The entry carries what this rewrite cost and the literals it ran
    // under: persistence ranks hotness by hits and re-verifies loaded
    // entries by re-executing with these sample literals.
    cache_.Insert(key, outcome.term, obs::NowNs() - rw0, fp.params);
    served->cache_stored = true;
  } else {
    // Degraded rewrites (governor trip / safety valve) are correct but
    // under-optimized — never cache them, so a future uncontended run
    // gets the chance to do better.
    served->cache_bypass = true;
  }
  result.phase_times.rewrite_ns = obs::NowNs() - rw0;
  return plan;
}

ServiceStats QueryService::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<const obs::TraceSink*> QueryService::worker_sinks() const {
  std::vector<const obs::TraceSink*> out;
  out.reserve(sinks_.size());
  for (const auto& sink : sinks_) out.push_back(sink.get());
  return out;
}

void QueryService::WriteMergedTrace(std::ostream& os) const {
  std::vector<obs::SinkWithTid> sinks;
  for (size_t i = 0; i < sinks_.size(); ++i) {
    if (sinks_[i] != nullptr) {
      sinks.push_back({sinks_[i].get(), static_cast<int>(i) + 2});
    }
  }
  obs::WriteMergedChromeTrace(os, sinks);
}

std::vector<QueryRecord> QueryService::RecentQueries(size_t limit) const {
  if (telemetry_ == nullptr) return {};
  return telemetry_->recorder.Recent(limit);
}

std::vector<QueryRecord> QueryService::SlowestQueries(size_t limit) const {
  if (telemetry_ == nullptr) return {};
  return telemetry_->recorder.Slowest(limit);
}

uint64_t QueryService::slow_queries_logged() const {
  if (telemetry_ == nullptr || telemetry_->slow_log == nullptr) return 0;
  return telemetry_->slow_log->appended();
}

void QueryService::ExportMetrics(obs::MetricsRegistry* registry) const {
  ExportServiceStats(GetStats(), registry);
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry->Gauge("srv.queue_depth", static_cast<double>(queue_.size()));
  }
  registry->Counter("srv.snapshot.publishes", snapshot_publishes());
  ExportCacheStats(cache_.GetStats(), registry);
  ExportL0Stats(l0_.GetStats(), registry);
  obs::ExportGovStats(gov::CumulativeTripCounters(), registry);
  if (telemetry_ != nullptr) {
    ExportLatencyMetrics(telemetry_->latency, registry);
    registry->Counter("srv.flight_recorder.total",
                      telemetry_->recorder.total_added());
    registry->Counter("srv.slow_queries.logged", slow_queries_logged());
  }
  if (!options_.persist_path.empty()) {
    std::lock_guard<std::mutex> lock(persist_stats_mu_);
    registry->Counter("persist.load.ok", persist_load_stats_.ok);
    registry->Counter("persist.load.skipped", persist_load_stats_.skipped);
    registry->Counter("persist.load.stale", persist_load_stats_.stale);
    registry->Counter("persist.load.rejected", persist_load_stats_.rejected);
    registry->Counter("persist.load.unverified",
                      persist_load_stats_.unverified);
    registry->Counter("persist.save.plans", persist_save_stats_.plans);
    registry->Counter("persist.save.l0", persist_save_stats_.l0);
    registry->Counter("persist.save.skipped", persist_save_stats_.skipped);
    registry->Counter("persist.save.stale", persist_save_stats_.stale);
    registry->Counter("persist.save.bytes", persist_save_stats_.bytes);
    registry->Counter("persist.save.count", persist_saves_);
    registry->Counter("persist.save.failures", persist_save_failures_);
  }
}

Status QueryService::WriteTelemetrySnapshot(const std::string& path) const {
  obs::MetricsRegistry registry;
  ExportMetrics(&registry);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::RuntimeError("cannot open telemetry export " + path);
  }
  out << registry.ToPrometheus();
  out.flush();
  if (!out) {
    return Status::RuntimeError("telemetry export write failed: " + path);
  }
  return Status::OK();
}

void QueryService::WarmFromDisk() {
  LoadStats stats;
  Result<CacheImage> image =
      LoadPersistFile(options_.persist_path, options_.persist, &stats);
  if (image.ok()) {
    WarmServiceCaches(*image, session_, &cache_, &l0_,
                      session_->catalog().epoch(), session_->rules_epoch(),
                      options_.persist, &stats);
  }
  std::lock_guard<std::mutex> lock(persist_stats_mu_);
  persist_load_stats_ = stats;
}

Status QueryService::SavePersistNow() {
  if (options_.persist_path.empty()) {
    return Status::InvalidArgument(
        "persistence is not configured (persist_path is empty)");
  }
  FileHeader header;
  // Stamp the file with the serving snapshot's epochs: cache contents are
  // keyed by what serving pinned, which during a concurrent DDL batch can
  // trail the session's live counters.
  SnapshotRef snap = snapshots_.Current();
  header.catalog_epoch =
      snap != nullptr ? snap->catalog_epoch : session_->catalog().epoch();
  header.rules_epoch =
      snap != nullptr ? snap->rules_epoch : session_->rules_epoch();
  SaveStats stats;
  Status saved;
  {
    // One write at a time: the periodic tick, an operator-forced save, and
    // the final Stop() write must not interleave their tmp files.
    std::lock_guard<std::mutex> io(persist_io_mu_);
    saved = SavePersistFile(options_.persist_path, cache_, l0_, header,
                            options_.persist, &stats);
  }
  std::lock_guard<std::mutex> lock(persist_stats_mu_);
  if (saved.ok()) {
    persist_save_stats_.plans += stats.plans;
    persist_save_stats_.l0 += stats.l0;
    persist_save_stats_.skipped += stats.skipped;
    persist_save_stats_.stale += stats.stale;
    persist_save_stats_.bytes = stats.bytes;  // size of the latest file
    ++persist_saves_;
  } else {
    ++persist_save_failures_;
  }
  return saved;
}

LoadStats QueryService::persist_load_stats() const {
  std::lock_guard<std::mutex> lock(persist_stats_mu_);
  return persist_load_stats_;
}

SaveStats QueryService::persist_save_stats() const {
  std::lock_guard<std::mutex> lock(persist_stats_mu_);
  return persist_save_stats_;
}

void QueryService::BackgroundLoop() {
  using Clock = std::chrono::steady_clock;
  auto after = [](uint64_t interval_ms) {
    return Clock::now() +
           std::chrono::milliseconds(std::max<uint64_t>(1, interval_ms));
  };
  // A tick that is off is due never.
  Clock::time_point next_persist = persist_ticks()
                                       ? after(options_.persist_interval_ms)
                                       : Clock::time_point::max();
  Clock::time_point next_export =
      export_ticks() ? after(options_.telemetry_export_interval_ms)
                     : Clock::time_point::max();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Stop() does the final writes itself, after the drain.
    if (background_cv_.wait_until(lock, std::min(next_persist, next_export),
                                  [this] { return stopping_; })) {
      return;
    }
    // The work runs outside mu_: the metrics export takes it again, and
    // file I/O must never hold up admission or Stop().
    lock.unlock();
    if (Clock::now() >= next_persist) {
      (void)SavePersistNow();
      next_persist = after(options_.persist_interval_ms);
    }
    if (Clock::now() >= next_export) {
      (void)WriteTelemetrySnapshot(options_.telemetry_export_path);
      next_export = after(options_.telemetry_export_interval_ms);
    }
    lock.lock();
  }
}

void ExportCacheStats(const PlanCache::Stats& stats,
                      obs::MetricsRegistry* registry) {
  registry->Counter("cache.hits", stats.hits);
  registry->Counter("cache.misses", stats.misses);
  registry->Counter("cache.inserts", stats.inserts);
  registry->Counter("cache.evictions", stats.evictions);
  registry->Counter("cache.insert_failures", stats.insert_failures);
  registry->Counter("cache.invalidations", stats.invalidations);
  registry->Counter("cache.entries", stats.entries);
  registry->Counter("cache.nodes", stats.nodes);
}

void ExportServiceStats(const ServiceStats& stats,
                        obs::MetricsRegistry* registry) {
  registry->Counter("srv.submitted", stats.submitted);
  registry->Counter("srv.admitted", stats.admitted);
  registry->Counter("srv.rejected", stats.rejected);
  registry->Counter("srv.completed", stats.completed);
  registry->Counter("srv.failed", stats.failed);
  registry->Counter("srv.max_queue_depth", stats.max_queue_depth);
  registry->Counter("srv.ddl.applied", stats.ddl_applied);
  for (const auto& [tenant, admitted] : stats.tenant_admitted) {
    // Family documented as srv.tenant.admitted.<tenant> in
    // docs/observability.md; built away from the Counter call because the
    // metric-doc checker only scans literal names.
    std::string name = "srv.tenant.admitted.";
    name += tenant.empty() ? "default" : tenant;
    registry->Counter(name, admitted);
  }
}

}  // namespace eds::srv
