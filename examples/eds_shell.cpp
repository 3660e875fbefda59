// An interactive ESQL shell over the library: type DDL / INSERT / SELECT
// statements terminated by ';', inspect plans and rewrite traces.
//
//   $ ./build/examples/eds_shell            # interactive
//   $ ./build/examples/eds_shell script.sql # run a script, then interact
//   $ ./build/examples/eds_shell --trace-out=t.json script.sql
//       # record phase/rule/operator spans; open t.json in Perfetto
//
// Meta commands (no ';'):
//   \q                quit
//   \tables           list tables and views
//   \schema NAME      show a relation's columns
//   \plan SELECT ...  show raw + optimized plans without executing
//   \trace SELECT ... show the rewrite trace (rule by rule)
//   \stats SELECT ... show full engine statistics for a query's rewrite
//   \metrics SELECT ...  run the query, dump the unified metrics registry
//   \profile SELECT ...  run the query, rank rules by cumulative self time
//   \gov              show governor limits, trip tallies, and failpoints
//   \rules            show the generated optimizer's blocks
//   \norewrite        toggle the rewriter on/off for subsequent queries
//   \lint             lint the rule libraries + declared constraints
//   \verify           bounded soundness check of the same rule sets
//   \constraint NAME <rule text> ;   declare an integrity constraint
//
// With --threads=N the shell routes SELECTs through the srv::QueryService
// (N workers, plan cache, governor-aware admission); more commands
// come alive:
//   \cache [clear]    show (or drop) both cache layers (L0 exact-text +
//                     rewritten-plan)
//   \serve N SELECT ... submit N copies concurrently and report throughput
//   \top [N]          flight recorder: the last N served queries
//   \slow [N]         the N slowest queries in the recorder window
//   \metrics --prom   service metrics in Prometheus text format
// and --trace-out merges every worker's spans into one Chrome trace.
// Telemetry knobs: --slow-ms=N marks queries slower than N ms as slow
// (trace attached in \slow), --slow-log=FILE appends them as JSONL, and
// --telemetry-out=FILE writes a Prometheus snapshot every second.
//
// With --listen=PORT the shell becomes a network server: after running
// the script (schema/data setup), it serves the wire protocol
// (docs/network.md) until SIGINT/SIGTERM, then drains in-flight queries,
// takes the final persistence snapshot, and exits. Talk to it with
// tools/eds_client.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "exec/session.h"
#include "gov/failpoint.h"
#include "gov/governor.h"
#include "lera/printer.h"
#include "lint/lint.h"
#include "magic/magic.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/extensions.h"
#include "rules/fixpoint.h"
#include "rules/merging.h"
#include "rules/permutation.h"
#include "rules/semantic.h"
#include "rules/simplify.h"
#include "srv/service.h"
#include "verify/verify.h"

namespace {

// SIGINT/SIGTERM request a graceful stop of the --listen serve loop: the
// handler only flips a flag; the main thread drains and shuts down.
std::atomic<bool> g_shutdown_requested{false};

void RequestShutdown(int) { g_shutdown_requested.store(true); }

class Shell {
 public:
  // `sink` (may be null) records phase/rule/operator spans for every
  // statement; main() writes it out as Chrome trace JSON on exit.
  explicit Shell(eds::obs::TraceSink* sink) {
    session_.set_trace_sink(sink);
  }

  // Governor budgets applied to every subsequent query (--deadline-ms,
  // --max-nodes, --max-rows).
  void set_limits(const eds::gov::GovernorLimits& limits) {
    limits_ = limits;
  }

  // --threads=N: serve SELECTs through a QueryService worker pool with the
  // plan cache, instead of directly on the session. `collect_traces` gives
  // each worker its own sink for the merged trace written on exit.
  void set_threads(size_t threads, bool collect_traces) {
    threads_ = threads;
    collect_traces_ = collect_traces;
  }

  // Telemetry knobs applied when the service starts (--slow-ms,
  // --slow-log, --telemetry-out).
  void set_telemetry(uint64_t slow_ms, std::string slow_log_path,
                     std::string telemetry_out) {
    slow_ms_ = slow_ms;
    slow_log_path_ = std::move(slow_log_path);
    telemetry_out_ = std::move(telemetry_out);
  }

  // --persist=FILE: warm the plan caches from FILE at service start and
  // snapshot them back on shutdown (plus every interval_ms while serving,
  // when nonzero). See docs/persistence.md.
  void set_persist(std::string path, uint64_t interval_ms) {
    persist_path_ = std::move(path);
    persist_interval_ms_ = interval_ms;
  }

  // Stops the worker pool (if any); safe to call repeatedly. Must run
  // before worker_sinks() is read for the exit trace.
  void Shutdown() {
    if (service_ != nullptr) service_->Stop();
  }

  std::vector<const eds::obs::TraceSink*> worker_sinks() const {
    if (service_ == nullptr) return {};
    return service_->worker_sinks();
  }

  // --listen=PORT: serve the wire protocol until SIGINT/SIGTERM. On
  // signal: stop accepting, drain in-flight queries (their RESULT frames
  // are still delivered), close connections; the caller's Shutdown() then
  // stops the service, which takes the final persistence snapshot and the
  // last telemetry export.
  int ServeNetwork(const std::string& host, uint16_t port) {
    eds::srv::QueryService* service = EnsureService();
    if (service == nullptr) {
      std::cerr << "cannot serve: query service failed to start\n";
      return 1;
    }
    eds::net::ServerOptions options;
    options.host = host;
    options.port = port;
    eds::net::Server server(service, options);
    eds::Status status = server.Start();
    if (!status.ok()) {
      std::cerr << "cannot listen on " << host << ":" << port << ": "
                << status << "\n";
      return 1;
    }
    std::signal(SIGINT, RequestShutdown);
    std::signal(SIGTERM, RequestShutdown);
    std::cout << "listening on " << host << ":" << server.port()
              << " — connect with eds_client --port=" << server.port()
              << " (Ctrl-C drains and exits)\n";
    while (!g_shutdown_requested.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::cout << "\nshutdown requested: draining " << server.pending_queries()
              << " in-flight quer"
              << (server.pending_queries() == 1 ? "y" : "ies") << "\n";
    server.Shutdown(/*drain=*/true);
    const eds::net::ServerStats stats = server.GetStats();
    std::cout << "served " << stats.queries << " quer"
              << (stats.queries == 1 ? "y" : "ies") << " over "
              << stats.accepted << " connection(s)\n";
    return 0;
  }

  // Returns false on \q.
  bool HandleLine(const std::string& line) {
    if (eds::Trim(line).empty()) return true;
    if (line[0] == '\\') return HandleMeta(std::string(eds::Trim(line)));
    buffer_ += line;
    buffer_ += '\n';
    // Execute once the buffer holds a ';' terminated statement.
    if (line.find(';') != std::string::npos) {
      RunStatement(buffer_);
      buffer_.clear();
    }
    return true;
  }

  bool pending() const { return !buffer_.empty(); }

 private:
  bool HandleMeta(const std::string& line) {
    if (line == "\\q" || line == "\\quit") return false;
    if (line == "\\tables") {
      for (const auto& name : session_.catalog().TableNames()) {
        std::cout << "table " << name << "\n";
      }
      for (const auto& name : session_.catalog().ViewNames()) {
        std::cout << "view  " << name << "\n";
      }
      return true;
    }
    if (eds::StartsWith(line, "\\schema ")) {
      std::string name(eds::Trim(line.substr(8)));
      auto schema = session_.catalog().RelationSchema(name);
      if (!schema.ok()) {
        std::cout << schema.status() << "\n";
        return true;
      }
      for (const auto& field : *schema) {
        std::cout << "  " << field.name << " : " << field.type->ToString()
                  << "\n";
      }
      return true;
    }
    if (eds::StartsWith(line, "\\plan ")) {
      ShowPlan(line.substr(6), /*trace=*/false);
      return true;
    }
    if (eds::StartsWith(line, "\\trace ")) {
      ShowPlan(line.substr(7), /*trace=*/true);
      return true;
    }
    if (eds::StartsWith(line, "\\stats ")) {
      ShowStats(line.substr(7));
      return true;
    }
    if (line == "\\metrics --prom") {
      ShowPrometheus();
      return true;
    }
    if (eds::StartsWith(line, "\\metrics ")) {
      ShowMetrics(line.substr(9));
      return true;
    }
    if (line == "\\top" || eds::StartsWith(line, "\\top ")) {
      ShowRecorder(line.size() > 4 ? line.substr(5) : "", /*slowest=*/false);
      return true;
    }
    if (line == "\\slow" || eds::StartsWith(line, "\\slow ")) {
      ShowRecorder(line.size() > 5 ? line.substr(6) : "", /*slowest=*/true);
      return true;
    }
    if (eds::StartsWith(line, "\\profile ")) {
      ShowProfile(line.substr(9));
      return true;
    }
    if (line == "\\rules") {
      auto optimizer = session_.optimizer();
      if (!optimizer.ok()) {
        std::cout << optimizer.status() << "\n";
        return true;
      }
      for (const auto& block : (*optimizer)->engine().program().blocks) {
        std::cout << "block " << block.name << " (limit "
                  << (block.limit < 0 ? std::string("inf")
                                      : std::to_string(block.limit))
                  << ")\n";
        for (const auto& rule : block.rules) {
          std::cout << "  " << rule.name << "\n";
        }
      }
      return true;
    }
    if (line == "\\gov") {
      ShowGov();
      return true;
    }
    if (line == "\\cache" || line == "\\cache clear") {
      ShowCache(/*clear=*/line != "\\cache");
      return true;
    }
    if (eds::StartsWith(line, "\\serve ")) {
      ServeMany(line.substr(7));
      return true;
    }
    if (line == "\\lint") {
      RunLint();
      return true;
    }
    if (line == "\\verify") {
      RunVerify();
      return true;
    }
    if (line == "\\norewrite") {
      rewrite_ = !rewrite_;
      std::cout << "rewriting " << (rewrite_ ? "on" : "off") << "\n";
      return true;
    }
    if (eds::StartsWith(line, "\\constraint ")) {
      // \constraint name rule-text... ;
      std::string rest(eds::Trim(line.substr(12)));
      size_t space = rest.find(' ');
      if (space == std::string::npos) {
        std::cout << "usage: \\constraint NAME <rule> ;\n";
        return true;
      }
      std::string name = rest.substr(0, space);
      eds::Status status =
          session_.AddConstraint(name, rest.substr(space + 1));
      std::cout << (status.ok() ? "constraint added" : status.ToString())
                << "\n";
      return true;
    }
    std::cout << "unknown command: " << line << "\n";
    return true;
  }

  // Governor configuration, cumulative trip tallies, and armed failpoints.
  void ShowGov() {
    auto limit = [](uint64_t v) {
      return v == 0 ? std::string("unlimited") : std::to_string(v);
    };
    std::cout << "deadline_ms:  " << limit(limits_.deadline_ms) << "\n"
              << "max_nodes:    " << limit(limits_.max_term_nodes) << "\n"
              << "max_rows:     " << limit(limits_.max_rows) << "\n";
    eds::gov::TripCounters trips = eds::gov::CumulativeTripCounters();
    std::cout << "trips: deadline " << trips.deadline_trips
              << ", node_ceiling " << trips.node_ceiling_trips
              << ", row_ceiling " << trips.row_ceiling_trips
              << ", cancelled " << trips.cancel_trips << "\n";
    std::cout << "failpoints: " << eds::gov::FailPoints::Global().Describe()
              << "\n";
  }

  // Lints every built-in rule library plus the constraint rules generated
  // from this session's catalog, with catalog-aware ISA checks.
  void RunLint() {
    eds::rewrite::BuiltinRegistry builtins;
    builtins.InstallStandard();
    eds::magic::InstallMagicBuiltins(&builtins);
    eds::rules::InstallSemanticBuiltins(&builtins);
    eds::lint::LintOptions opts;
    opts.catalog = &session_.catalog();
    const std::pair<const char*, std::string> sources[] = {
        {"merging", eds::rules::MergingRuleSource()},
        {"permutation", eds::rules::PermutationRuleSource()},
        {"fixpoint", eds::rules::FixpointRuleSource()},
        {"simplify", eds::rules::SimplifyRuleSource()},
        {"implicit_knowledge", eds::rules::ImplicitKnowledgeRuleSource()},
        {"semantic_methods", eds::rules::SemanticMethodRuleSource()},
        {"extensions", eds::rules::ExtensionRuleSource()},
        {"constraints", eds::rules::ConstraintRuleSource(session_.catalog())},
    };
    size_t errors = 0, warnings = 0;
    for (const auto& [name, text] : sources) {
      eds::lint::LintReport report =
          eds::lint::LintSource(text, builtins, opts);
      errors += report.error_count();
      warnings += report.warning_count();
      for (const eds::lint::Diagnostic& d : report.diagnostics()) {
        std::cout << name << ": " << d.ToString() << "\n";
      }
    }
    std::cout << "lint: " << errors << " error(s), " << warnings
              << " warning(s)\n";
  }

  // Bounded soundness check (docs/rule_verify.md) of the same rule sets
  // \lint covers: built-in libraries plus this session's constraint rules.
  void RunVerify() {
    eds::rewrite::BuiltinRegistry builtins;
    builtins.InstallStandard();
    eds::magic::InstallMagicBuiltins(&builtins);
    eds::rules::InstallSemanticBuiltins(&builtins);
    const std::pair<const char*, std::string> sources[] = {
        {"merging", eds::rules::MergingRuleSource()},
        {"permutation", eds::rules::PermutationRuleSource()},
        {"fixpoint", eds::rules::FixpointRuleSource()},
        {"simplify", eds::rules::SimplifyRuleSource()},
        {"implicit_knowledge", eds::rules::ImplicitKnowledgeRuleSource()},
        {"semantic_methods", eds::rules::SemanticMethodRuleSource()},
        {"extensions", eds::rules::ExtensionRuleSource()},
        {"constraints", eds::rules::ConstraintRuleSource(session_.catalog())},
    };
    size_t errors = 0, warnings = 0;
    for (const auto& [name, text] : sources) {
      eds::verify::VerifySummary summary;
      eds::lint::LintReport report =
          eds::verify::VerifyLibrary(text, builtins, {}, &summary);
      errors += report.error_count();
      warnings += report.warning_count();
      for (const eds::lint::Diagnostic& d : report.diagnostics()) {
        std::cout << name << ": " << d.ToString() << "\n";
      }
      std::cout << name << ": " << summary.ToString() << "\n";
    }
    std::cout << "verify: " << errors << " error(s), " << warnings
              << " warning(s)\n";
  }

  // Lazily builds and starts the worker pool. The REPL is single-threaded
  // and every served SELECT is awaited before the next statement runs, so
  // DDL between serves happens while the workers are idle — within the
  // service's concurrency contract — and the epoch bump it causes simply
  // invalidates the cached plans.
  eds::srv::QueryService* EnsureService() {
    if (threads_ == 0) return nullptr;
    if (service_ == nullptr) {
      eds::srv::ServiceOptions options;
      options.workers = threads_;
      options.base_limits = limits_;
      options.collect_traces = collect_traces_;
      options.rewrite = rewrite_;
      options.slow_query_ns = slow_ms_ * 1'000'000ULL;
      options.slow_query_log_path = slow_log_path_;
      options.telemetry_export_path = telemetry_out_;
      options.persist_path = persist_path_;
      options.persist_interval_ms = persist_interval_ms_;
      service_ = std::make_unique<eds::srv::QueryService>(&session_, options);
      eds::Status status = service_->Start();
      if (!status.ok()) {
        std::cout << "cannot start query service: " << status << "\n";
        service_.reset();
        return nullptr;
      }
      std::cout << "query service: " << threads_ << " worker(s)\n";
      if (!persist_path_.empty()) {
        const eds::srv::LoadStats ls = service_->persist_load_stats();
        std::cout << "persist: " << persist_path_ << " warmed " << ls.ok
                  << " entr" << (ls.ok == 1 ? "y" : "ies") << " (skipped "
                  << ls.skipped << ", stale " << ls.stale << ")\n";
      }
    }
    return service_.get();
  }

  // Plan-cache stats (or eager invalidation with `clear`).
  void ShowCache(bool clear) {
    if (service_ == nullptr) {
      std::cout << "no query service (start the shell with --threads=N)\n";
      return;
    }
    if (clear) {
      service_->cache().InvalidateAll();
      service_->l0_cache().InvalidateAll();
      std::cout << "cache cleared\n";
      return;
    }
    eds::srv::PlanCache::Stats s = service_->cache().GetStats();
    std::cout << "entries:         " << s.entries << " (" << s.nodes
              << " nodes)\n"
              << "hits / misses:   " << s.hits << " / " << s.misses << "\n"
              << "inserts:         " << s.inserts << "\n"
              << "evictions:       " << s.evictions << "\n"
              << "insert failures: " << s.insert_failures << "\n"
              << "invalidations:   " << s.invalidations << "\n";
    eds::srv::L0Cache::Stats l0 = service_->l0_cache().GetStats();
    std::cout << "l0 (exact text): " << l0.entries << " entries, "
              << l0.hits << " / " << l0.misses << " hits / misses, "
              << l0.invalidations << " invalidated\n";
    eds::srv::ServiceStats ss = service_->GetStats();
    std::cout << "served: " << ss.completed << " ok, " << ss.failed
              << " failed, " << ss.rejected << " shed (max queue depth "
              << ss.max_queue_depth << ")\n";
  }

  // \top (recent) / \slow (ranked by serve time): renders the service's
  // flight recorder, one line per retained QueryRecord.
  void ShowRecorder(const std::string& rest, bool slowest) {
    if (service_ == nullptr || !service_->telemetry_enabled()) {
      std::cout << "no telemetry (start the shell with --threads=N)\n";
      return;
    }
    size_t limit = 10;
    std::string trimmed(eds::Trim(rest));
    if (!trimmed.empty()) {
      try {
        limit = std::stoull(trimmed);
      } catch (...) {
        std::cout << "usage: " << (slowest ? "\\slow" : "\\top") << " [N]\n";
        return;
      }
    }
    std::vector<eds::srv::QueryRecord> records =
        slowest ? service_->SlowestQueries(limit)
                : service_->RecentQueries(limit);
    if (records.empty()) {
      std::cout << "flight recorder empty\n";
      return;
    }
    std::cout << "  seq outcome wk queue_us serve_us     rows  query\n";
    for (const eds::srv::QueryRecord& r : records) {
      std::string text = r.text.substr(0, 48);
      for (char& c : text) {
        if (c == '\n' || c == '\t') c = ' ';
      }
      char line[128];
      std::snprintf(line, sizeof(line), "%5llu %-7s %2zu %8llu %8llu %8llu",
                    static_cast<unsigned long long>(r.seq),
                    eds::srv::CacheOutcomeName(r), r.worker_id,
                    static_cast<unsigned long long>(r.queue_ns / 1000),
                    static_cast<unsigned long long>(r.serve_ns / 1000),
                    static_cast<unsigned long long>(r.rows));
      std::cout << line << "  " << text;
      if (!r.ok) std::cout << "  [" << r.error << "]";
      if (r.slow) {
        std::cout << "  [slow" << (r.trace_json.empty() ? "" : ", trace")
                  << "]";
      }
      std::cout << "\n";
    }
    const eds::srv::ServiceStats ss = service_->GetStats();
    std::cout << "(" << records.size() << " of "
              << (ss.completed + ss.failed) << " served; "
              << service_->slow_queries_logged()
              << " slow queries logged)\n";
  }

  // \metrics --prom: the service's full metric surface (srv.*, cache.*,
  // srv.l0.*, gov.*, srv.latency.*) in Prometheus text exposition format.
  void ShowPrometheus() {
    eds::obs::MetricsRegistry registry;
    if (service_ != nullptr) {
      service_->ExportMetrics(&registry);
    } else {
      // Without a service only the process-wide producers exist.
      eds::obs::ExportInternerStats(eds::term::Interner::Global().GetStats(),
                                    &registry);
      eds::obs::ExportGovStats(eds::gov::CumulativeTripCounters(), &registry);
    }
    std::cout << registry.ToPrometheus();
  }

  // \serve N SELECT ... — submit N copies concurrently, await them all,
  // report wall time and cache behavior. The concurrency demo: copies
  // after the first hit the plan cache and skip the rewrite phase.
  void ServeMany(const std::string& rest) {
    eds::srv::QueryService* service = EnsureService();
    if (service == nullptr) {
      std::cout << "no query service (start the shell with --threads=N)\n";
      return;
    }
    std::istringstream in{rest};
    size_t copies = 0;
    in >> copies;
    std::string query;
    std::getline(in, query);
    query = std::string(eds::Trim(query));
    if (copies == 0 || query.empty()) {
      std::cout << "usage: \\serve N SELECT ...\n";
      return;
    }
    eds::srv::PlanCache::Stats before = service->cache().GetStats();
    uint64_t t0 = eds::obs::NowNs();
    std::vector<std::future<eds::Result<eds::srv::ServedQuery>>> futures;
    futures.reserve(copies);
    for (size_t i = 0; i < copies; ++i) futures.push_back(
        service->Submit(query));
    size_t ok = 0, failed = 0, hits = 0;
    for (auto& f : futures) {
      auto r = f.get();
      if (!r.ok()) {
        if (failed == 0) std::cout << r.status() << "\n";
        ++failed;
        continue;
      }
      ++ok;
      if (r->cache_hit) ++hits;
    }
    uint64_t wall_ns = eds::obs::NowNs() - t0;
    eds::srv::PlanCache::Stats after = service->cache().GetStats();
    std::cout << copies << " served in " << wall_ns / 1000 << " us (" << ok
              << " ok, " << failed << " failed); cache hits " << hits
              << ", misses " << (after.misses - before.misses) << "\n";
  }

  void ShowPlan(const std::string& query, bool trace) {
    auto raw = session_.Translate(query);
    if (!raw.ok()) {
      std::cout << raw.status() << "\n";
      return;
    }
    std::cout << "raw plan:\n" << eds::lera::FormatPlan(*raw);
    eds::rewrite::RewriteOptions options;
    options.collect_trace = trace;
    auto out = session_.Rewrite(*raw, options);
    if (!out.ok()) {
      std::cout << out.status() << "\n";
      return;
    }
    if (trace) {
      std::cout << "trace (" << out->trace.size() << " applications):\n";
      for (const auto& entry : out->trace) {
        std::cout << "  [" << entry.block << "/" << entry.rule << "]\n"
                  << "    " << entry.before->ToString() << "\n    --> "
                  << entry.after->ToString() << "\n";
      }
    }
    std::cout << "optimized plan (" << out->stats.applications
              << " rule applications, " << out->stats.condition_checks
              << " condition checks, " << out->stats.normal_form_hits
              << " normal-form hits):\n"
              << eds::lera::FormatPlan(out->term);
  }

  // Full engine statistics for one query, without executing it.
  void ShowStats(const std::string& query) {
    auto raw = session_.Translate(query);
    if (!raw.ok()) {
      std::cout << raw.status() << "\n";
      return;
    }
    auto out = session_.Rewrite(*raw);
    if (!out.ok()) {
      std::cout << out.status() << "\n";
      return;
    }
    const eds::rewrite::EngineStats& s = out->stats;
    std::cout << "passes:           " << s.passes << "\n"
              << "applications:     " << s.applications << "\n"
              << "condition checks: " << s.condition_checks << "\n"
              << "match attempts:   " << s.match_attempts << "\n"
              << "quick rejects:    " << s.quick_rejects << "\n"
              << "normal-form hits: " << s.normal_form_hits << "\n"
              << "cycle stops:      " << s.cycle_stops << "\n"
              << "safety stop:      " << (s.safety_stop ? "yes" : "no")
              << "\n"
              << "governor trip:    " << s.trip.ToString() << "\n";
    for (const auto& [rule, count] : s.applications_by_rule) {
      std::cout << "  " << rule << ": " << count << "\n";
    }
    if (s.safety_stop) {
      std::cout << "warning: rewrite stopped early at the max_applications "
                   "safety valve; the plan is correct but may be "
                   "under-optimized\n";
    }
    if (s.trip.tripped()) {
      std::cout << "warning: rewrite degraded by the query governor ("
                << s.trip.ToString() << ")\n";
    }
  }

  // Runs the query end to end with per-rule profiling on and dumps every
  // producer's statistics through the unified registry.
  void ShowMetrics(const std::string& query) {
    eds::exec::QueryOptions options;
    options.rewrite = rewrite_;
    options.rewrite_options.profile_rules = true;
    options.limits = limits_;
    auto result = session_.Query(eds::Trim(query), options);
    if (!result.ok()) {
      std::cout << result.status() << "\n";
      return;
    }
    eds::obs::MetricsRegistry registry;
    eds::obs::ExportEngineStats(result->rewrite_stats, &registry);
    eds::obs::ExportExecStats(result->exec_stats, &registry);
    eds::obs::ExportInternerStats(eds::term::Interner::Global().GetStats(),
                                  &registry);
    eds::obs::ExportGovStats(eds::gov::CumulativeTripCounters(), &registry);
    std::cout << registry.ToText();
    PrintWarnings(*result);
    const eds::exec::PhaseTimes& t = result->phase_times;
    std::cout << "phase times (us): parse " << t.parse_ns / 1000
              << ", translate " << t.translate_ns / 1000 << ", rewrite "
              << t.rewrite_ns / 1000 << ", schema " << t.schema_ns / 1000
              << ", exec " << t.exec_ns / 1000 << ", total "
              << t.total_ns / 1000 << "\n";
  }

  // Runs the query with per-rule profiling and ranks rules by cumulative
  // self time.
  void ShowProfile(const std::string& query) {
    eds::exec::QueryOptions options;
    options.rewrite = rewrite_;
    options.rewrite_options.profile_rules = true;
    options.limits = limits_;
    auto result = session_.Query(eds::Trim(query), options);
    if (!result.ok()) {
      std::cout << result.status() << "\n";
      return;
    }
    std::cout << eds::obs::FormatRuleProfiles(result->rewrite_stats,
                                              /*limit=*/10);
  }

  void RunStatement(const std::string& text) {
    std::string trimmed(eds::Trim(text));
    // SELECTs go through Query for results; everything else is a script.
    bool is_select = trimmed.size() >= 6 &&
                     eds::EqualsIgnoreCase(trimmed.substr(0, 6), "SELECT");
    if (!is_select) {
      eds::Status status = session_.ExecuteScript(text);
      std::cout << (status.ok() ? "ok" : status.ToString()) << "\n";
      return;
    }
    eds::exec::QueryResult owned;
    const eds::exec::QueryResult* shown = nullptr;
    std::string serve_note;
    if (eds::srv::QueryService* service = EnsureService()) {
      auto served = service->Submit(trimmed).get();
      if (!served.ok()) {
        std::cout << served.status() << "\n";
        return;
      }
      serve_note = std::string("; worker ") +
                   std::to_string(served->worker_id) +
                   (served->l0_hit        ? ", l0 hit"
                    : served->cache_hit ? ", cache hit"
                                        : ", cache miss");
      owned = std::move(served->result);
      shown = &owned;
    } else {
      eds::exec::QueryOptions options;
      options.rewrite = rewrite_;
      options.limits = limits_;
      auto result = session_.Query(trimmed, options);
      if (!result.ok()) {
        std::cout << result.status() << "\n";
        return;
      }
      owned = std::move(*result);
      shown = &owned;
    }
    const auto& result = *shown;
    // Header.
    for (size_t i = 0; i < result.columns.size(); ++i) {
      std::cout << (i > 0 ? " | " : "") << result.columns[i];
    }
    std::cout << "\n";
    for (const auto& row : result.rows) {
      for (size_t i = 0; i < row.size(); ++i) {
        std::cout << (i > 0 ? " | " : "") << row[i];
      }
      std::cout << "\n";
    }
    std::cout << "(" << result.rows.size() << " rows; "
              << result.rewrite_stats.applications << " rewrites, "
              << result.exec_stats.rows_scanned << " rows scanned"
              << serve_note << ")\n";
    PrintWarnings(result);
  }

  // Degradation is never silent: every QueryResult warning (safety valve,
  // governor trip) prints after the rows.
  static void PrintWarnings(const eds::exec::QueryResult& result) {
    for (const std::string& w : result.warnings) {
      std::cout << "warning: " << w << "\n";
    }
  }

  eds::exec::Session session_;
  std::string buffer_;
  bool rewrite_ = true;
  eds::gov::GovernorLimits limits_;
  size_t threads_ = 0;
  bool collect_traces_ = false;
  uint64_t slow_ms_ = 0;
  std::string slow_log_path_;
  std::string telemetry_out_;
  std::string persist_path_;
  uint64_t persist_interval_ms_ = 0;
  std::unique_ptr<eds::srv::QueryService> service_;
};

}  // namespace

namespace {

// Writes the accumulated spans as Chrome trace JSON (Perfetto-loadable).
int WriteTrace(const eds::obs::TraceSink& sink, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write trace to " << path << "\n";
    return 1;
  }
  sink.WriteChromeTrace(out);
  std::cerr << "wrote " << sink.size() << " trace event(s) to " << path
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string script_path;
  uint64_t threads = 0;
  uint64_t slow_ms = 0;
  std::string slow_log_path;
  std::string telemetry_out;
  std::string persist_path;
  uint64_t persist_interval_ms = 0;
  bool listen = false;
  uint64_t listen_port = 0;
  std::string listen_host = "127.0.0.1";
  eds::gov::GovernorLimits limits;
  auto parse_u64 = [](const std::string& text, uint64_t* out) {
    try {
      size_t pos = 0;
      unsigned long long v = std::stoull(text, &pos);
      if (pos != text.size()) return false;
      *out = v;
      return true;
    } catch (...) {
      return false;
    }
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string kTraceOut = "--trace-out=";
    const std::string kDeadline = "--deadline-ms=";
    const std::string kMaxNodes = "--max-nodes=";
    const std::string kMaxRows = "--max-rows=";
    const std::string kThreads = "--threads=";
    const std::string kSlowMs = "--slow-ms=";
    const std::string kSlowLog = "--slow-log=";
    const std::string kTelemetryOut = "--telemetry-out=";
    const std::string kPersist = "--persist=";
    const std::string kPersistMs = "--persist-interval-ms=";
    const std::string kListen = "--listen=";
    const std::string kListenHost = "--listen-host=";
    bool bad = false;
    if (arg.rfind(kTraceOut, 0) == 0) {
      trace_path = arg.substr(kTraceOut.size());
      bad = trace_path.empty();
    } else if (arg.rfind(kSlowMs, 0) == 0) {
      bad = !parse_u64(arg.substr(kSlowMs.size()), &slow_ms);
    } else if (arg.rfind(kSlowLog, 0) == 0) {
      slow_log_path = arg.substr(kSlowLog.size());
      bad = slow_log_path.empty();
    } else if (arg.rfind(kTelemetryOut, 0) == 0) {
      telemetry_out = arg.substr(kTelemetryOut.size());
      bad = telemetry_out.empty();
    } else if (arg.rfind(kPersist, 0) == 0) {
      persist_path = arg.substr(kPersist.size());
      bad = persist_path.empty();
    } else if (arg.rfind(kPersistMs, 0) == 0) {
      bad = !parse_u64(arg.substr(kPersistMs.size()), &persist_interval_ms);
    } else if (arg.rfind(kListen, 0) == 0) {
      listen = true;
      bad = !parse_u64(arg.substr(kListen.size()), &listen_port) ||
            listen_port > 65535;
    } else if (arg.rfind(kListenHost, 0) == 0) {
      listen_host = arg.substr(kListenHost.size());
      bad = listen_host.empty();
    } else if (arg.rfind(kThreads, 0) == 0) {
      bad = !parse_u64(arg.substr(kThreads.size()), &threads);
    } else if (arg.rfind(kDeadline, 0) == 0) {
      bad = !parse_u64(arg.substr(kDeadline.size()), &limits.deadline_ms);
    } else if (arg.rfind(kMaxNodes, 0) == 0) {
      bad = !parse_u64(arg.substr(kMaxNodes.size()), &limits.max_term_nodes);
    } else if (arg.rfind(kMaxRows, 0) == 0) {
      bad = !parse_u64(arg.substr(kMaxRows.size()), &limits.max_rows);
    } else {
      script_path = arg;
    }
    if (bad) {
      std::cerr << "usage: eds_shell [--trace-out=FILE.json] [--threads=N] "
                   "[--deadline-ms=N] [--max-nodes=N] [--max-rows=N] "
                   "[--slow-ms=N] [--slow-log=FILE.jsonl] "
                   "[--telemetry-out=FILE.prom] [--persist=FILE.eds] "
                   "[--persist-interval-ms=N] [--listen=PORT "
                   "[--listen-host=H]] [script.sql]\n";
      return 1;
    }
  }
  // Persistence lives in the QueryService; --persist without --threads
  // gets the smallest pool that routes SELECTs through it. Serving over
  // the network wants real concurrency by default.
  if (!persist_path.empty() && threads == 0) threads = 1;
  if (listen && threads == 0) threads = 2;

  eds::obs::TraceSink sink;
  Shell shell(trace_path.empty() ? nullptr : &sink);
  shell.set_limits(limits);
  shell.set_threads(threads, /*collect_traces=*/!trace_path.empty());
  shell.set_telemetry(slow_ms, slow_log_path, telemetry_out);
  shell.set_persist(persist_path, persist_interval_ms);
  int exit_code = 0;
  bool done = false;
  if (!script_path.empty()) {
    std::ifstream file(script_path);
    if (!file) {
      std::cerr << "cannot open " << script_path << "\n";
      return 1;
    }
    std::string line;
    while (std::getline(file, line)) {
      if (!shell.HandleLine(line)) break;
    }
    done = true;
  }
  if (listen) {
    // Script (if any) set up schema and data; now serve the wire protocol
    // until a signal arrives.
    exit_code = shell.ServeNetwork(listen_host,
                                   static_cast<uint16_t>(listen_port));
    done = true;
  }
  if (!done && !isatty(0)) {
    // Piped input: process and exit.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!shell.HandleLine(line)) break;
    }
    done = true;
  }
  if (!done) {
    std::cout << "eds shell — ESQL statements end with ';', \\q quits, "
                 "\\plan/\\trace/\\stats/\\metrics/\\profile inspect the "
                 "rewriter.\n";
    std::string line;
    while (true) {
      std::cout << (shell.pending() ? "   ... " : "esql> ") << std::flush;
      if (!std::getline(std::cin, line)) break;
      if (!shell.HandleLine(line)) break;
    }
  }
  // Stop the workers before their sinks are read; then write either the
  // single-session trace or the merged one (session = tid 1, workers 2+).
  shell.Shutdown();
  if (!trace_path.empty()) {
    std::vector<const eds::obs::TraceSink*> workers = shell.worker_sinks();
    if (workers.empty()) {
      exit_code = WriteTrace(sink, trace_path);
    } else {
      std::vector<eds::obs::SinkWithTid> sinks = {{&sink, 1}};
      for (size_t i = 0; i < workers.size(); ++i) {
        if (workers[i] != nullptr) {
          sinks.push_back({workers[i], static_cast<int>(i) + 2});
        }
      }
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "cannot write trace to " << trace_path << "\n";
        exit_code = 1;
      } else {
        eds::obs::WriteMergedChromeTrace(out, sinks);
        std::cerr << "wrote merged trace (" << sinks.size()
                  << " thread(s)) to " << trace_path << "\n";
      }
    }
  }
  return exit_code;
}
