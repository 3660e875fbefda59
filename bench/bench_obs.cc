// Observability overhead A/B: the same rewrite and end-to-end query
// workloads with tracing/profiling off (the shipping default), with
// per-rule profiling, and with a live span sink. The "off" variants must
// track the pre-obs numbers — every instrumentation site is one branch on
// a null sink pointer — and the smoke run wired into ctest (label
// `smokebench;obs`) keeps that claim tested.
#include <limits>

#include "benchutil.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "srv/service.h"

namespace {

using eds::benchutil::Check;
using eds::benchutil::CheckResult;
using eds::benchutil::MakeFilmDb;
using eds::benchutil::MakeGraphDb;

std::unique_ptr<eds::exec::Session> MakeNestedDb(int films) {
  auto session = MakeFilmDb(films);
  Check(session->ExecuteScript(R"(
    CREATE VIEW FilmActors (Title, Categories, Actors) AS
      SELECT Title, Categories, MakeSet(Refactor)
      FROM FILM, APPEARS_IN
      WHERE FILM.Numf = APPEARS_IN.Numf
      GROUP BY Title, Categories;
  )"),
        "nested view");
  return session;
}

enum class Mode { kOff, kProfile, kTrace };

// Rewrite phase only, nested-view plan: off vs profile_rules vs span sink.
void BM_RewriteObs(benchmark::State& state, Mode mode) {
  auto session = MakeNestedDb(50);
  auto plan = CheckResult(
      session->Translate(
          "SELECT Title FROM FilmActors WHERE MEMBER('Adventure', "
          "Categories) AND ALL(Salary(Actors) > 10000)"),
      "translate");
  eds::obs::TraceSink sink;
  eds::rewrite::RewriteOptions options;
  if (mode == Mode::kProfile) options.profile_rules = true;
  if (mode == Mode::kTrace) options.trace_sink = &sink;
  for (auto _ : state) {
    sink.Clear();
    auto out = session->Rewrite(plan, options);
    Check(out.status(), "rewrite");
    benchmark::DoNotOptimize(out->term);
  }
}
void BM_Rewrite_Plain(benchmark::State& state) {
  BM_RewriteObs(state, Mode::kOff);
}
void BM_Rewrite_Profiled(benchmark::State& state) {
  BM_RewriteObs(state, Mode::kProfile);
}
void BM_Rewrite_Traced(benchmark::State& state) {
  BM_RewriteObs(state, Mode::kTrace);
}
BENCHMARK(BM_Rewrite_Plain);
BENCHMARK(BM_Rewrite_Profiled);
BENCHMARK(BM_Rewrite_Traced);

// End to end on the Fig. 5 transitive closure: per-operator and
// per-fixpoint-round spans are the executor's hot instrumentation sites.
void BM_QueryObs(benchmark::State& state, Mode mode) {
  auto session = MakeGraphDb(60);
  eds::obs::TraceSink sink;
  if (mode == Mode::kTrace) session->set_trace_sink(&sink);
  eds::exec::QueryOptions options;
  if (mode == Mode::kProfile) options.rewrite_options.profile_rules = true;
  for (auto _ : state) {
    sink.Clear();
    auto result =
        session->Query("SELECT L FROM BETTER_THAN WHERE W = 1", options);
    Check(result.status(), "query");
    benchmark::DoNotOptimize(result->rows);
    eds::benchutil::ReportExecWork(state, *result);
  }
}
void BM_Query_Plain(benchmark::State& state) {
  BM_QueryObs(state, Mode::kOff);
}
void BM_Query_Profiled(benchmark::State& state) {
  BM_QueryObs(state, Mode::kProfile);
}
void BM_Query_Traced(benchmark::State& state) {
  BM_QueryObs(state, Mode::kTrace);
}
BENCHMARK(BM_Query_Plain);
BENCHMARK(BM_Query_Profiled);
BENCHMARK(BM_Query_Traced);

// Serving-telemetry cost on the hottest serve path (the same query
// repeated: L0 hits after the first). Telemetry is always on: On prices
// the histogram records + flight-recorder append, and OnSlowCapture adds
// the per-worker span tracing that slow-query capture arms (threshold set
// to never fire, so this is the steady-state cost, not JSON
// serialization).
void BM_ServeTelemetry(benchmark::State& state, bool slow_capture) {
  auto session = MakeGraphDb(60);
  eds::srv::ServiceOptions options;
  options.workers = 0;  // pumped on this thread: no scheduler noise
  if (slow_capture) {
    options.slow_query_ns = std::numeric_limits<uint64_t>::max();
  }
  eds::srv::QueryService service(session.get(), options);
  Check(service.Start(), "start");
  const std::string query = "SELECT L FROM BETTER_THAN WHERE W = 1";
  for (auto _ : state) {
    auto future = service.Submit(query);
    service.ServeQueuedForTesting();
    auto served = future.get();
    Check(served.status(), "serve");
    benchmark::DoNotOptimize(served->serve_ns);
  }
  service.Stop();
}
void BM_Serve_TelemetryOn(benchmark::State& state) {
  BM_ServeTelemetry(state, /*slow_capture=*/false);
}
void BM_Serve_TelemetryOnSlowCapture(benchmark::State& state) {
  BM_ServeTelemetry(state, /*slow_capture=*/true);
}
BENCHMARK(BM_Serve_TelemetryOn);
BENCHMARK(BM_Serve_TelemetryOnSlowCapture);

// The histogram record itself: a bucket-index computation plus relaxed
// atomic adds on a per-thread shard. Values walk an LCG so bucket indices
// vary like real latencies.
void BM_Histogram_Record(benchmark::State& state) {
  eds::obs::Histogram histogram;
  uint64_t value = 1;
  for (auto _ : state) {
    histogram.Record(value);
    value = (value * 1664525 + 1013904223) & ((1ULL << 30) - 1);
  }
  benchmark::DoNotOptimize(histogram.Snapshot().count);
}
BENCHMARK(BM_Histogram_Record);

}  // namespace

BENCHMARK_MAIN();
