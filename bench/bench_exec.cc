// The columnar batch executor on exec-dominated plans (docs/executor.md).
// The workloads keep their _Vec names, so the BENCH_*.json series (which
// also timed a row engine, since removed) still compares by name.
// Rewrite is off throughout: these measure the execution phase, and the
// exec_ns counter is the wall time of the last Run() for exactly that
// phase (ns/op includes it plus result teardown).
#include "benchutil.h"
#include "obs/trace.h"
#include "term/parser.h"

namespace {

using eds::benchutil::Check;
using eds::benchutil::CheckResult;
using eds::benchutil::MakeGraphDb;
using eds::value::Value;

eds::term::TermRef Plan(const std::string& text) {
  return CheckResult(eds::term::ParseTerm(text), "plan");
}

void ReportRunWork(benchmark::State& state, const eds::exec::Rows& rows,
                   const eds::exec::ExecStats& stats, uint64_t exec_ns) {
  state.counters["rows_out"] = static_cast<double>(rows.size());
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
  state.counters["qual_evals"] =
      static_cast<double>(stats.qual_evaluations);
  state.counters["batches"] = static_cast<double>(stats.batches);
  state.counters["vec_fallbacks"] =
      static_cast<double>(stats.vec_fallbacks);
  state.counters["value_copies"] = static_cast<double>(stats.value_copies);
  state.counters["exec_ns"] = static_cast<double>(exec_ns);
}

// One Run() per iteration against a prebuilt session.
void RunPlanBench(benchmark::State& state, eds::exec::Session* session,
                  const eds::term::TermRef& plan, size_t expected_rows) {
  for (auto _ : state) {
    eds::exec::ExecStats stats;
    const uint64_t t0 = eds::obs::NowNs();
    auto rows = session->Run(plan, {}, &stats);
    const uint64_t exec_ns = eds::obs::NowNs() - t0;
    Check(rows.status(), "run");
    if (rows->size() != expected_rows) {
      state.SkipWithError("wrong result size");
      return;
    }
    benchmark::DoNotOptimize(*rows);
    ReportRunWork(state, *rows, stats, exec_ns);
  }
}

// ---------------- scan + filter + project ----------------

std::unique_ptr<eds::exec::Session> MakeNumsDb(int rows) {
  auto session = std::make_unique<eds::exec::Session>();
  Check(session->ExecuteScript(
            "CREATE TABLE NUMS (A : INT, B : INT, C : INT);"),
        "nums schema");
  for (int i = 0; i < rows; ++i) {
    Check(session->InsertRow("NUMS", {Value::Int(i), Value::Int(i % 997),
                                      Value::Int((i * 3) % 10007)}),
          "nums row");
  }
  return session;
}

constexpr int kNumsRows = 100000;
const char* kScanPlan =
    "SEARCH(LIST(RELATION('NUMS')), (($1.2 > 100) AND ($1.1 < 60000)), "
    "LIST($1.1, $1.3))";

size_t ScanExpected() {
  size_t n = 0;
  for (int i = 0; i < kNumsRows; ++i) {
    if (i % 997 > 100 && i < 60000) ++n;
  }
  return n;
}

void BM_ScanFilterProject_Vec(benchmark::State& state) {
  auto session = MakeNumsDb(kNumsRows);
  RunPlanBench(state, session.get(), Plan(kScanPlan), ScanExpected());
}
BENCHMARK(BM_ScanFilterProject_Vec);

// ---------------- equi join ----------------

// 2000 x 2000 rows, 1000 shared keys appearing twice per side: 4000 output
// pairs. A nested loop would probe all 4M pairings; the hash kernel builds
// once and probes 2000 times.
std::unique_ptr<eds::exec::Session> MakeJoinDb(int rows, int keys) {
  auto session = std::make_unique<eds::exec::Session>();
  Check(session->ExecuteScript(R"(
    CREATE TABLE LTAB (K : INT, P : INT);
    CREATE TABLE RTAB (K : INT, Q : INT);
  )"),
        "join schema");
  for (int i = 0; i < rows; ++i) {
    Check(session->InsertRow("LTAB", {Value::Int(i % keys), Value::Int(i)}),
          "ltab row");
    Check(session->InsertRow("RTAB", {Value::Int(i % keys),
                                      Value::Int(i * 2)}),
          "rtab row");
  }
  return session;
}

constexpr int kJoinRows = 2000;
constexpr int kJoinKeys = 1000;
const char* kJoinPlan =
    "SEARCH(LIST(RELATION('LTAB'), RELATION('RTAB')), ($1.1 = $2.1), "
    "LIST($1.2, $2.2))";

void BM_EquiJoin_Vec(benchmark::State& state) {
  auto session = MakeJoinDb(kJoinRows, kJoinKeys);
  RunPlanBench(state, session.get(), Plan(kJoinPlan),
               static_cast<size_t>(kJoinRows) * kJoinRows / kJoinKeys);
}
BENCHMARK(BM_EquiJoin_Vec);

// ---------------- dedup ----------------

// 100k rows, 20 copies each of 5000 distinct pairs, hash-grouped into a
// vec::RowSet and sorted once.
std::unique_ptr<eds::exec::Session> MakeDupsDb(int rows, int distinct) {
  auto session = std::make_unique<eds::exec::Session>();
  Check(session->ExecuteScript("CREATE TABLE DUPS (A : INT, B : INT);"),
        "dups schema");
  for (int i = 0; i < rows; ++i) {
    Check(session->InsertRow("DUPS",
                             {Value::Int(i % distinct),
                              Value::Int((i * 7) % distinct)}),
          "dups row");
  }
  return session;
}

constexpr int kDupRows = 100000;
constexpr int kDupDistinct = 5000;

void BM_Dedup_Vec(benchmark::State& state) {
  auto session = MakeDupsDb(kDupRows, kDupDistinct);
  RunPlanBench(state, session.get(), Plan("DEDUP(RELATION('DUPS'))"),
               kDupDistinct);
}
BENCHMARK(BM_Dedup_Vec);

// ---------------- transitive closure ----------------

// The Fig. 5 recursive view end to end: semi-naive deltas flow through the
// SEARCH as batches. Rewrite off, full pipeline otherwise.
void BM_TransitiveClosure_Vec(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  auto session = MakeGraphDb(nodes);
  eds::exec::QueryOptions options;
  options.rewrite = false;
  for (auto _ : state) {
    auto result = session->Query("SELECT W, L FROM BETTER_THAN", options);
    Check(result.status(), "query");
    const size_t expected = static_cast<size_t>(nodes) * (nodes - 1) / 2;
    if (result->rows.size() != expected) {
      state.SkipWithError("wrong closure size");
      return;
    }
    benchmark::DoNotOptimize(result->rows);
    eds::benchutil::ReportExecWork(state, *result);
    state.counters["batches"] =
        static_cast<double>(result->exec_stats.batches);
    state.counters["vec_fallbacks"] =
        static_cast<double>(result->exec_stats.vec_fallbacks);
    state.counters["value_copies"] =
        static_cast<double>(result->exec_stats.value_copies);
  }
}
BENCHMARK(BM_TransitiveClosure_Vec)->Arg(32)->Arg(48);

}  // namespace

BENCHMARK_MAIN();
