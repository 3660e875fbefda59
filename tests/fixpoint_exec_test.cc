// FIX evaluation: naive vs semi-naive, shapes, and safety limits.
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "reference/agree.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds::exec {
namespace {

using reference::ExpectAgree;
using reference::ExpectSameSequence;
using reference::RunBoth;
using reference::RunQuery;
using term::TermRef;
using value::Value;

TermRef P(const std::string& text) {
  auto r = term::ParseTerm(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

const char* kTcOverBeats =
    "FIX(RELATION('TC'), UNION(SET("
    "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2)), "
    "SEARCH(LIST(RELATION('TC'), RELATION('TC')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2)))))";

// Converges in 10 rounds: 9 that each add one row, then one that adds none.
const char* kRightLinear =
    "FIX(RELATION('R'), UNION(SET("
    "SEARCH(LIST(RELATION('BEATS')), ($1.1 = 1), LIST($1.1, $1.2)), "
    "SEARCH(LIST(RELATION('R'), RELATION('BEATS')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2)))))";

// The recursive branch's DIV fails on BEATS row (1, 2), which its first
// conjunct drops for every row of R: the right-only DIV must not run before
// the join.
const char* kDivBehindPruning =
    "FIX(RELATION('R'), UNION(SET("
    "SEARCH(LIST(RELATION('BEATS')), ($1.1 = 5), LIST($1.1, $1.2)), "
    "SEARCH(LIST(RELATION('R'), RELATION('BEATS')), "
    "($1.2 < $2.1) AND (DIV(12, SUB($2.1, 1)) > 0), LIST($1.1, $2.2)))))";

// Semi-naive and naive iteration.
std::vector<ExecOptions> AllModes() {
  std::vector<ExecOptions> modes;
  for (bool seminaive : {true, false}) {
    ExecOptions o;
    o.seminaive = seminaive;
    modes.push_back(o);
  }
  return modes;
}

std::string ModeName(const ExecOptions& o) {
  return o.seminaive ? "semi-naive" : "naive";
}

class FixpointExecTest : public ::testing::Test {
 protected:
  Rows Run(const std::string& plan, ExecOptions options = {}) {
    Result<Rows> rows = Try(plan, options);
    EXPECT_TRUE(rows.ok()) << plan << ": " << rows.status().ToString();
    return rows.ok() ? *rows : Rows{};
  }

  Result<Rows> Try(const std::string& plan, ExecOptions options = {}) {
    Executor executor(&db_.session.catalog(), &db_.session.db(), options);
    Result<Rows> rows = executor.Execute(P(plan));
    stats_ = executor.stats();
    return rows;
  }

  testutil::FilmDb db_;
  ExecStats stats_;
};

TEST_F(FixpointExecTest, TransitiveClosureOfChain) {
  // BEATS is the chain 1->2->...->10: closure has 9+8+...+1 = 45 pairs.
  Rows rows = Run(kTcOverBeats);
  EXPECT_EQ(rows.size(), 45u);
}

TEST_F(FixpointExecTest, NaiveAndSeminaiveAgree) {
  ExecOptions naive;
  naive.seminaive = false;
  Rows a = Run(kTcOverBeats, naive);
  size_t naive_iterations = stats_.fix_iterations;
  Rows b = Run(kTcOverBeats);
  testutil::ExpectSameRows(a, b);
  EXPECT_GT(naive_iterations, 0u);
}

TEST_F(FixpointExecTest, SeminaiveDoesLessJoinWork) {
  ExecOptions naive;
  naive.seminaive = false;
  Run(kTcOverBeats, naive);
  size_t naive_quals = stats_.qual_evaluations;
  Run(kTcOverBeats);
  size_t semi_quals = stats_.qual_evaluations;
  // Naive re-joins the full relation every round; semi-naive joins deltas.
  EXPECT_LT(semi_quals, naive_quals);
}

TEST_F(FixpointExecTest, CyclicGraphTerminates) {
  EDS_ASSERT_OK(db_.session.ExecuteScript("CREATE TABLE CYC (A:INT, B:INT);"));
  for (int i = 0; i < 5; ++i) {
    EDS_ASSERT_OK(db_.session.InsertRow(
        "CYC", {Value::Int(i), Value::Int((i + 1) % 5)}));
  }
  const char* plan =
      "FIX(RELATION('T2'), UNION(SET("
      "SEARCH(LIST(RELATION('CYC')), TRUE, LIST($1.1, $1.2)), "
      "SEARCH(LIST(RELATION('T2'), RELATION('T2')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2)))))";
  Rows rows = Run(plan);
  EXPECT_EQ(rows.size(), 25u);  // complete digraph on the 5-cycle
  ExecOptions naive;
  naive.seminaive = false;
  Rows naive_rows = Run(plan, naive);
  testutil::ExpectSameRows(rows, naive_rows);
}

TEST_F(FixpointExecTest, RightLinearShape) {
  const char* plan =
      "FIX(RELATION('R'), UNION(SET("
      "SEARCH(LIST(RELATION('BEATS')), ($1.1 = 1), LIST($1.1, $1.2)), "
      "SEARCH(LIST(RELATION('R'), RELATION('BEATS')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2)))))";
  Rows rows = Run(plan);
  EXPECT_EQ(rows.size(), 9u);  // (1,2)...(1,10)
}

TEST_F(FixpointExecTest, FixWithNonSearchBranchFallsBackToNaive) {
  // The recursive branch is wrapped oddly (FILTER over a search), so
  // semi-naive detection bails out and naive evaluation still works.
  const char* plan =
      "FIX(RELATION('R'), UNION(SET("
      "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2)), "
      "FILTER(SEARCH(LIST(RELATION('R'), RELATION('BEATS')), "
      "($1.2 = $2.1), LIST($1.1, $2.2)), TRUE))))";
  Rows rows = Run(plan);
  EXPECT_EQ(rows.size(), 45u);
}

TEST_F(FixpointExecTest, EmptyBaseYieldsEmptyFixpoint) {
  EDS_ASSERT_OK(db_.session.ExecuteScript("CREATE TABLE E (A:INT, B:INT);"));
  const char* plan =
      "FIX(RELATION('R'), UNION(SET("
      "SEARCH(LIST(RELATION('E')), TRUE, LIST($1.1, $1.2)), "
      "SEARCH(LIST(RELATION('R'), RELATION('E')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2)))))";
  Rows rows = Run(plan);
  EXPECT_TRUE(rows.empty());
}

TEST_F(FixpointExecTest, IterationLimitGuards) {
  // An ever-growing fixpoint (adds W+1 each round, no natural bound) trips
  // the iteration limit instead of hanging.
  ExecOptions options;
  options.max_fix_iterations = 5;
  Executor executor(&db_.session.catalog(), &db_.session.db(), options);
  auto rows = executor.Execute(P(
      "FIX(RELATION('G'), UNION(SET("
      "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2)), "
      "SEARCH(LIST(RELATION('G')), TRUE, LIST($1.1 + 1, $1.2)))))"));
  EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(FixpointExecTest, NestedFixpointsViaShadowing) {
  // A FIX whose base is itself a FIX (the magic transform produces this
  // shape: FIX over a seeded base).
  std::string inner = kTcOverBeats;
  std::string plan =
      "FIX(RELATION('OUTER'), UNION(SET("
      "SEARCH(LIST(" + inner + "), ($1.1 = 1), LIST($1.1, $1.2)), "
      "SEARCH(LIST(RELATION('OUTER'), RELATION('BEATS')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2)))))";
  Rows rows = Run(plan);
  EXPECT_EQ(rows.size(), 9u);
}

TEST_F(FixpointExecTest, Fig5EndToEndThroughSession) {
  EDS_ASSERT_OK(db_.session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )"));
  auto result = db_.session.Query("SELECT W FROM BETTER_THAN WHERE L = 10");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 9u);
  // And without the rewriter (unfocused) the answer is identical.
  QueryOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto raw = db_.session.Query("SELECT W FROM BETTER_THAN WHERE L = 10",
                               no_rewrite);
  ASSERT_TRUE(raw.ok());
  testutil::ExpectSameRows(result->rows, raw->rows);
  // The focused plan accumulates an order of magnitude fewer tuples.
  EXPECT_LT(result->exec_stats.fix_tuples, raw->exec_stats.fix_tuples);
}

TEST_F(FixpointExecTest, OneRoundSpanPerCountedIteration) {
  for (bool seminaive : {true, false}) {
    obs::TraceSink sink;
    ExecOptions options;
    options.seminaive = seminaive;
    options.trace_sink = &sink;
    Rows rows = Run(kRightLinear, options);
    EXPECT_EQ(rows.size(), 9u);
    EXPECT_EQ(stats_.fix_iterations, 10u);
    size_t spans = 0;
    for (const obs::TraceEvent& e : sink.events()) {
      if (e.name != "exec.fix.round") continue;
      std::vector<std::string> keys;
      for (const auto& [key, value] : e.args) keys.push_back(key);
      EXPECT_EQ(keys, (std::vector<std::string>{"round", "delta_in",
                                                "new_tuples"}))
          << "seminaive=" << seminaive << " span " << spans;
      EXPECT_EQ(e.args[0].second, std::to_string(spans));
      ++spans;
    }
    EXPECT_EQ(spans, stats_.fix_iterations) << "seminaive=" << seminaive;
  }
}

TEST_F(FixpointExecTest, IterationLimitCountsTheRoundsFixIterationsCounts) {
  for (bool seminaive : {true, false}) {
    ExecOptions options;
    options.seminaive = seminaive;
    Run(kRightLinear, options);
    const size_t k = stats_.fix_iterations;
    ASSERT_EQ(k, 10u) << "seminaive=" << seminaive;
    options.max_fix_iterations = k;
    EXPECT_TRUE(Try(kRightLinear, options).ok()) << "seminaive=" << seminaive;
    options.max_fix_iterations = k - 1;
    EXPECT_EQ(Try(kRightLinear, options).status().code(),
              StatusCode::kResourceExhausted)
        << "seminaive=" << seminaive;
    EXPECT_EQ(stats_.fix_iterations, k - 1) << "seminaive=" << seminaive;
  }
}

TEST_F(FixpointExecTest, DivBehindAPruningConjunctAnswersEveryRound) {
  // Every round reads the total and the delta as they are in the round at
  // hand, although both keep their addresses while they grow.
  const Rows expected = {{Value::Int(5), Value::Int(6)},
                         {Value::Int(5), Value::Int(8)},
                         {Value::Int(5), Value::Int(9)},
                         {Value::Int(5), Value::Int(10)}};
  for (const ExecOptions& mode : AllModes()) {
    const reference::Runs runs = RunBoth(
        db_.session.catalog(), db_.session.db(), P(kDivBehindPruning), mode);
    ASSERT_TRUE(runs.want.ok()) << runs.want.status().ToString();
    ExpectSameSequence(*runs.want, expected, "reference " + ModeName(mode));
    ExpectAgree(runs, ModeName(mode));
  }
}

TEST_F(FixpointExecTest, EveryPlanAgreesWithTheReferenceInBothModes) {
  EDS_ASSERT_OK(db_.session.ExecuteScript(
      "CREATE TABLE CYC (A:INT, B:INT); CREATE TABLE E (A:INT, B:INT);"));
  for (int i = 0; i < 5; ++i) {
    EDS_ASSERT_OK(db_.session.InsertRow(
        "CYC", {Value::Int(i), Value::Int((i + 1) % 5)}));
  }
  const std::string plans[] = {
      kTcOverBeats,
      kRightLinear,
      kDivBehindPruning,
      "FIX(RELATION('T2'), UNION(SET("
      "SEARCH(LIST(RELATION('CYC')), TRUE, LIST($1.1, $1.2)), "
      "SEARCH(LIST(RELATION('T2'), RELATION('T2')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2)))))",
      "FIX(RELATION('R'), UNION(SET("
      "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2)), "
      "FILTER(SEARCH(LIST(RELATION('R'), RELATION('BEATS')), "
      "($1.2 = $2.1), LIST($1.1, $2.2)), TRUE))))",
      "FIX(RELATION('R'), UNION(SET("
      "SEARCH(LIST(RELATION('E')), TRUE, LIST($1.1, $1.2)), "
      "SEARCH(LIST(RELATION('R'), RELATION('E')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2)))))",
      "FIX(RELATION('OUTER'), UNION(SET("
      "SEARCH(LIST(" + std::string(kTcOverBeats) + "), ($1.1 = 1), "
      "LIST($1.1, $1.2)), "
      "SEARCH(LIST(RELATION('OUTER'), RELATION('BEATS')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2)))))",
  };
  for (const std::string& plan : plans) {
    // The same rows, order and tallies as the reference in the same mode
    // (fix_tuples included: naive iteration derives a nested FIX's rows
    // again in every outer round), and the same rows in both modes.
    Rows expected;
    size_t tuples[2] = {0, 0};
    for (const ExecOptions& mode : AllModes()) {
      const reference::Runs runs =
          RunBoth(db_.session.catalog(), db_.session.db(), P(plan), mode);
      ASSERT_TRUE(runs.want.ok()) << plan << ": "
                                  << runs.want.status().ToString();
      ExpectAgree(runs, ModeName(mode) + ": " + plan);
      if (mode.seminaive) {
        expected = *runs.want;
      } else {
        ExpectSameSequence(*runs.want, expected, plan);
      }
      tuples[mode.seminaive] = runs.got_stats.fix_tuples;
    }
    if (plan.find("OUTER") == std::string::npos) {
      EXPECT_EQ(tuples[0], tuples[1]) << plan;
    }
  }
}

TEST_F(FixpointExecTest, SeminaiveChargesStoredInputsOncePerFix) {
  // BEATS (9 rows) is charged by the base branch in the seeding round and
  // once more for the recursive rounds, not once per round; the recursive
  // branch's seeding-round SEARCH returns at once on the empty total and
  // reads nothing.
  Run(kRightLinear);
  EXPECT_EQ(stats_.fix_iterations, 10u);
  EXPECT_EQ(stats_.rows_scanned, 18u);
  ExpectAgree(RunBoth(db_.session.catalog(), db_.session.db(), P(kRightLinear)),
              kRightLinear);
}

TEST_F(FixpointExecTest, FocusedBetterThanReadsBeatsTwice) {
  // A 319-edge BEATS: the chain 1 -> ... -> 256 and 64 other edges. The
  // rewritten BETTER_THAN query is a semi-naive FIX that reads BEATS in
  // the seeding round and once more for its recursive rounds.
  for (int64_t i = 10; i < 256; ++i) {
    EDS_ASSERT_OK(
        db_.session.InsertRow("BEATS", {Value::Int(i), Value::Int(i + 1)}));
  }
  for (int64_t e = 0; e < 64; ++e) {
    EDS_ASSERT_OK(db_.session.InsertRow(
        "BEATS", {Value::Int(1 + (e * 37) % 256),
                  Value::Int(1 + (e * 101 + 53) % 255)}));
  }
  EDS_ASSERT_OK(db_.session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )"));
  const reference::Runs runs =
      RunQuery(&db_.session, "SELECT L FROM BETTER_THAN WHERE W = 7");
  ASSERT_TRUE(runs.got.ok()) << runs.got.status().ToString();
  ExpectAgree(runs, "BETTER_THAN W = 7");
  EXPECT_EQ(runs.got_stats.rows_scanned, 638u);
}

TEST_F(FixpointExecTest, RaggedFixBodyIsInvalidArgument) {
  // A relation has one width; a body that derives rows of two widths
  // fails in both modes, as on the reference.
  const char* plan =
      "FIX(RELATION('R'), UNION(SET("
      "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1)), "
      "SEARCH(LIST(RELATION('R'), RELATION('BEATS')), ($1.1 = $2.1), "
      "LIST($1.1, $2.2)), "
      "SEARCH(LIST(RELATION('BEATS')), ($1.1 = 1), LIST($1.1, $1.2)))))";
  for (const ExecOptions& mode : AllModes()) {
    EXPECT_EQ(Try(plan, mode).status().code(), StatusCode::kInvalidArgument)
        << ModeName(mode);
    ExpectAgree(
        RunBoth(db_.session.catalog(), db_.session.db(), P(plan), mode),
        ModeName(mode));
  }
}

}  // namespace
}  // namespace eds::exec
