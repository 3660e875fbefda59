// FIX evaluation: naive vs semi-naive, shapes, and safety limits.
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds::exec {
namespace {

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
// conjunct drops on the row engine; the vectorized engine evaluates the
// right-only DIV before the join, so each recursive round falls back.
const char* kFallbackRounds =
    "FIX(RELATION('R'), UNION(SET("
    "SEARCH(LIST(RELATION('BEATS')), ($1.1 = 5), LIST($1.1, $1.2)), "
    "SEARCH(LIST(RELATION('R'), RELATION('BEATS')), "
    "($1.2 < $2.1) AND (DIV(12, SUB($2.1, 1)) > 0), LIST($1.1, $2.2)))))";

// The four engine/mode combinations.
std::vector<ExecOptions> AllModes() {
  std::vector<ExecOptions> modes;
  for (bool vectorized : {true, false}) {
    for (bool seminaive : {true, false}) {
      ExecOptions o;
      o.vectorized = vectorized;
      o.seminaive = seminaive;
      modes.push_back(o);
    }
  }
  return modes;
}

std::string ModeName(const ExecOptions& o) {
  return std::string(o.vectorized ? "vectorized" : "row") +
         (o.seminaive ? "/semi-naive" : "/naive");
}

// Same rows in the same order, with the same value kinds.
void ExpectSameSequence(const Rows& a, const Rows& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << label << " row " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].kind(), b[i][j].kind()) << label << " row " << i;
      EXPECT_EQ(value::Compare(a[i][j], b[i][j]), 0)
          << label << " row " << i << " col " << j << ": "
          << a[i][j].ToString() << " vs " << b[i][j].ToString();
    }
  }
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

TEST_F(FixpointExecTest, RecursiveRoundsFallBackToTheRowEngine) {
  // The row fallback reads the total and the delta as they are in the
  // round at hand, although both keep their addresses while they grow.
  const Rows expected = {{Value::Int(5), Value::Int(6)},
                         {Value::Int(5), Value::Int(8)},
                         {Value::Int(5), Value::Int(9)},
                         {Value::Int(5), Value::Int(10)}};
  ExecOptions row;
  row.vectorized = false;
  ExpectSameSequence(Run(kFallbackRounds, row), expected, "row engine");
  for (bool seminaive : {true, false}) {
    ExecOptions options;
    options.seminaive = seminaive;
    Rows rows = Run(kFallbackRounds, options);
    ExpectSameSequence(rows, expected,
                       seminaive ? "semi-naive" : "naive");
    EXPECT_GE(stats_.vec_fallbacks, 1u) << "seminaive=" << seminaive;
  }
}

TEST_F(FixpointExecTest, EveryPlanAgreesAcrossEnginesAndModes) {
  EDS_ASSERT_OK(db_.session.ExecuteScript(
      "CREATE TABLE CYC (A:INT, B:INT); CREATE TABLE E (A:INT, B:INT);"));
  for (int i = 0; i < 5; ++i) {
    EDS_ASSERT_OK(db_.session.InsertRow(
        "CYC", {Value::Int(i), Value::Int((i + 1) % 5)}));
  }
  const std::string plans[] = {
      kTcOverBeats,
      kRightLinear,
      kFallbackRounds,
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
    // fix_tuples against the row engine in the same mode: naive iteration
    // derives a nested FIX's rows again in every outer round.
    Rows expected;
    size_t expected_tuples[2] = {0, 0};
    for (bool seminaive : {false, true}) {
      ExecOptions oracle;
      oracle.vectorized = false;
      oracle.seminaive = seminaive;
      expected = Run(plan, oracle);
      expected_tuples[seminaive] = stats_.fix_tuples;
    }
    for (const ExecOptions& mode : AllModes()) {
      ExpectSameSequence(Run(plan, mode), expected,
                         ModeName(mode) + ": " + plan);
      EXPECT_EQ(stats_.fix_tuples, expected_tuples[mode.seminaive])
          << ModeName(mode) << ": " << plan;
    }
    if (plan.find("OUTER") == std::string::npos) {
      EXPECT_EQ(expected_tuples[0], expected_tuples[1]) << plan;
    }
  }
}

TEST_F(FixpointExecTest, SeminaiveChargesStoredInputsOncePerFix) {
  // BEATS (9 rows) is charged by both branches in the seeding round and
  // once more for the recursive rounds, not once per round.
  Run(kRightLinear);
  EXPECT_EQ(stats_.fix_iterations, 10u);
  EXPECT_LE(stats_.rows_scanned, 27u);
}

TEST_F(FixpointExecTest, RaggedFixBodyIsInvalidArgument) {
  // A relation has one width; a body that derives rows of two widths
  // fails on every engine and in both modes.
  const char* plan =
      "FIX(RELATION('R'), UNION(SET("
      "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1)), "
      "SEARCH(LIST(RELATION('R'), RELATION('BEATS')), ($1.1 = $2.1), "
      "LIST($1.1, $2.2)), "
      "SEARCH(LIST(RELATION('BEATS')), ($1.1 = 1), LIST($1.1, $1.2)))))";
  for (const ExecOptions& mode : AllModes()) {
    EXPECT_EQ(Try(plan, mode).status().code(), StatusCode::kInvalidArgument)
        << ModeName(mode);
  }
}

}  // namespace
}  // namespace eds::exec
