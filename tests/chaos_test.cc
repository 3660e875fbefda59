// Chaos suite: deterministic fault injection (gov::FailPoints) and query
// governor (gov::QueryGuard) behavior. The contract under test: every
// injected failure surfaces as a clean Status — never a crash or a leak —
// and every governor degradation still produces correct results.
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gov/failpoint.h"
#include "gov/governor.h"
#include "gtest/gtest.h"
#include "term/interner.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds {
namespace {

using exec::ExecOptions;
using exec::ExecStats;
using exec::QueryOptions;
using exec::Rows;
using term::TermRef;

TermRef P(const std::string& text) {
  auto r = term::ParseTerm(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

// Transitive closure over FilmDb's BEATS chain 1->...->10 (45 pairs).
const char* kTcOverBeats =
    "FIX(RELATION('TC'), UNION(SET("
    "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2)), "
    "SEARCH(LIST(RELATION('TC'), RELATION('TC')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2)))))";

// A fixpoint with no natural bound (adds Winner+1 each round): runs until
// some valve stops it.
const char* kDivergentFix =
    "FIX(RELATION('G'), UNION(SET("
    "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2)), "
    "SEARCH(LIST(RELATION('G')), TRUE, LIST($1.1 + 1, $1.2)))))";

// All failpoint state is process-global; every test starts and ends clean.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { gov::FailPoints::Global().Clear(); }
  void TearDown() override { gov::FailPoints::Global().Clear(); }
};

// ---------------- failpoint registry semantics ----------------

TEST_F(ChaosTest, UnarmedRegistryIsInert) {
  EXPECT_FALSE(gov::FailPoints::AnyArmed());
  EDS_ASSERT_OK(gov::FailPoints::Global().Hit("chaos.nothing"));
}

TEST_F(ChaosTest, EnvSpecArmsOnFirstCheck) {
  // The EDS_FAILPOINTS path: the spec is read and applied on the first
  // armed-check after (re)initialization. Regression test for a
  // self-deadlock this path once had (env application re-locking the
  // registry mutex) — a hang here trips the ctest TIMEOUT.
  ::setenv("EDS_FAILPOINTS", "chaos.env.site=error@2", 1);
  gov::FailPoints::ResetForTesting();
  EXPECT_TRUE(gov::FailPoints::AnyArmed());
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Hit("chaos.env.site"));
  EXPECT_EQ(fp.Hit("chaos.env.site").code(), StatusCode::kRuntimeError);
  ::unsetenv("EDS_FAILPOINTS");
  gov::FailPoints::ResetForTesting();
  EXPECT_FALSE(gov::FailPoints::AnyArmed());
}

TEST_F(ChaosTest, ErrorFiresOnEveryHit) {
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("chaos.a=error"));
  EXPECT_TRUE(gov::FailPoints::AnyArmed());
  for (int i = 0; i < 3; ++i) {
    Status s = fp.Hit("chaos.a");
    EXPECT_EQ(s.code(), StatusCode::kRuntimeError);
    EXPECT_NE(s.message().find("chaos.a"), std::string::npos);
  }
  EXPECT_EQ(fp.hits("chaos.a"), 3u);
}

TEST_F(ChaosTest, ErrorAtNFiresOnlyOnTheNthHit) {
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("chaos.b=error@3"));
  EDS_ASSERT_OK(fp.Hit("chaos.b"));
  EDS_ASSERT_OK(fp.Hit("chaos.b"));
  EXPECT_FALSE(fp.Hit("chaos.b").ok());
  EDS_ASSERT_OK(fp.Hit("chaos.b"));
  EXPECT_EQ(fp.hits("chaos.b"), 4u);
}

TEST_F(ChaosTest, OnceIsErrorAtOne) {
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("chaos.c=once"));
  EXPECT_FALSE(fp.Hit("chaos.c").ok());
  EDS_ASSERT_OK(fp.Hit("chaos.c"));
}

TEST_F(ChaosTest, OffDisarmsButKeepsCounting) {
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("chaos.d=error"));
  EXPECT_FALSE(fp.Hit("chaos.d").ok());
  EDS_ASSERT_OK(fp.Configure("chaos.d=off"));
  EDS_ASSERT_OK(fp.Hit("chaos.d"));
  EXPECT_EQ(fp.hits("chaos.d"), 2u);
}

TEST_F(ChaosTest, UnconfiguredSitesCountWhileAnythingIsArmed) {
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("chaos.sentinel=error"));
  EDS_ASSERT_OK(fp.Hit("chaos.bystander"));
  EXPECT_EQ(fp.hits("chaos.bystander"), 1u);
}

TEST_F(ChaosTest, MalformedSpecsRejectAtomically) {
  auto& fp = gov::FailPoints::Global();
  for (const char* bad : {"noequals", "=error", "x=", "x=boom", "x=error@",
                          "x=error@0", "x=error@1x"}) {
    EXPECT_FALSE(fp.Configure(bad).ok()) << bad;
  }
  // Nothing from the rejected specs armed anything.
  EXPECT_FALSE(gov::FailPoints::AnyArmed());
  // A partially-bad multi-pair spec changes nothing either.
  EXPECT_FALSE(fp.Configure("chaos.good=error, chaos.bad=nope").ok());
  EXPECT_FALSE(gov::FailPoints::AnyArmed());
}

TEST_F(ChaosTest, DescribeListsConfiguredSites) {
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("chaos.e=error@2"));
  std::string desc = fp.Describe();
  EXPECT_NE(desc.find("chaos.e"), std::string::npos);
  EXPECT_NE(desc.find("error@2"), std::string::npos);
}

// ---------------- QueryGuard unit behavior ----------------

TEST_F(ChaosTest, UnarmedGuardNeverTrips) {
  gov::QueryGuard guard;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(guard.Check());
  EXPECT_FALSE(guard.AddRows(1u << 30));
  EXPECT_FALSE(guard.tripped());
}

TEST_F(ChaosTest, DeadlineTripsAndIsSticky) {
  gov::QueryGuard guard;
  gov::GovernorLimits limits;
  limits.deadline_ms = 1;
  guard.Arm(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The clock is only probed every kStride checks; a couple of strides of
  // calls guarantee a probe after the deadline passed.
  bool tripped = false;
  for (int i = 0; i < 256 && !tripped; ++i) tripped = guard.Check();
  ASSERT_TRUE(tripped);
  EXPECT_EQ(guard.trip().kind, gov::TripKind::kDeadline);
  EXPECT_EQ(guard.TripStatus().code(), StatusCode::kResourceExhausted);
  // Sticky: every later check reports the same trip immediately.
  EXPECT_TRUE(guard.Check());
  EXPECT_TRUE(guard.AddRows(0));
  EXPECT_EQ(guard.trip().kind, gov::TripKind::kDeadline);
}

TEST_F(ChaosTest, CancellationIsSeenOnTheNextCheck) {
  gov::CancelToken token;
  gov::QueryGuard guard;
  gov::GovernorLimits limits;
  limits.cancel = &token;
  guard.Arm(limits);
  EXPECT_FALSE(guard.Check());
  token.Cancel();
  // Cancellation is checked on every call, not stride-amortized.
  EXPECT_TRUE(guard.Check());
  EXPECT_EQ(guard.trip().kind, gov::TripKind::kCancelled);
}

TEST_F(ChaosTest, RowCeilingTripsOnCumulativeRows) {
  gov::QueryGuard guard;
  gov::GovernorLimits limits;
  limits.max_rows = 100;
  guard.Arm(limits);
  EXPECT_FALSE(guard.AddRows(60));
  EXPECT_FALSE(guard.AddRows(40));  // exactly at the ceiling: not over
  EXPECT_TRUE(guard.AddRows(1));
  EXPECT_EQ(guard.trip().kind, gov::TripKind::kRowCeiling);
}

TEST_F(ChaosTest, RearmResetsTripState) {
  gov::QueryGuard guard;
  gov::GovernorLimits limits;
  limits.max_rows = 1;
  guard.Arm(limits);
  EXPECT_TRUE(guard.AddRows(2));
  limits.max_rows = 0;
  guard.Arm(limits);
  EXPECT_FALSE(guard.tripped());
  EXPECT_FALSE(guard.AddRows(1000));
}

// ---------------- governor through the executor ----------------

TEST_F(ChaosTest, DeadlineStopsRunawayFixpoint) {
  // kDivergentFix never reaches a fixpoint; without the governor only the
  // (huge) iteration valve would stop it. A 50ms deadline must.
  testutil::FilmDb db;
  gov::QueryGuard guard;
  gov::GovernorLimits limits;
  limits.deadline_ms = 50;
  guard.Arm(limits);
  ExecOptions options;
  options.guard = &guard;
  ExecStats stats;
  auto before = gov::CumulativeTripCounters();
  auto rows = db.session.Run(P(kDivergentFix), options, &stats);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rows.status().message().find("query governor"),
            std::string::npos);
  // Partial statistics survive the trip.
  EXPECT_GT(stats.fix_iterations, 0u);
  EXPECT_GT(gov::CumulativeTripCounters().deadline_trips,
            before.deadline_trips);
}

TEST_F(ChaosTest, RowCeilingFailsExecutionWithPartialStats) {
  testutil::FilmDb db;
  gov::QueryGuard guard;
  gov::GovernorLimits limits;
  limits.max_rows = 20;  // the closure alone has 45 pairs
  guard.Arm(limits);
  ExecOptions options;
  options.guard = &guard;
  ExecStats stats;
  auto before = gov::CumulativeTripCounters();
  auto rows = db.session.Run(P(kTcOverBeats), options, &stats);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rows.status().message().find("row_ceiling"), std::string::npos);
  EXPECT_GT(stats.rows_scanned, 0u);
  EXPECT_GT(gov::CumulativeTripCounters().row_ceiling_trips,
            before.row_ceiling_trips);
}

TEST_F(ChaosTest, CancelledExecutionFailsFast) {
  testutil::FilmDb db;
  gov::CancelToken token;
  token.Cancel();
  gov::QueryGuard guard;
  gov::GovernorLimits limits;
  limits.cancel = &token;
  guard.Arm(limits);
  ExecOptions options;
  options.guard = &guard;
  auto rows = db.session.Run(P(kTcOverBeats), options);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rows.status().message().find("cancelled"), std::string::npos);
}

// ---------------- governor through the rewriter ----------------

// A recursive labelled-path view plus a bound query: drives the magic
// rules (ADORNMENT/ALEXANDER), search merging (MERGE_SUBST/SCHEMA), and
// constant handling (EVALUATE) through a single statement.
class ChaosRewriteTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    EDS_ASSERT_OK(db_.session.ExecuteScript(R"(
      CREATE TABLE LEDGE (Src : INT, Dst : INT, Label : CHAR);
      CREATE VIEW LPATH (Src, Dst, Label) AS (
        SELECT Src, Dst, Label FROM LEDGE
        UNION
        SELECT P.Src, E.Dst, P.Label FROM LPATH P, LEDGE E
        WHERE P.Dst = E.Src AND P.Label = E.Label );
    )"));
    using value::Value;
    for (int i = 1; i < 12; ++i) {
      for (const char* label : {"a", "b"}) {
        EDS_ASSERT_OK(db_.session.InsertRow(
            "LEDGE",
            {Value::Int(i), Value::Int(i + 1), Value::String(label)}));
      }
    }
  }

  Rows Baseline() {
    QueryOptions no_rewrite;
    no_rewrite.rewrite = false;
    auto r = db_.session.Query(kQuery, no_rewrite);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows : Rows{};
  }

  static constexpr const char* kQuery =
      "SELECT Dst FROM LPATH WHERE Src = 1 AND Label = 'a'";
  testutil::FilmDb db_;
};

TEST_F(ChaosRewriteTest, MethodFailuresDegradeRewritesNotResults) {
  Rows baseline = Baseline();
  ASSERT_EQ(baseline.size(), 11u);

  // Discovery: arm an unrelated sentinel so every EDS_FAIL_POINT site the
  // query crosses records a hit, then rerun injecting a failure at each
  // site that actually fired. A failing method rejects its rule's
  // candidate binding — the rewrite gets weaker, never wrong.
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("chaos.sentinel=error"));
  {
    auto full = db_.session.Query(kQuery);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    testutil::ExpectSameRows(baseline, full->rows);
  }
  const char* kSites[] = {
      "rewrite.method.EVALUATE",    "rewrite.method.SCHEMA",
      "rewrite.method.MERGE_SUBST", "rewrite.method.SHIFT_ATTRS",
      "rewrite.method.SPLIT_QUAL",  "rewrite.method.ADORNMENT",
      "rewrite.method.ALEXANDER",
  };
  std::vector<std::string> exercised;
  for (const char* site : kSites) {
    if (fp.hits(site) > 0) exercised.push_back(site);
  }
  // The magic transform alone guarantees ADORNMENT and ALEXANDER attempts.
  ASSERT_GE(exercised.size(), 2u);

  for (const std::string& site : exercised) {
    SCOPED_TRACE(site);
    fp.Clear();
    EDS_ASSERT_OK(fp.Configure(site + "=error"));
    auto degraded = db_.session.Query(kQuery);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    testutil::ExpectSameRows(baseline, degraded->rows);
  }
}

TEST_F(ChaosRewriteTest, IntermittentMethodFailureIsAlsoSafe) {
  Rows baseline = Baseline();
  auto& fp = gov::FailPoints::Global();
  // Fail only the third EVALUATE attempt: exercises the partially-failed
  // middle of a run rather than a uniformly dead method.
  EDS_ASSERT_OK(fp.Configure("rewrite.method.EVALUATE=error@3"));
  auto degraded = db_.session.Query(kQuery);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  testutil::ExpectSameRows(baseline, degraded->rows);
}

TEST_F(ChaosRewriteTest, InternerRehashPressureKeepsCanonicality) {
  Rows baseline = Baseline();
  auto& fp = gov::FailPoints::Global();
  // Force a same-size rehash on every fresh-term allocation: every entry
  // moves while lookups and releases run. Results and hash-consing must
  // both survive.
  EDS_ASSERT_OK(fp.Configure("term.interner.rehash=error"));
  auto stressed = db_.session.Query(kQuery);
  ASSERT_TRUE(stressed.ok()) << stressed.status().ToString();
  testutil::ExpectSameRows(baseline, stressed->rows);
  EXPECT_GT(fp.hits("term.interner.rehash"), 0u);
  // Canonicality: equal structure still interns to the same node.
  TermRef a = P("SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1))");
  TermRef b = P("SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1))");
  EXPECT_EQ(a.get(), b.get());
}

TEST_F(ChaosRewriteTest, ExecOperatorFailureSurfacesCleanly) {
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("exec.operator=error"));
  auto r = db_.session.Query(kQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError);
  EXPECT_NE(r.status().message().find("injected failure"),
            std::string::npos);
  // A mid-plan operator failure (not the first) unwinds just as cleanly.
  // Count how often a clean run crosses the site (the sentinel keeps the
  // registry armed so unconfigured sites record hits), then inject at a
  // hit in the middle of the plan rather than hard-coding an index that
  // would rot when the optimizer changes the plan shape.
  fp.Clear();
  EDS_ASSERT_OK(fp.Configure("chaos.sentinel=error"));
  auto clean = db_.session.Query(kQuery);
  EDS_ASSERT_OK(clean.status());
  uint64_t evals = fp.hits("exec.operator");
  ASSERT_GE(evals, 2u);
  fp.Clear();
  EDS_ASSERT_OK(fp.Configure("exec.operator=error@" +
                             std::to_string((evals + 1) / 2)));
  r = db_.session.Query(kQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError);
}

TEST_F(ChaosRewriteTest, FixpointRoundFailureSurfacesCleanly) {
  auto& fp = gov::FailPoints::Global();
  EDS_ASSERT_OK(fp.Configure("exec.fix.round=error@2"));
  auto rows = db_.session.Run(P(kTcOverBeats));
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kRuntimeError);
}

TEST_F(ChaosRewriteTest, CancelledRewriteDegradesToBestSoFar) {
  Rows baseline = Baseline();
  auto plan = db_.session.Translate(kQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  gov::CancelToken token;
  token.Cancel();  // cancelled before the rewrite even starts
  gov::QueryGuard guard;
  gov::GovernorLimits limits;
  limits.cancel = &token;
  guard.Arm(limits);
  rewrite::RewriteOptions options;
  options.guard = &guard;
  auto before = gov::CumulativeTripCounters();
  auto outcome = db_.session.Rewrite(*plan, options);
  // Degradation, not an error: the outcome carries the best-so-far term
  // (here: the raw plan, untouched) and the structured trip reason.
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->stats.trip.kind, gov::TripKind::kCancelled);
  EXPECT_EQ(outcome->stats.applications, 0u);
  EXPECT_GT(gov::CumulativeTripCounters().cancel_trips, before.cancel_trips);

  auto rows = db_.session.Run(outcome->term);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  testutil::ExpectSameRows(baseline, *rows);
}

TEST_F(ChaosRewriteTest, NodeCeilingDegradesRewriteButStillAnswers) {
  Rows baseline = Baseline();
  QueryOptions options;
  options.limits.max_term_nodes = 1;  // any real rewrite blows this
  auto before = gov::CumulativeTripCounters();
  auto governed = db_.session.Query(kQuery, options);
  // The node ceiling is a rewrite-phase budget: the query still answers,
  // correctly, with a structured trip + warning instead of silence.
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  testutil::ExpectSameRows(baseline, governed->rows);
  EXPECT_EQ(governed->rewrite_trip.kind, gov::TripKind::kNodeCeiling);
  ASSERT_FALSE(governed->warnings.empty());
  EXPECT_NE(governed->warnings[0].find("node_ceiling"), std::string::npos);
  EXPECT_GT(gov::CumulativeTripCounters().node_ceiling_trips,
            before.node_ceiling_trips);
}

TEST_F(ChaosRewriteTest, PreCancelledQueryFailsEndToEnd) {
  // Through Query(), a cancellation observed in the rewrite phase degrades
  // that phase AND fails execution at its first chokepoint: cancelled
  // means "stop working", not "answer slowly".
  gov::CancelToken token;
  token.Cancel();
  QueryOptions options;
  options.limits.cancel = &token;
  auto r = db_.session.Query(kQuery, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("cancelled"), std::string::npos);
}

TEST_F(ChaosRewriteTest, SafetyStopSurfacesAsWarning) {
  Rows baseline = Baseline();
  QueryOptions options;
  options.rewrite_options.max_applications = 1;
  auto r = db_.session.Query(kQuery, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  testutil::ExpectSameRows(baseline, r->rows);
  EXPECT_TRUE(r->rewrite_stats.safety_stop);
  ASSERT_FALSE(r->warnings.empty());
  EXPECT_NE(r->warnings[0].find("max_applications"), std::string::npos);
}

TEST_F(ChaosRewriteTest, GenerousLimitsChangeNothing) {
  // A governed query with room to spare returns exactly what an
  // ungoverned one does — no trips, no warnings.
  auto ungoverned = db_.session.Query(kQuery);
  ASSERT_TRUE(ungoverned.ok());
  QueryOptions options;
  options.limits.deadline_ms = 60000;
  options.limits.max_term_nodes = 50'000'000;
  options.limits.max_rows = 50'000'000;
  auto governed = db_.session.Query(kQuery, options);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  testutil::ExpectSameRows(ungoverned->rows, governed->rows);
  EXPECT_FALSE(governed->rewrite_trip.tripped());
  EXPECT_TRUE(governed->warnings.empty());
}

}  // namespace
}  // namespace eds
