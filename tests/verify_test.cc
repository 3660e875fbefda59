// Unit tests for the rule soundness verifier: environment construction,
// instance generation, strict plan typing, clean/diverging rule verdicts,
// determinism, and the registration-time hooks in the compiler and
// exec::Session.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lint.h"
#include "magic/magic.h"
#include "rules/semantic.h"
#include "ruledsl/compiler.h"
#include "term/parser.h"
#include "testutil.h"
#include "verify/instance.h"
#include "verify/verify.h"

namespace eds::verify {
namespace {

rewrite::BuiltinRegistry& Registry() {
  static rewrite::BuiltinRegistry* reg = [] {
    auto* r = new rewrite::BuiltinRegistry();
    r->InstallStandard();
    magic::InstallMagicBuiltins(r);
    rules::InstallSemanticBuiltins(r);
    return r;
  }();
  return *reg;
}

// --- environment -----------------------------------------------------------

TEST(VerifyEnvTest, BuildsCornerDatabases) {
  auto env = VerifyEnv::Create(42, 3);
  EDS_ASSERT_OK_RESULT(env);
  ASSERT_EQ((*env)->instances().size(), 7u);  // base dups nulls empty rand0-2
  EXPECT_EQ((*env)->instances()[0].name, "base");
  EXPECT_EQ((*env)->instances()[3].name, "empty");
  EXPECT_TRUE((*env)->catalog().HasTable("V0"));
  EXPECT_TRUE((*env)->catalog().HasTable("VS"));
}

TEST(VerifyEnvTest, SnapshotRoundTripsThroughMaterialize) {
  auto env = VerifyEnv::Create(42, 0);
  EDS_ASSERT_OK_RESULT(env);
  VerifyEnv::Snapshot snap = (*env)->SnapshotOf(0);
  auto db = (*env)->Materialize(snap);
  EDS_ASSERT_OK_RESULT(db);
  auto t = (*db)->GetTable("V0");
  EDS_ASSERT_OK_RESULT(t);
  EXPECT_EQ((*t)->size(), 3u);
  EXPECT_NE(VerifyEnv::Describe(snap, 8).find("V0:"), std::string::npos);
}

// --- strict plan typing ----------------------------------------------------

TEST(TypeCheckPlanTest, AcceptsWellTypedAndRejectsRuntimeTypeErrors) {
  auto env = VerifyEnv::Create(42, 0);
  EDS_ASSERT_OK_RESULT(env);
  auto good = term::ParseTerm(
      "SEARCH(LIST(RELATION('V0')), ($1.1 = 1), LIST($1.1, $1.2))");
  EDS_ASSERT_OK_RESULT(good);
  EDS_EXPECT_OK(TypeCheckPlan(*good, (*env)->catalog()));

  // lera::InferExprType types NOT(<numeric>) as bool, but the executor's
  // function library raises TypeError at runtime — the strict checker must
  // reject it statically.
  auto bad = term::ParseTerm(
      "SEARCH(LIST(RELATION('V0')), NOT ($1.1), LIST($1.1, $1.2))");
  EDS_ASSERT_OK_RESULT(bad);
  EXPECT_FALSE(TypeCheckPlan(*bad, (*env)->catalog()).ok());
}

// --- instance generation ---------------------------------------------------

rewrite::Rule ParseOneRule(const std::string& text) {
  auto unit = ruledsl::ParseRuleSource(text);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_EQ(unit->rules.size(), 1u);
  return unit->rules[0];
}

TEST(InstantiatorTest, GeneratesTypedGroundInstances) {
  auto env = VerifyEnv::Create(42, 3);
  EDS_ASSERT_OK_RESULT(env);
  rewrite::Rule rule =
      ParseOneRule("r : SEARCH(i, f, p) / --> SEARCH(i, f, p) / ;");
  Instantiator inst(env->get(), 42);
  std::vector<RuleInstance> instances;
  EDS_ASSERT_OK(inst.Generate(rule, 24, &instances));
  ASSERT_GT(instances.size(), 8u);
  for (const RuleInstance& ri : instances) {
    EXPECT_TRUE(term::IsGround(ri.plan)) << ri.plan->ToString();
    EDS_EXPECT_OK(TypeCheckPlan(ri.plan, (*env)->catalog()));
    EXPECT_FALSE(ri.binding.empty());
  }
}

TEST(InstantiatorTest, WrapsQualSubjectsIntoExecutablePlans) {
  auto env = VerifyEnv::Create(42, 3);
  EDS_ASSERT_OK_RESULT(env);
  rewrite::Rule rule = ParseOneRule("r : (f AND g) / --> (g AND f) / ;");
  Instantiator inst(env->get(), 42);
  std::vector<RuleInstance> instances;
  EDS_ASSERT_OK(inst.Generate(rule, 24, &instances));
  ASSERT_FALSE(instances.empty());
  for (const RuleInstance& ri : instances) {
    EXPECT_EQ(ri.plan->functor(), "SEARCH") << ri.plan->ToString();
    EXPECT_NE(ri.plan, ri.subject);
  }
}

// --- verdicts --------------------------------------------------------------

TEST(VerifyRuleTest, SoundRuleProducesNoFindings) {
  rewrite::Rule rule = ParseOneRule("and_comm : (f AND g) / --> (g AND f) / ;");
  lint::LintReport report;
  RuleVerdict verdict;
  EDS_ASSERT_OK(VerifyRule(rule, Registry(), {}, &report, &verdict));
  EXPECT_TRUE(report.empty()) << report.ToString();
  EXPECT_GT(verdict.fired, 0u);
  EXPECT_GT(verdict.checked, 0u);
  EXPECT_FALSE(verdict.divergence);
}

TEST(VerifyRuleTest, DivergingRuleReportsCounterexample) {
  rewrite::Rule rule =
      ParseOneRule("lt_true : (x < y) / --> TRUE / ;");
  lint::LintReport report;
  RuleVerdict verdict;
  EDS_ASSERT_OK(VerifyRule(rule, Registry(), {}, &report, &verdict));
  ASSERT_EQ(report.error_count(), 1u) << report.ToString();
  std::vector<lint::Diagnostic> hits = report.WithId(kVerifyDivergence);
  ASSERT_FALSE(hits.empty());
  const lint::Diagnostic& d = hits[0];
  EXPECT_EQ(d.rule, "lt_true");
  EXPECT_NE(d.message.find("database:"), std::string::npos);
  EXPECT_NE(d.message.find("lhs rows:"), std::string::npos);
  EXPECT_NE(d.message.find("rhs rows:"), std::string::npos);
  EXPECT_TRUE(verdict.divergence);
}

TEST(VerifyRuleTest, DeterministicAcrossRuns) {
  rewrite::Rule rule =
      ParseOneRule("lt_true : (x < y) / --> TRUE / ;");
  lint::LintReport a, b;
  EDS_ASSERT_OK(VerifyRule(rule, Registry(), {}, &a));
  EDS_ASSERT_OK(VerifyRule(rule, Registry(), {}, &b));
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(VerifyLibraryTest, ParseFailureReportsS000) {
  lint::LintReport report = VerifyLibrary("this is not a rule", Registry());
  ASSERT_EQ(report.error_count(), 1u);
  EXPECT_EQ(report.diagnostics()[0].id, kVerifyInvalidRule);
}

TEST(VerifyProgramTest, DeduplicatesRulesAcrossBlocks) {
  auto unit = ruledsl::ParseRuleSource(
      "r : (f AND g) / --> (g AND f) / ;\n"
      "block(a, {r}, inf) ;\nblock(b, {r}, inf) ;\nseq({a, b}, 2) ;");
  EDS_ASSERT_OK_RESULT(unit);
  auto program = ruledsl::CompileProgram(*unit, Registry());
  EDS_ASSERT_OK_RESULT(program);
  lint::LintReport report;
  VerifySummary summary;
  EDS_ASSERT_OK(
      VerifyProgram(*program, Registry(), {}, &report, &summary));
  EXPECT_EQ(summary.rules, 1u);  // one distinct rule despite two blocks
  EXPECT_TRUE(report.empty()) << report.ToString();
}

// --- compiler hook ---------------------------------------------------------

TEST(CompilerHookTest, RunVerifyAppendsSoundnessFindings) {
  lint::LintReport report;
  ruledsl::CompileOptions opts;
  opts.diagnostics = &report;
  opts.run_verify = true;
  auto program = ruledsl::CompileRuleSource(
      "lt_true : (x < y) / --> TRUE / ;", Registry(), opts);
  EDS_ASSERT_OK_RESULT(program);  // verification never fails the compile
  EXPECT_GE(report.error_count(), 1u) << report.ToString();
  EXPECT_FALSE(report.WithId(kVerifyDivergence).empty());
}

// --- session hook ----------------------------------------------------------

TEST(SessionHookTest, LintFindingsSurfaceWithoutRejecting) {
  exec::Session session;
  lint::LintReport report;
  exec::ConstraintOptions opts;
  opts.diagnostics = &report;
  // Unparseable text still registers (diagnosed at optimizer build), but
  // the parse failure is surfaced as a lint line at registration time.
  EDS_ASSERT_OK(session.AddConstraint("broken", "not a rule", opts));
  EXPECT_FALSE(report.WithId(lint::kLintParseError).empty())
      << report.ToString();
}

TEST(SessionHookTest, VerifyRejectsUnsoundConstraint) {
  exec::Session session;
  lint::LintReport report;
  exec::ConstraintOptions opts;
  opts.diagnostics = &report;
  opts.run_verify = true;
  Status s = session.AddConstraint(
      "bogus", "lt_true : (x < y) / --> TRUE / ;", opts);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("soundness"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(report.WithId(kVerifyDivergence).empty()) << report.ToString();
  // The rejected constraint must not have reached the catalog.
  EXPECT_TRUE(session.catalog().constraints().empty());
}

TEST(SessionHookTest, VerifyAcceptsSoundConstraint) {
  exec::Session session;
  exec::ConstraintOptions opts;
  opts.run_verify = true;
  lint::LintReport report;
  opts.diagnostics = &report;
  EDS_ASSERT_OK(session.AddConstraint(
      "comm", "and_comm : (f AND g) / --> (g AND f) / ;", opts));
  EXPECT_EQ(report.error_count(), 0u) << report.ToString();
  EXPECT_EQ(session.catalog().constraints().size(), 1u);
}

}  // namespace
}  // namespace eds::verify
