// Fig. 9 — fixpoint reduction: adornments and the Alexander/Magic method.
#include "magic/magic.h"

#include "gtest/gtest.h"
#include "lera/lera.h"
#include "magic/adornment.h"
#include "rewrite/engine.h"
#include "rules/fixpoint.h"
#include "ruledsl/compiler.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds::magic {
namespace {

using term::TermRef;

TermRef P(const char* text) {
  auto r = term::ParseTerm(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

// The bilinear transitive-closure body over BEATS (Fig. 5's BETTER_THAN).
const char* kTcBody =
    "UNION(SET(SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2)), "
    "SEARCH(LIST(RELATION('TC'), RELATION('TC')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2))))";

TEST(AdornmentTest, DetectsBoundColumns) {
  Adornment a = ComputeAdornment(
      P("(($1.2 = 10) AND ($2.1 = 'x')) AND ($1.1 = $2.2)"), 1);
  ASSERT_EQ(a.bound.size(), 1u);
  EXPECT_EQ(a.bound[0].column, 2);
  EXPECT_EQ(a.bound[0].operand->constant(), value::Value::Int(10));
  EXPECT_EQ(a.Signature(2), "fb");
}

TEST(AdornmentTest, ConstantOnEitherSide) {
  Adornment a = ComputeAdornment(P("7 = $1.1"), 1);
  ASSERT_EQ(a.bound.size(), 1u);
  EXPECT_EQ(a.bound[0].column, 1);
  EXPECT_EQ(a.Signature(2), "bf");
}

TEST(AdornmentTest, IgnoresOtherInputsAndNonEq) {
  Adornment a = ComputeAdornment(P("($2.1 = 5) AND ($1.1 > 3)"), 1);
  EXPECT_FALSE(a.AnyBound());
  EXPECT_EQ(a.Signature(3), "fff");
}

TEST(AdornmentTest, MultipleBoundColumns) {
  Adornment a = ComputeAdornment(P("($1.1 = 1) AND ($1.2 = 2)"), 1);
  EXPECT_EQ(a.bound.size(), 2u);
  EXPECT_EQ(a.Signature(2), "bb");
}

TEST(MagicTest, ReferencesRelation) {
  EXPECT_TRUE(ReferencesRelation(P(kTcBody), "TC"));
  EXPECT_TRUE(ReferencesRelation(P(kTcBody), "tc"));  // case-insensitive
  EXPECT_FALSE(ReferencesRelation(P(kTcBody), "OTHER"));
}

TEST(MagicTest, BilinearTcForward) {
  Adornment a;
  a.bound.push_back(BoundColumn{1, term::Term::Int(3)});
  auto out = AlexanderTransform("TC", P(kTcBody), a);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(term::Equals(
      *out,
      P("FIX(RELATION('TC#M'), UNION(SET("
        "SEARCH(LIST(SEARCH(LIST(RELATION('BEATS')), TRUE, "
        "LIST($1.1, $1.2))), ($1.1 = 3), LIST($1.1, $1.2)), "
        "SEARCH(LIST(RELATION('TC#M'), SEARCH(LIST(RELATION('BEATS')), "
        "TRUE, LIST($1.1, $1.2))), ($1.2 = $2.1), LIST($1.1, $2.2)))))")));
}

TEST(MagicTest, BilinearTcBackward) {
  Adornment a;
  a.bound.push_back(BoundColumn{2, term::Term::Int(10)});
  auto out = AlexanderTransform("TC", P(kTcBody), a);
  ASSERT_TRUE(out.ok()) << out.status();
  // Backward: the base relation extends on the left of the magic set.
  auto body = lera::FixBody(*out);
  ASSERT_TRUE(body.ok());
  auto branches = lera::UnionInputs(*body);
  ASSERT_TRUE(branches.ok());
  bool found_backward_step = false;
  for (const TermRef& b : *branches) {
    if (!lera::IsSearch(b)) continue;
    auto inputs = lera::SearchInputs(b);
    if (inputs.ok() && inputs->size() == 2 &&
        lera::IsRelation((*inputs)[1]) &&
        *lera::RelationName((*inputs)[1]) == "TC#M") {
      found_backward_step = true;
    }
  }
  EXPECT_TRUE(found_backward_step);
}

TEST(MagicTest, RightLinearNeedsColumn1) {
  const char* body =
      "UNION(SET(RELATION('BASE'), "
      "SEARCH(LIST(RELATION('R'), RELATION('EDGE')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2))))";
  Adornment bound1, bound2;
  bound1.bound.push_back(BoundColumn{1, term::Term::Int(1)});
  bound2.bound.push_back(BoundColumn{2, term::Term::Int(1)});
  EXPECT_TRUE(AlexanderTransform("R", P(body), bound1).ok());
  EXPECT_EQ(AlexanderTransform("R", P(body), bound2).status().code(),
            StatusCode::kUnsupported);
}

TEST(MagicTest, LeftLinearNeedsColumn2) {
  const char* body =
      "UNION(SET(RELATION('BASE'), "
      "SEARCH(LIST(RELATION('EDGE'), RELATION('R')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2))))";
  Adornment bound1, bound2;
  bound1.bound.push_back(BoundColumn{1, term::Term::Int(1)});
  bound2.bound.push_back(BoundColumn{2, term::Term::Int(1)});
  EXPECT_EQ(AlexanderTransform("R", P(body), bound1).status().code(),
            StatusCode::kUnsupported);
  EXPECT_TRUE(AlexanderTransform("R", P(body), bound2).ok());
}

TEST(MagicTest, GeneralLinearArbitraryArity) {
  // Arity-3 linear recursion with a label column: R(a, b, label) over
  // labelled edges, extending on the right. Column 1 passes through the
  // recursive occurrence; column 2 comes from the edge input.
  const char* body =
      "UNION(SET(RELATION('LEDGE'), "
      "SEARCH(LIST(RELATION('R'), RELATION('LEDGE')), "
      "(($1.2 = $2.1) AND ($1.3 = $2.3)), LIST($1.1, $2.2, $1.3))))";
  Adornment bound1, bound2, bound3;
  bound1.bound.push_back(BoundColumn{1, term::Term::Int(5)});
  bound2.bound.push_back(BoundColumn{2, term::Term::Int(5)});
  bound3.bound.push_back(BoundColumn{3, term::Term::Str("x")});
  // Column 1 passes through (projs[0] = $1.1): focusable.
  auto out1 = AlexanderTransform("R", P(body), bound1);
  ASSERT_TRUE(out1.ok()) << out1.status();
  EXPECT_TRUE(term::Equals(
      *out1,
      P("FIX(RELATION('R#M'), UNION(SET("
        "SEARCH(LIST(RELATION('LEDGE')), ($1.1 = 5), "
        "LIST($1.1, $1.2, $1.3)), "
        "SEARCH(LIST(RELATION('R#M'), RELATION('LEDGE')), "
        "(($1.2 = $2.1) AND ($1.3 = $2.3)), "
        "LIST($1.1, $2.2, $1.3)))))")))
      << (*out1)->ToString();
  // Column 2 comes from the edge input: not focusable.
  EXPECT_EQ(AlexanderTransform("R", P(body), bound2).status().code(),
            StatusCode::kUnsupported);
  // Column 3 passes through ($1.3) but at a different column index (3 vs
  // projs[2] = ATTR(1, 3) — same index, so focusable too).
  EXPECT_TRUE(AlexanderTransform("R", P(body), bound3).ok());
}

TEST(MagicTest, MultipleBoundColumnsSeedTogether) {
  const char* body =
      "UNION(SET(RELATION('LEDGE'), "
      "SEARCH(LIST(RELATION('R'), RELATION('LEDGE')), "
      "(($1.2 = $2.1) AND ($1.3 = $2.3)), LIST($1.1, $2.2, $1.3))))";
  Adornment both;
  both.bound.push_back(BoundColumn{1, term::Term::Int(5)});
  both.bound.push_back(BoundColumn{3, term::Term::Str("x")});
  auto out = AlexanderTransform("R", P(body), both);
  ASSERT_TRUE(out.ok()) << out.status();
  // The base seed carries both selections.
  std::string s = (*out)->ToString();
  EXPECT_NE(s.find("($1.1 = 5)"), std::string::npos) << s;
  EXPECT_NE(s.find("($1.3 = 'x')"), std::string::npos) << s;
}

TEST(MagicTest, LinearWithExtraInputs) {
  // R joins two non-recursive inputs per step.
  const char* body =
      "UNION(SET(RELATION('BASE3'), "
      "SEARCH(LIST(RELATION('R'), RELATION('E1'), RELATION('E2')), "
      "(($1.2 = $2.1) AND ($2.2 = $3.1)), LIST($1.1, $3.2))))";
  Adornment bound1;
  bound1.bound.push_back(BoundColumn{1, term::Term::Int(1)});
  auto out = AlexanderTransform("R", P(body), bound1);
  ASSERT_TRUE(out.ok()) << out.status();
  std::string s = (*out)->ToString();
  EXPECT_NE(s.find("RELATION('R#M'), RELATION('E1'), RELATION('E2')"),
            std::string::npos)
      << s;
}

TEST(MagicTest, GeneralLinearExecutesCorrectly) {
  // Labelled-edge reachability end to end: the focused plan agrees with
  // the unfocused one and explores only the bound label + source cone.
  testutil::FilmDb db;
  EXPECT_TRUE(db.session
                  .ExecuteScript(R"(
    CREATE TABLE LEDGE (Src : INT, Dst : INT, Label : CHAR);
    CREATE VIEW LPATH (Src, Dst, Label) AS (
      SELECT Src, Dst, Label FROM LEDGE
      UNION
      SELECT P.Src, E.Dst, P.Label FROM LPATH P, LEDGE E
      WHERE P.Dst = E.Src AND P.Label = E.Label );
  )")
                  .ok());
  using value::Value;
  for (int i = 1; i < 12; ++i) {
    for (const char* label : {"a", "b"}) {
      EXPECT_TRUE(db.session
                      .InsertRow("LEDGE", {Value::Int(i), Value::Int(i + 1),
                                           Value::String(label)})
                      .ok());
    }
  }
  const char* query =
      "SELECT Dst FROM LPATH WHERE Src = 1 AND Label = 'a'";
  exec::QueryOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto raw = db.session.Query(query, no_rewrite);
  auto focused = db.session.Query(query);
  ASSERT_TRUE(raw.ok()) << raw.status();
  ASSERT_TRUE(focused.ok()) << focused.status();
  testutil::ExpectSameRows(raw->rows, focused->rows);
  EXPECT_EQ(raw->rows.size(), 11u);
  EXPECT_EQ(focused->rewrite_stats.applications_by_rule.count(
                "push_search_fixpoint"),
            1u);
  // Unfocused: both labels' full closures (2 * 66 pairs); focused: the
  // 'a'-cone from node 1 only.
  EXPECT_LT(focused->exec_stats.fix_tuples * 5,
            raw->exec_stats.fix_tuples);
}

TEST(MagicTest, UnsupportedShapesRejected) {
  Adornment a;
  a.bound.push_back(BoundColumn{1, term::Term::Int(1)});
  // Not a union.
  EXPECT_FALSE(AlexanderTransform("R", P("RELATION('R')"), a).ok());
  // Three branches.
  EXPECT_FALSE(
      AlexanderTransform(
          "R",
          P("UNION(SET(RELATION('A'), RELATION('B'), RELATION('R')))"), a)
          .ok());
  // Recursive branch is not a chain composition.
  EXPECT_FALSE(
      AlexanderTransform(
          "R",
          P("UNION(SET(RELATION('B'), SEARCH(LIST(RELATION('R'), "
            "RELATION('R')), ($1.1 = $2.1), LIST($1.1, $2.2))))"),
          a)
          .ok());
  // No bound column at all.
  EXPECT_EQ(
      AlexanderTransform("R", P(kTcBody), Adornment{}).status().code(),
      StatusCode::kUnsupported);
}

// A sig entry whose column is not an Int (a user rule can pass anything)
// is rejected, never read as an integer.
TEST(MagicTest, AlexanderRejectsNonIntSigColumn) {
  rewrite::BuiltinRegistry registry;
  InstallMagicBuiltins(&registry);
  term::Bindings env;
  for (const char* column : {"'x'", "1.5", "TRUE"}) {
    std::string sig = std::string("LIST(TUPLE(") + column + ", 10))";
    Status s = registry.InvokeMethod(
        "ALEXANDER",
        {P("RELATION('TC')"), P(kTcBody), P(sig.c_str()), term::Term::Var("u")},
        &env, rewrite::RewriteContext{});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << sig << ": " << s;
  }
}

TEST(MagicTest, AlreadyFocusedFixpointNotRefocused) {
  Adornment a;
  a.bound.push_back(BoundColumn{1, term::Term::Int(1)});
  EXPECT_EQ(AlexanderTransform("TC#M", P(kTcBody), a).status().code(),
            StatusCode::kUnsupported);
}

class FixpointRuleTest : public ::testing::Test {
 protected:
  FixpointRuleTest() {
    registry_.InstallStandard();
    InstallMagicBuiltins(&registry_);
    auto prog = ruledsl::CompileRuleSource(rules::FixpointRuleSource(),
                                           registry_);
    EXPECT_TRUE(prog.ok()) << prog.status();
    engine_ = std::make_unique<rewrite::Engine>(
        &db_.session.catalog(), &registry_, std::move(*prog));
  }

  testutil::FilmDb db_;
  rewrite::BuiltinRegistry registry_;
  std::unique_ptr<rewrite::Engine> engine_;
};

TEST_F(FixpointRuleTest, Fig9RuleFiresOnBoundSelection) {
  std::string query =
      "SEARCH(LIST(FIX(RELATION('TC'), " + std::string(kTcBody) +
      ")), ($1.2 = 10), LIST($1.1))";
  auto out = engine_->Rewrite(P(query.c_str()));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->stats.applications_by_rule.count("push_search_fixpoint"),
            1u);
  // The focused fixpoint replaces the original one.
  EXPECT_TRUE(ReferencesRelation(out->term, "TC#M"));
}

TEST_F(FixpointRuleTest, RuleDoesNotFireWithoutSelection) {
  std::string query = "SEARCH(LIST(FIX(RELATION('TC'), " +
                      std::string(kTcBody) + ")), ($1.1 = $1.2), LIST($1.1))";
  auto out = engine_->Rewrite(P(query.c_str()));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->stats.applications, 0u);
}

TEST_F(FixpointRuleTest, RuleDoesNotLoopOnFocusedFixpoint) {
  std::string query = "SEARCH(LIST(FIX(RELATION('TC'), " +
                      std::string(kTcBody) + ")), ($1.2 = 10), LIST($1.1))";
  auto once = engine_->Rewrite(P(query.c_str()));
  ASSERT_TRUE(once.ok());
  auto twice = engine_->Rewrite(once->term);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->stats.applications, 0u);
}

TEST_F(FixpointRuleTest, FocusedPlanEquivalentAndCheaper) {
  std::string query = "SEARCH(LIST(FIX(RELATION('TC'), " +
                      std::string(kTcBody) + ")), ($1.2 = 10), LIST($1.1))";
  TermRef raw = P(query.c_str());
  auto out = engine_->Rewrite(raw);
  ASSERT_TRUE(out.ok());
  exec::ExecStats raw_stats, focused_stats;
  auto raw_rows = db_.session.Run(raw, {}, &raw_stats);
  auto focused_rows = db_.session.Run(out->term, {}, &focused_stats);
  ASSERT_TRUE(raw_rows.ok()) << raw_rows.status();
  ASSERT_TRUE(focused_rows.ok()) << focused_rows.status();
  testutil::ExpectSameRows(*raw_rows, *focused_rows);
  EXPECT_EQ(raw_rows->size(), 9u);  // all of 1..9 reach 10
  // The chain 1..10 has 45 closure tuples; the backward cone of 10 has 9.
  EXPECT_EQ(raw_stats.fix_tuples, 45u);
  EXPECT_EQ(focused_stats.fix_tuples, 9u);
}

}  // namespace
}  // namespace eds::magic
