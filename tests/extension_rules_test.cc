// Extension rule library: pushdown through set operations and disjunction
// splitting — the "rules added over time" story of §7.
#include "rules/extensions.h"

#include "gtest/gtest.h"
#include "lera/lera.h"
#include "rewrite/engine.h"
#include "rules/merging.h"
#include "ruledsl/compiler.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds::rules {
namespace {

using term::TermRef;

TermRef P(const char* text) {
  auto r = term::ParseTerm(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

class ExtensionRulesTest : public ::testing::Test {
 protected:
  ExtensionRulesTest() {
    registry_.InstallStandard();
    std::string source = std::string(ExtensionRuleSource()) +
                         MergingRuleSource() +
                         "block(ext, {push_search_difference, "
                         "push_search_intersect, or_to_union, "
                         "intersect_self, difference_self, union_collapse, "
                         "union_merge, search_merge}, inf) ;\n"
                         "seq({ext}, 1) ;";
    auto prog = ruledsl::CompileRuleSource(source, registry_);
    EXPECT_TRUE(prog.ok()) << prog.status();
    engine_ = std::make_unique<rewrite::Engine>(
        &db_.session.catalog(), &registry_, std::move(*prog));
  }

  TermRef Rewrite(const char* query) {
    auto out = engine_->Rewrite(P(query));
    EXPECT_TRUE(out.ok()) << out.status();
    return out.ok() ? out->term : nullptr;
  }

  void ExpectEquivalent(const char* query) {
    TermRef raw = P(query);
    TermRef rewritten = Rewrite(query);
    auto raw_rows = db_.session.Run(raw);
    auto new_rows = db_.session.Run(rewritten);
    ASSERT_TRUE(raw_rows.ok()) << raw_rows.status();
    ASSERT_TRUE(new_rows.ok()) << new_rows.status();
    testutil::ExpectSameRows(*raw_rows, *new_rows);
  }

  testutil::FilmDb db_;
  rewrite::BuiltinRegistry registry_;
  std::unique_ptr<rewrite::Engine> engine_;
};

TEST_F(ExtensionRulesTest, PushThroughDifferenceBothSides) {
  TermRef out = Rewrite(
      "SEARCH(LIST(DIFFERENCE(RELATION('BEATS'), RELATION('DOMINATE'))), "
      "($1.1 = 3), LIST($1.1, $1.2))");
  ASSERT_NE(out, nullptr);
  // Both DIFFERENCE sides gained the filter; the merging rules then merge
  // the branch searches into the base relations.
  std::string text = out->ToString();
  EXPECT_NE(text.find("DIFFERENCE"), std::string::npos) << text;
  // The residual outer qualification is TRUE.
  auto qual = lera::SearchQual(out);
  ASSERT_TRUE(qual.ok());
  EXPECT_TRUE(term::Equals(*qual, P("TRUE"))) << text;
}

TEST_F(ExtensionRulesTest, DifferenceEquivalence) {
  // BEATS \ (BEATS where Winner > 5), filtered.
  ExpectEquivalent(
      "SEARCH(LIST(DIFFERENCE(RELATION('BEATS'), "
      "SEARCH(LIST(RELATION('BEATS')), ($1.1 > 5), LIST($1.1, $1.2)))), "
      "($1.2 < 5), LIST($1.1))");
}

TEST_F(ExtensionRulesTest, PushThroughIntersectLeftSide) {
  TermRef out = Rewrite(
      "SEARCH(LIST(INTERSECT(RELATION('BEATS'), RELATION('BEATS'))), "
      "($1.1 = 3), LIST($1.1, $1.2))");
  ASSERT_NE(out, nullptr);
  auto qual = lera::SearchQual(out);
  ASSERT_TRUE(qual.ok());
  EXPECT_TRUE(term::Equals(*qual, P("TRUE"))) << out->ToString();
}

TEST_F(ExtensionRulesTest, IntersectEquivalence) {
  ExpectEquivalent(
      "SEARCH(LIST(INTERSECT(RELATION('BEATS'), RELATION('BEATS'))), "
      "($1.1 > 4), LIST($1.2))");
}

TEST_F(ExtensionRulesTest, OrSplitsIntoUnion) {
  TermRef out = Rewrite(
      "SEARCH(LIST(RELATION('BEATS')), (($1.1 = 1) OR ($1.2 = 9)), "
      "LIST($1.1, $1.2))");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(lera::IsUnion(out)) << out->ToString();
  auto inputs = lera::UnionInputs(out);
  ASSERT_TRUE(inputs.ok());
  EXPECT_EQ(inputs->size(), 2u);
}

TEST_F(ExtensionRulesTest, OrSplitEquivalenceUnderSetSemantics) {
  ExpectEquivalent(
      "SEARCH(LIST(RELATION('BEATS')), (($1.1 < 3) OR ($1.1 > 7)), "
      "LIST($1.1, $1.2))");
  // Overlapping disjuncts: set semantics absorb the duplicates.
  ExpectEquivalent(
      "SEARCH(LIST(RELATION('BEATS')), (($1.1 < 5) OR ($1.1 < 8)), "
      "LIST($1.1, $1.2))");
}

TEST_F(ExtensionRulesTest, NestedOrsSplitRecursively) {
  TermRef out = Rewrite(
      "SEARCH(LIST(RELATION('BEATS')), ((($1.1 = 1) OR ($1.1 = 2)) OR "
      "($1.1 = 3)), LIST($1.1))");
  ASSERT_NE(out, nullptr);
  // Fully split: a union whose branches have no OR in their quals. The
  // union_merge rule flattens the nesting.
  EXPECT_TRUE(lera::IsUnion(out)) << out->ToString();
  auto inputs = lera::UnionInputs(out);
  ASSERT_TRUE(inputs.ok());
  EXPECT_EQ(inputs->size(), 3u) << out->ToString();
}

TEST_F(ExtensionRulesTest, SelfIdentities) {
  EXPECT_TRUE(term::Equals(
      Rewrite("INTERSECT(RELATION('BEATS'), RELATION('BEATS'))"),
      P("RELATION('BEATS')")));
  TermRef out = Rewrite(
      "DIFFERENCE(RELATION('BEATS'), RELATION('BEATS'))");
  ASSERT_NE(out, nullptr);
  auto qual = lera::SearchQual(out);
  ASSERT_TRUE(qual.ok());
  EXPECT_TRUE(term::Equals(*qual, P("FALSE")));
  auto rows = db_.session.Run(out);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(ExtensionRulesTest, DifferencePushReducesWork) {
  // The difference's inputs share one width, as executed set operations
  // must: BEATS and two of DOMINATE's three columns.
  const char* query =
      "SEARCH(LIST(DIFFERENCE(RELATION('BEATS'), "
      "SEARCH(LIST(RELATION('DOMINATE')), TRUE, LIST($1.1, $1.2)))), "
      "($1.1 = 3), LIST($1.1, $1.2))";
  TermRef raw = P(query);
  TermRef pushed = Rewrite(query);
  exec::ExecStats raw_stats, pushed_stats;
  ASSERT_TRUE(db_.session.Run(raw, {}, &raw_stats).ok());
  ASSERT_TRUE(db_.session.Run(pushed, {}, &pushed_stats).ok());
  // Pushed plan filters before the set difference's dedup/compare work.
  EXPECT_LE(pushed_stats.rows_output, raw_stats.rows_output);
}

TEST_F(ExtensionRulesTest, MixedTreeEndToEnd) {
  // Set operations over inputs of one width: BEATS and two of DOMINATE's
  // three columns.
  ExpectEquivalent(
      "SEARCH(LIST(DIFFERENCE(UNION(SET(RELATION('BEATS'), "
      "SEARCH(LIST(RELATION('DOMINATE')), TRUE, LIST($1.1, $1.2)))), "
      "SEARCH(LIST(RELATION('DOMINATE')), TRUE, LIST($1.1, $1.2)))), "
      "(($1.1 = 2) OR ($1.2 = 3)), LIST($1.1, $1.2))");
}

}  // namespace
}  // namespace eds::rules
