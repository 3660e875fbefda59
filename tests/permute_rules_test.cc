// Fig. 8 — operation permutation rules (push search through union / nest).
#include "rules/permutation.h"

#include <functional>

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

class PermuteRulesTest : public ::testing::Test {
 protected:
  PermuteRulesTest() {
    registry_.InstallStandard();
    // Permutation rules need union_collapse from the merging library.
    std::string source = std::string(PermutationRuleSource()) +
                         MergingRuleSource() +
                         "block(push, {push_search_union, push_search_nest, "
                         "union_collapse}, inf) ;\n"
                         "seq({push}, 1) ;";
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
    TermRef pushed = Rewrite(query);
    auto raw_rows = db_.session.Run(raw);
    auto pushed_rows = db_.session.Run(pushed);
    ASSERT_TRUE(raw_rows.ok()) << raw_rows.status();
    ASSERT_TRUE(pushed_rows.ok()) << pushed_rows.status();
    testutil::ExpectSameRows(*raw_rows, *pushed_rows);
  }

  testutil::FilmDb db_;
  rewrite::BuiltinRegistry registry_;
  std::unique_ptr<rewrite::Engine> engine_;
};

TEST_F(PermuteRulesTest, PushThroughBinaryUnion) {
  // Fig. 8's first rule: a search over a union becomes a union of
  // searches.
  TermRef out = Rewrite(
      "SEARCH(LIST(UNION(SET(RELATION('A'), RELATION('B')))), ($1.1 = 1), "
      "LIST($1.2))");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(term::Equals(
      out,
      P("UNION(SET(SEARCH(LIST(RELATION('A')), ($1.1 = 1), LIST($1.2)), "
        "SEARCH(LIST(RELATION('B')), ($1.1 = 1), LIST($1.2))))"))
      || term::Equals(
             out,
             P("UNION(SET(SEARCH(LIST(RELATION('B')), ($1.1 = 1), "
               "LIST($1.2)), SEARCH(LIST(RELATION('A')), ($1.1 = 1), "
               "LIST($1.2))))")));
}

TEST_F(PermuteRulesTest, PushThroughNaryUnionPeelsAllBranches) {
  TermRef out = Rewrite(
      "SEARCH(LIST(UNION(SET(RELATION('A'), RELATION('B'), RELATION('C')))), "
      "($1.1 = 1), LIST($1.1))");
  ASSERT_NE(out, nullptr);
  // No SEARCH-over-UNION may remain anywhere.
  std::function<bool(const TermRef&)> has_search_over_union =
      [&](const TermRef& t) -> bool {
    if (lera::IsSearch(t)) {
      auto inputs = lera::SearchInputs(t);
      if (inputs.ok()) {
        for (const TermRef& in : *inputs) {
          if (lera::IsUnion(in)) return true;
        }
      }
    }
    if (t->is_apply()) {
      for (const TermRef& a : t->args()) {
        if (has_search_over_union(a)) return true;
      }
    }
    return false;
  };
  EXPECT_FALSE(has_search_over_union(out));
}

TEST_F(PermuteRulesTest, PushThroughUnionPreservesSiblingPositions) {
  // The union is the second of two inputs; attribute references must stay
  // valid in both branches.
  ExpectEquivalent(
      "SEARCH(LIST(RELATION('FILM'), UNION(SET(RELATION('BEATS'), "
      "RELATION('BEATS')))), (($1.1 = $2.1) AND ($2.2 = 4)), "
      "LIST($1.2, $2.2))");
}

TEST_F(PermuteRulesTest, PushThroughUnionEquivalence) {
  // A union's inputs share one width: BEATS with two of DOMINATE's three
  // columns.
  ExpectEquivalent(
      "SEARCH(LIST(UNION(SET(RELATION('BEATS'), "
      "SEARCH(LIST(RELATION('DOMINATE')), TRUE, LIST($1.1, $1.2))))), "
      "($1.1 = 1), LIST($1.1, $1.2))");
}

TEST_F(PermuteRulesTest, PushThroughNestMovesPushableConjuncts) {
  // NEST(APPEARS_IN, [2], 'Actors') produces (Numf, Actors); the Numf
  // conjunct is pushable, the set-valued one is not (REFER constraint).
  TermRef out = Rewrite(
      "SEARCH(LIST(NEST(RELATION('APPEARS_IN'), LIST(2), 'Actors')), "
      "(($1.1 = 1) AND ISEMPTY($1.2)), LIST($1.1))");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(term::Equals(
      out,
      P("SEARCH(LIST(NEST(SEARCH(LIST(RELATION('APPEARS_IN')), ($1.1 = 1), "
        "LIST($1.1, $1.2)), LIST(2), 'Actors')), ISEMPTY($1.2), "
        "LIST($1.1))")));
}

TEST_F(PermuteRulesTest, PushThroughNestDoesNotFireOnNestedAttrs) {
  // The only conjunct touches the nested column: nothing to push.
  const char* query =
      "SEARCH(LIST(NEST(RELATION('APPEARS_IN'), LIST(2), 'Actors')), "
      "ISEMPTY($1.2), LIST($1.1))";
  TermRef out = Rewrite(query);
  EXPECT_TRUE(term::Equals(out, P(query)));
}

TEST_F(PermuteRulesTest, PushThroughNestEquivalence) {
  ExpectEquivalent(
      "SEARCH(LIST(NEST(RELATION('APPEARS_IN'), LIST(2), 'Actors')), "
      "($1.1 = 1), LIST($1.1, $1.2))");
}

TEST_F(PermuteRulesTest, PushThroughNestTerminates) {
  // A second pass must not fire again (SPLIT_QUAL finds nothing pushable
  // in the residual qualification).
  const char* query =
      "SEARCH(LIST(NEST(RELATION('APPEARS_IN'), LIST(2), 'Actors')), "
      "($1.1 = 1), LIST($1.1))";
  TermRef once = Rewrite(query);
  auto out2 = engine_->Rewrite(once);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->stats.applications, 0u) << out2->term->ToString();
}

TEST_F(PermuteRulesTest, NestPushReducesGroupingWork) {
  // The pushed plan nests fewer rows: observable via executor stats.
  const char* query =
      "SEARCH(LIST(NEST(RELATION('APPEARS_IN'), LIST(2), 'Actors')), "
      "($1.1 = 1), LIST($1.1, $1.2))";
  TermRef raw = P(query);
  TermRef pushed = Rewrite(query);
  exec::ExecStats raw_stats, pushed_stats;
  ASSERT_TRUE(db_.session.Run(raw, {}, &raw_stats).ok());
  ASSERT_TRUE(db_.session.Run(pushed, {}, &pushed_stats).ok());
  // Raw nests all 4 APPEARS_IN rows then filters; pushed filters first.
  EXPECT_LT(pushed_stats.qual_evaluations, raw_stats.qual_evaluations + 3);
}

}  // namespace
}  // namespace eds::rules
