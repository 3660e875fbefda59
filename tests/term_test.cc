#include "term/term.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "term/interner.h"
#include "term/parser.h"
#include "term/substitution.h"

namespace eds::term {
namespace {

TermRef P(const char* text) {
  auto r = ParseTerm(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

TEST(TermTest, FactoriesAndAccessors) {
  TermRef t = Term::Apply("F", {Term::Int(1), Term::Var("x")});
  ASSERT_TRUE(t->is_apply());
  EXPECT_EQ(t->functor(), "F");
  EXPECT_EQ(t->arity(), 2u);
  EXPECT_TRUE(t->arg(0)->is_constant());
  EXPECT_TRUE(t->arg(1)->is_variable());
  EXPECT_EQ(t->arg(1)->var_name(), "x");
}

TEST(TermTest, FunctorsCanonicalizedUpper) {
  EXPECT_EQ(Term::Apply("search", {})->functor(), "SEARCH");
  EXPECT_TRUE(Term::Apply("and", {Term::True(), Term::True()})
                  ->IsApply(kAnd, 2));
}

TEST(TermTest, EqualsAndCompare) {
  EXPECT_TRUE(Equals(P("F(x, 1)"), P("F(x, 1)")));
  EXPECT_FALSE(Equals(P("F(x, 1)"), P("F(x, 2)")));
  EXPECT_FALSE(Equals(P("F(x)"), P("G(x)")));
  EXPECT_FALSE(Equals(P("F(x)"), P("F(x, x)")));
  EXPECT_NE(Compare(P("F(1)"), P("F(2)")), 0);
  EXPECT_EQ(Compare(P("F(1)"), P("F(1)")), 0);
}

TEST(TermTest, HashConsistentWithEquals) {
  EXPECT_EQ(Hash(P("SEARCH(LIST(x), f, a)")), Hash(P("SEARCH(LIST(x), f, a)")));
  EXPECT_NE(Hash(P("F(1)")), Hash(P("F(2)")));
}

TEST(TermTest, IsGround) {
  EXPECT_TRUE(IsGround(P("F(1, 'a', TRUE)")));
  EXPECT_FALSE(IsGround(P("F(x)")));
  EXPECT_FALSE(IsGround(P("F(LIST(y*))")));
}

TEST(TermTest, CollectVariables) {
  std::vector<std::string> vars, coll;
  CollectVariables(P("F(x, G(y, x), LIST(z*, w))"), &vars, &coll);
  EXPECT_EQ(vars, (std::vector<std::string>{"x", "y", "w"}));
  EXPECT_EQ(coll, (std::vector<std::string>{"z"}));
}

TEST(TermTest, CollectVariablesIncludesFunctorVars) {
  std::vector<std::string> vars, coll;
  CollectVariables(P("?F(x)"), &vars, &coll);
  EXPECT_EQ(vars, (std::vector<std::string>{"?F", "x"}));
}

TEST(TermTest, CountNodes) {
  EXPECT_EQ(CountNodes(P("x")), 1u);
  EXPECT_EQ(CountNodes(P("F(x, G(1))")), 4u);
}

TEST(TermTest, WithArgsReusesUnchanged) {
  TermRef t = P("F(x, y)");
  TermRef same = WithArgs(t, {t->arg(0), t->arg(1)});
  EXPECT_EQ(same.get(), t.get());
  TermRef changed = WithArgs(t, {t->arg(1), t->arg(0)});
  EXPECT_NE(changed.get(), t.get());
  EXPECT_TRUE(Equals(changed, P("F(y, x)")));
}

TEST(TermTest, ConjunctsFlattenNestedAnd) {
  TermList cs = Conjuncts(P("(a AND b) AND (c AND d)"));
  ASSERT_EQ(cs.size(), 4u);
  EXPECT_TRUE(Equals(cs[0], P("a")));
  EXPECT_TRUE(Equals(cs[3], P("d")));
  // A non-AND term is its own single conjunct.
  EXPECT_EQ(Conjuncts(P("x = y")).size(), 1u);
}

TEST(TermTest, MakeConjunction) {
  EXPECT_TRUE(Equals(MakeConjunction({}), Term::True()));
  EXPECT_TRUE(Equals(MakeConjunction({P("a")}), P("a")));
  EXPECT_TRUE(Equals(MakeConjunction({P("a"), P("b"), P("c")}),
                     P("(a AND b) AND c")));
}

TEST(TermPrintTest, InfixForms) {
  EXPECT_EQ(P("x = y")->ToString(), "(x = y)");
  EXPECT_EQ(P("x <= 3")->ToString(), "(x <= 3)");
  EXPECT_EQ(P("a AND b OR c")->ToString(), "((a AND b) OR c)");
  EXPECT_EQ(P("NOT x")->ToString(), "NOT(x)");
}

TEST(TermPrintTest, AttrRefs) {
  EXPECT_EQ(Term::Attr(1, 2)->ToString(), "$1.2");
  EXPECT_EQ(P("$2.3 = 'Quinn'")->ToString(), "($2.3 = 'Quinn')");
}

TEST(TermPrintTest, CollectionVariables) {
  EXPECT_EQ(P("F(SET(x*, G(y)))")->ToString(), "F(SET(x*, G(y)))");
}

TEST(TermParseTest, RoundTrip) {
  for (const char* text : {
           "SEARCH(LIST(RELATION('FILM')), ($1.1 = 10), LIST($1.2))",
           "F(SET(x*, G(y, f)))",
           "((x > y) AND NOT(MEMBER('Cartoon', c)))",
           "FIX(RELATION('BT'), UNION(SET(a, b)))",
           "(($1.1 + 2) * 3)",
           "?F(x, y)",
           "TUPLE(1, 'a', TRUE)",
       }) {
    TermRef t = P(text);
    ASSERT_NE(t, nullptr) << text;
    TermRef back = P(t->ToString().c_str());
    ASSERT_NE(back, nullptr) << t->ToString();
    EXPECT_TRUE(Equals(t, back)) << text << " vs " << t->ToString();
  }
}

TEST(TermParseTest, NegativeNumbersFold) {
  EXPECT_TRUE(Equals(P("-5"), Term::Int(-5)));
  EXPECT_TRUE(Equals(P("-2.5"), Term::Real(-2.5)));
  EXPECT_TRUE(Equals(P("-x"), Term::Apply("NEG", {Term::Var("x")})));
}

TEST(TermParseTest, StringEscapes) {
  TermRef t = P("'it''s'");
  ASSERT_TRUE(t->is_constant());
  EXPECT_EQ(t->constant().AsString(), "it's");
}

TEST(TermParseTest, Precedence) {
  // Comparison binds tighter than AND, arithmetic tighter than comparison.
  EXPECT_TRUE(
      Equals(P("x + 1 > y AND z = 2"), P("((x + 1) > y) AND (z = 2)")));
}

TEST(TermParseTest, Errors) {
  EXPECT_FALSE(ParseTerm("F(").ok());
  EXPECT_FALSE(ParseTerm("F(x)) extra").ok());
  EXPECT_FALSE(ParseTerm("'unterminated").ok());
  EXPECT_FALSE(ParseTerm("$1.").ok());
  EXPECT_FALSE(ParseTerm("").ok());
}

TEST(SubstitutionTest, BindVarConsistency) {
  Bindings env;
  EXPECT_TRUE(env.BindVar("x", P("F(1)")));
  EXPECT_TRUE(env.BindVar("x", P("F(1)")));   // same term: ok
  EXPECT_FALSE(env.BindVar("x", P("F(2)")));  // conflicting: rejected
}

TEST(SubstitutionTest, ApplySubstitutionSplicesCollVars) {
  Bindings env;
  env.SetVar("y", P("c"));
  env.SetCollVar("x", {P("a"), P("b")});
  auto out = ApplySubstitution(P("F(LIST(x*, y))"), env);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(Equals(*out, P("F(LIST(a, b, c))")));
}

TEST(SubstitutionTest, EmptyCollVarSplicesNothing) {
  Bindings env;
  env.SetCollVar("x", {});
  auto out = ApplySubstitution(P("F(LIST(x*))"), env);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(Equals(*out, P("F(LIST())")));
}

TEST(SubstitutionTest, UnboundVariableIsError) {
  Bindings env;
  EXPECT_FALSE(ApplySubstitution(P("F(x)"), env).ok());
  EXPECT_FALSE(ApplySubstitution(P("F(LIST(x*))"), env).ok());
}

TEST(SubstitutionTest, FunctorVariableResolves) {
  Bindings env;
  env.SetVar("?F", Term::Str("MEMBER"));
  env.SetVar("x", P("1"));
  env.SetVar("y", P("s"));
  auto out = ApplySubstitution(P("?F(x, y)"), env);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(Equals(*out, P("MEMBER(1, s)")));
}

TEST(SubstitutionTest, SharedSubtreesReused) {
  Bindings env;
  TermRef ground = P("G(1, 2)");
  auto out = ApplySubstitution(ground, env);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->get(), ground.get());  // untouched tree is shared
}

TEST(SubstitutionTest, BindingsToString) {
  Bindings env;
  env.SetVar("x", P("F(1)"));
  env.SetCollVar("y", {P("a")});
  EXPECT_EQ(env.ToString(), "{x := F(1), y* := [a]}");
}

// ---- hash-consing ----

TEST(InternerTest, StructurallyEqualTermsArePointerIdentical) {
  TermRef a = Term::Apply("F", {Term::Int(1), Term::Var("x")});
  TermRef b = Term::Apply("f", {Term::Int(1), Term::Var("x")});
  EXPECT_EQ(a.get(), b.get());  // functor case-folds before interning
  EXPECT_EQ(P("SEARCH(LIST(RELATION('R')), G($1.1), LIST($1.2))").get(),
            P("SEARCH(LIST(RELATION('R')), G($1.1), LIST($1.2))").get());
  EXPECT_NE(P("F(1)").get(), P("F(2)").get());
  EXPECT_NE(Term::Var("x").get(), Term::CollVar("x").get());
}

TEST(InternerTest, CachedFactsMatchDeepRecomputation) {
  for (const char* text :
       {"1", "x", "F(G(1, 'a'), SET(x, y*, 2), ?H(x))",
        "SEARCH(LIST(RELATION('R')), AND($1.1 = 5, MEMBER(1, SET(1, 2))), "
        "LIST($1.2))"}) {
    TermRef t = P(text);
    EXPECT_EQ(t->structural_hash(), DeepHash(t)) << text;
    EXPECT_EQ(t->node_count(), DeepCountNodes(t)) << text;
    EXPECT_EQ(t->ground(), DeepIsGround(t)) << text;
    EXPECT_TRUE(t->interned()) << text;
  }
}

TEST(InternerTest, PatternFreeExcludesFunctorVariables) {
  EXPECT_TRUE(P("F(G(1), 'a')")->pattern_free());
  EXPECT_FALSE(P("F(x)")->pattern_free());
  EXPECT_FALSE(P("F(y*)")->pattern_free());
  // ?H(1) is ground by the IsGround definition (no variable *nodes*) but
  // not pattern-free: substitution resolves the functor variable.
  TermRef fv = P("?H(1)");
  EXPECT_TRUE(fv->ground());
  EXPECT_FALSE(fv->pattern_free());
  EXPECT_FALSE(P("F(?H(1))")->pattern_free());
}

TEST(InternerTest, IntAndRealInternSeparatelyButCompareEqual) {
  TermRef i = Term::Int(2);
  TermRef r = Term::Real(2.0);
  EXPECT_NE(i.get(), r.get());  // exact payloads differ: kInt vs kReal
  EXPECT_TRUE(Equals(i, r));    // but value::Compare says equal
  EXPECT_EQ(Hash(i), Hash(r));  // so their hashes must agree too
  EXPECT_EQ(Compare(i, r), 0);
}

TEST(InternerTest, HitsAndMissesAreCounted) {
  Interner& interner = Interner::Global();
  Interner::Stats before = interner.GetStats();
  TermRef fresh = Term::Apply("INTERNERTESTONLY", {Term::Int(7)});
  Interner::Stats after_fresh = interner.GetStats();
  EXPECT_GT(after_fresh.misses, before.misses);
  TermRef again = Term::Apply("INTERNERTESTONLY", {Term::Int(7)});
  Interner::Stats after_again = interner.GetStats();
  EXPECT_EQ(again.get(), fresh.get());
  EXPECT_GT(after_again.hits, after_fresh.hits);
}

TEST(InternerTest, DeadTermLeavesTheTableAtOnce) {
  Interner& interner = Interner::Global();
  const size_t live = interner.GetStats().entries;
  {
    TermRef doomed =
        Term::Apply("DEADTERMTESTONLY", {Term::Int(1), P("G(2)")});
    EXPECT_GE(interner.GetStats().entries, live + 1);
  }
  // The last reference took DEADTERMTESTONLY and every child that nothing
  // else holds out of the table: no sweep is needed to get back.
  EXPECT_EQ(interner.GetStats().entries, live);
  TermRef recreated =
      Term::Apply("DEADTERMTESTONLY", {Term::Int(1), P("G(2)")});
  EXPECT_TRUE(recreated->interned());
}

TEST(InternerTest, TableShrinksAfterAFlood) {
  Interner& interner = Interner::Global();
  const Interner::Stats baseline = interner.GetStats();
  {
    TermList flood;
    flood.reserve(100000);
    for (int64_t i = 0; i < 100000; ++i) {
      flood.push_back(Term::Apply("FLOODTESTONLY", {Term::Int(i)}));
    }
    Interner::Stats full = interner.GetStats();
    EXPECT_GE(full.entries, baseline.entries + 100000);
    EXPECT_GT(full.capacity, full.entries);
  }
  const Interner::Stats after = interner.GetStats();
  EXPECT_EQ(after.entries, baseline.entries);
  EXPECT_LE(after.capacity, 2 * baseline.capacity);
  EXPECT_GT(after.capacity, after.entries);
}

// Four threads intern and drop overlapping nested terms, so lookups race
// the release that takes a twin's count to zero. Whenever two equal terms
// are alive at once they must be one node, and once every thread is done
// the table holds exactly what it held before.
TEST(InternerTest, ConcurrentInternAndReleaseStayCanonical) {
  Interner& interner = Interner::Global();
  const size_t live = interner.GetStats().entries;
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  constexpr int kShapes = 24;
  auto build = [](int shape) {
    TermRef leaf = Term::Apply("RACETESTONLY", {Term::Int(shape % 8)});
    return Term::Apply("RACETESTONLY",
                       {leaf, Term::Apply("RACETESTONLY",
                                          {Term::Int(shape), leaf})});
  };
  // A handful of terms every thread holds throughout: their twins built by
  // any thread must be them.
  TermList pinned;
  for (int s = 0; s < 4; ++s) pinned.push_back(build(s));
  const size_t with_pinned = interner.GetStats().entries;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TermList held;
      for (int r = 0; r < kRounds; ++r) {
        const int shape = (r * 7 + t) % kShapes;
        TermRef a = build(shape);
        TermRef b = build(shape);
        if (a.get() != b.get()) mismatches.fetch_add(1);
        if (shape < 4 && a.get() != pinned[static_cast<size_t>(shape)].get()) {
          mismatches.fetch_add(1);
        }
        // Keep a few alive across rounds so some releases are the last
        // one and others are not.
        if (r % 3 == 0) held.push_back(std::move(a));
        if (held.size() > 5) held.erase(held.begin());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(interner.GetStats().entries, with_pinned);
  pinned.clear();
  EXPECT_EQ(interner.GetStats().entries, live);
}

TEST(InternerTest, DegenerateBucketsStayCorrect) {
  Interner::SetDegenerateBucketsForTesting(true);
  TermRef a = Term::Apply("DEGENTESTONLY", {Term::Int(1)});
  TermRef b = Term::Apply("DEGENTESTONLY", {Term::Int(1)});
  TermRef c = Term::Apply("DEGENTESTONLY", {Term::Int(2)});
  Interner::SetDegenerateBucketsForTesting(false);
  EXPECT_EQ(a.get(), b.get());  // dedup is exact even with one bucket
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->structural_hash(), DeepHash(a));
  // Nodes interned while degenerate unify with normally-bucketed twins
  // through Equals (never through pointer identity across the switch).
  EXPECT_TRUE(Equals(a, b));
}

TEST(InternerTest, CloneWithForcedHashIsUninterned) {
  TermRef orig = P("F(G(1), 2)");
  TermRef clone = testing::CloneWithHashForTesting(orig, 42u);
  EXPECT_NE(clone.get(), orig.get());
  EXPECT_FALSE(clone->interned());
  EXPECT_EQ(clone->structural_hash(), 42u);
  EXPECT_EQ(clone->node_count(), orig->node_count());
  EXPECT_TRUE(DeepEquals(clone, orig));
  // A forced-collision pair: structurally different, hashes equal.
  TermRef other = testing::CloneWithHashForTesting(P("H(9)"), 42u);
  EXPECT_EQ(clone->structural_hash(), other->structural_hash());
  EXPECT_FALSE(DeepEquals(clone, other));
  EXPECT_FALSE(Equals(clone, other));  // deep fallback resolves the clash
}

}  // namespace
}  // namespace eds::term
