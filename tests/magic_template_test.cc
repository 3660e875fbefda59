// Template replay on recursive plans: the plan cache rewrites a FIX plan's
// parameterized template once and replays the normal form for every
// literal. For each binding pattern of a closure over VEDGE, the replayed
// plan must return the same bag as a fresh rewrite of the literal plan,
// and scan no more rows, on every verifier corner database (base, dups,
// nulls, empty, random fills).
#include <algorithm>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "gtest/gtest.h"
#include "rules/optimizer.h"
#include "srv/fingerprint.h"
#include "term/parser.h"
#include "verify/instance.h"

namespace eds {
namespace {

using term::TermRef;

// Right-linear transitive closure of VEDGE (CLO ∘ VEDGE).
const char* kRightLinear =
    "UNION(SET(RELATION('VEDGE'), "
    "SEARCH(LIST(RELATION('CLO'), RELATION('VEDGE')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2))))";
// Left-linear closure (VEDGE ∘ CLO).
const char* kLeftLinear =
    "UNION(SET(RELATION('VEDGE'), "
    "SEARCH(LIST(RELATION('VEDGE'), RELATION('CLO')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2))))";
// Bilinear closure (CLO ∘ CLO, the shape of Fig. 5's BETTER_THAN).
const char* kBilinear =
    "UNION(SET(RELATION('VEDGE'), "
    "SEARCH(LIST(RELATION('CLO'), RELATION('CLO')), ($1.2 = $2.1), "
    "LIST($1.1, $2.2))))";
// General linear recursion: one recursive input joined with two others.
const char* kGeneralLinear =
    "UNION(SET(RELATION('VEDGE'), "
    "SEARCH(LIST(RELATION('CLO'), RELATION('VEDGE'), RELATION('V1')), "
    "(($1.2 = $2.1) AND ($2.2 = $3.1)), LIST($1.1, $3.2))))";

struct Pattern {
  const char* name;
  const char* body;
  const char* qual;  // "{a}" and "{b}" stand for the literals
  bool focuses;      // whether ALEXANDER can push the binding
};

const Pattern kPatterns[] = {
    {"column 1 bound", kRightLinear, "($1.1 = {a})", true},
    {"column 1 bound, literal first", kRightLinear, "({a} = $1.1)", true},
    // Column 2 does not pass through CLO in CLO ∘ VEDGE.
    {"column 2 bound", kRightLinear, "($1.2 = {a})", false},
    {"both columns bound", kRightLinear, "(($1.1 = {a}) AND ($1.2 = {b}))",
     true},
    {"bound plus non-equality", kRightLinear,
     "(($1.1 = {a}) AND ($1.2 > {b}))", true},
    {"no column bound", kRightLinear, "(($1.1 > {a}) AND ($1.2 <> {b}))",
     false},
    {"left-linear, column 2 bound", kLeftLinear, "($1.2 = {a})", true},
    {"bilinear, column 2 bound", kBilinear, "($1.2 = {a})", true},
    {"general linear, column 1 bound", kGeneralLinear, "($1.1 = {a})", true},
};

struct Literals {
  const char* a;
  const char* b;
};

// The first set is the one the template is rewritten under; {7, 8}
// matches no row of any instance (random fills draw from -1..3).
const Literals kLiteralSets[] = {
    {"1", "3"}, {"2", "4"}, {"-1", "2"}, {"7", "8"}};

std::string Replace(std::string s, const std::string& from,
                    const std::string& to) {
  for (size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

TermRef LiteralPlan(const Pattern& p, const Literals& lits) {
  std::string qual = Replace(Replace(p.qual, "{a}", lits.a), "{b}", lits.b);
  std::string text = std::string("SEARCH(LIST(FIX(RELATION('CLO'), ") +
                     p.body + ")), " + qual + ", LIST($1.1, $1.2))";
  auto t = term::ParseTerm(text);
  EXPECT_TRUE(t.ok()) << text << ": " << t.status().ToString();
  return t.ok() ? *t : nullptr;
}

struct Execution {
  exec::Rows rows;  // sorted: compared as a bag
  size_t rows_scanned = 0;
};

Execution Execute(const verify::VerifyEnv& env, const exec::Database& db,
                  const TermRef& plan) {
  exec::Executor ex(&env.catalog(), &db);
  Execution out;
  auto rows = ex.Execute(plan);
  EXPECT_TRUE(rows.ok()) << plan->ToString() << ": "
                         << rows.status().ToString();
  if (!rows.ok()) return out;
  out.rows = std::move(*rows);
  std::sort(out.rows.begin(), out.rows.end(),
            [](const exec::Row& x, const exec::Row& y) {
              return exec::CompareRows(x, y) < 0;
            });
  out.rows_scanned = ex.stats().rows_scanned;
  return out;
}

size_t FixpointPushes(const rewrite::RewriteOutcome& outcome) {
  auto it = outcome.stats.applications_by_rule.find("push_search_fixpoint");
  return it == outcome.stats.applications_by_rule.end() ? 0 : it->second;
}

TEST(MagicTemplateTest, ReplayedRecursiveTemplatesMatchFreshRewrites) {
  auto env = verify::VerifyEnv::Create(/*seed=*/7, /*random_databases=*/5);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  ASSERT_GE((*env)->instances().size(), 8u);
  auto opt = rules::MakeDefaultOptimizer(&(*env)->catalog());
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();

  for (const Pattern& p : kPatterns) {
    SCOPED_TRACE(p.name);
    srv::Fingerprint first = srv::FingerprintPlan(
        LiteralPlan(p, kLiteralSets[0]));
    auto nf = (*opt)->Rewrite(first.tmpl);
    ASSERT_TRUE(nf.ok()) << nf.status().ToString();
    EXPECT_EQ(FixpointPushes(*nf), p.focuses ? 1u : 0u);
    for (const Literals& lits : kLiteralSets) {
      SCOPED_TRACE(std::string("a=") + lits.a + " b=" + lits.b);
      TermRef literal = LiteralPlan(p, lits);
      srv::Fingerprint fp = srv::FingerprintPlan(literal);
      ASSERT_EQ(fp.tmpl.get(), first.tmpl.get());
      auto served = srv::InstantiatePlan(nf->term, fp.params);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      auto fresh = (*opt)->Rewrite(literal);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      // A parameter binds a column exactly as its literal does.
      EXPECT_EQ(FixpointPushes(*nf), FixpointPushes(*fresh));
      for (const auto& inst : (*env)->instances()) {
        SCOPED_TRACE(inst.name);
        Execution want = Execute(**env, *inst.db, fresh->term);
        Execution got = Execute(**env, *inst.db, *served);
        EXPECT_EQ(got.rows, want.rows);
        EXPECT_LE(got.rows_scanned, want.rows_scanned);
      }
    }
  }
}

}  // namespace
}  // namespace eds
