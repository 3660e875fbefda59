// The built-in rule libraries are parsed and validated once per process
// (rules::BuiltinRuleLibrary) and every optimizer copies its rules from that
// one set. These tests pin that the shared set is the libraries' text, that
// optimizers built from it are the same program and rewrite to the same
// plans as rules parsed afresh, and that first use is race-free.
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "gtest/gtest.h"
#include "rules/fixpoint.h"
#include "rules/merging.h"
#include "rules/optimizer.h"
#include "rules/permutation.h"
#include "rules/semantic.h"
#include "rules/simplify.h"
#include "ruledsl/parser.h"
#include "testutil.h"

namespace eds::rules {
namespace {

constexpr const char* kConstraint = R"(
  ic_cat : MEMBER(x, c) / ISA(c, SetCategory)
    --> MEMBER(x, c) AND MEMBER(x, SET('Comedy', 'Adventure',
                                       'Science Fiction', 'Western')) / ;
)";

// Queries over the FilmDb schema that exercise every block: normalization,
// merging, the semantic block (the constraint above), simplification,
// pushes through unions and the recursive view, and the second merge.
const char* kCorpus[] = {
    "SELECT Winner FROM BEATS",
    "SELECT Winner, Loser FROM BEATS WHERE Winner > 3 AND Loser < 9",
    "SELECT B1.Winner, B2.Loser FROM BEATS B1, BEATS B2 "
    "WHERE B1.Loser = B2.Winner AND B1.Winner = 2",
    "SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)",
    "SELECT Title FROM FILM WHERE MEMBER('Western', Categories) "
    "AND Numf >= 1 AND Numf <= 3",
    "SELECT F.Title FROM FILM F, APPEARS_IN A "
    "WHERE F.Numf = A.Numf AND Salary(A.Refactor) > 10000",
    "SELECT Title FROM FILM WHERE Numf = 1 AND Numf = 2",
    "SELECT Winner FROM BEATS WHERE 1 = 1 AND Winner = Winner",
    "SELECT W FROM BETTER_THAN WHERE L = 10",
    "SELECT W, L FROM BETTER_THAN WHERE W = 3",
    "SELECT Title FROM FILM_ACTORS WHERE Title = 'Zorba'",
};

void LoadQueryDb(testutil::FilmDb* db) {
  EDS_ASSERT_OK(db->session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
    CREATE VIEW FILM_ACTORS (Title, Actors) AS
      SELECT Title, MakeSet(Refactor) FROM FILM, APPEARS_IN
      WHERE FILM.Numf = APPEARS_IN.Numf GROUP BY Title;
  )"));
  EDS_ASSERT_OK(db->session.AddConstraint("cat_domain", kConstraint));
}

std::vector<std::string> Plans(const Optimizer& opt, testutil::FilmDb* db) {
  std::vector<std::string> out;
  for (const char* esql : kCorpus) {
    auto raw = db->session.Translate(esql);
    EXPECT_TRUE(raw.ok()) << esql << ": " << raw.status();
    if (!raw.ok()) continue;
    auto rewritten = opt.Rewrite(*raw);
    EXPECT_TRUE(rewritten.ok()) << esql << ": " << rewritten.status();
    if (rewritten.ok()) out.push_back(rewritten->term->ToString());
  }
  return out;
}

// Runs first in this binary (gtest keeps declaration order), so the four
// threads race on the library's one-time construction itself.
TEST(RuleLibraryTest, ConcurrentFirstUseIsRaceFree) {
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<testutil::FilmDb>> dbs;
  for (int i = 0; i < kThreads; ++i) {
    dbs.push_back(std::make_unique<testutil::FilmDb>());
    LoadQueryDb(dbs.back().get());
  }
  std::atomic<int> ready{0};
  std::vector<std::vector<std::string>> plans(kThreads);
  std::vector<const RulesByName*> libraries(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      auto opt = MakeDefaultOptimizer(&dbs[i]->session.catalog());
      auto library = BuiltinRuleLibrary();
      if (!opt.ok() || !library.ok()) return;
      libraries[i] = *library;
      plans[i] = Plans(**opt, dbs[i].get());
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(libraries[0], nullptr);
  ASSERT_EQ(plans[0].size(), std::size(kCorpus));
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(libraries[i], libraries[0]) << i;
    EXPECT_EQ(plans[i], plans[0]) << i;
  }
}

TEST(RuleLibraryTest, HoldsExactlyTheFiveLibraries) {
  auto library = BuiltinRuleLibrary();
  ASSERT_TRUE(library.ok()) << library.status();
  auto again = BuiltinRuleLibrary();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*library, *again);  // one set per process
  size_t parsed = 0;
  for (const char* source :
       {MergingRuleSource(), PermutationRuleSource(), FixpointRuleSource(),
        SimplifyRuleSource(), SemanticMethodRuleSource()}) {
    auto unit = ruledsl::ParseRuleSource(source);
    ASSERT_TRUE(unit.ok()) << unit.status();
    for (const rewrite::Rule& fresh : unit->rules) {
      ++parsed;
      auto it = (*library)->find(ToUpperAscii(fresh.name));
      ASSERT_NE(it, (*library)->end()) << fresh.name;
      EXPECT_EQ(it->second.name, fresh.name);
      EXPECT_EQ(it->second.ToString(), fresh.ToString());
      EXPECT_EQ(it->second.loc.line, fresh.loc.line) << fresh.name;
    }
  }
  EXPECT_EQ((*library)->size(), parsed);
}

// Two optimizers built from the shared set are one program: the same
// blocks, limits, rules and order; and they rewrite every corpus query to
// byte-identical plans, the same plans as an engine whose rules were
// parsed afresh from the library text.
TEST(RuleLibraryTest, OptimizersFromTheSharedSetAreOneProgram) {
  testutil::FilmDb db;
  LoadQueryDb(&db);
  auto first = MakeDefaultOptimizer(&db.session.catalog());
  auto second = MakeDefaultOptimizer(&db.session.catalog());
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  const rewrite::RewriteProgram& a = (*first)->engine().program();
  const rewrite::RewriteProgram& b = (*second)->engine().program();
  EXPECT_EQ(a.seq_limit, b.seq_limit);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  bool saw_constraint = false;
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].name, b.blocks[i].name);
    EXPECT_EQ(a.blocks[i].limit, b.blocks[i].limit);
    ASSERT_EQ(a.blocks[i].rules.size(), b.blocks[i].rules.size());
    for (size_t r = 0; r < a.blocks[i].rules.size(); ++r) {
      EXPECT_EQ(a.blocks[i].rules[r].name, b.blocks[i].rules[r].name);
      EXPECT_EQ(a.blocks[i].rules[r].ToString(),
                b.blocks[i].rules[r].ToString());
      saw_constraint |= a.blocks[i].rules[r].name == "ic_cat";
    }
  }
  EXPECT_TRUE(saw_constraint);

  // The reference: the same program with every rule parsed again from
  // its library's (or the catalog's) text.
  std::map<std::string, rewrite::Rule> fresh;
  for (const std::string& source :
       {std::string(MergingRuleSource()), std::string(PermutationRuleSource()),
        std::string(FixpointRuleSource()), std::string(SimplifyRuleSource()),
        std::string(SemanticMethodRuleSource()),
        ConstraintRuleSource(db.session.catalog())}) {
    auto unit = ruledsl::ParseRuleSource(source);
    ASSERT_TRUE(unit.ok()) << unit.status();
    for (rewrite::Rule& r : unit->rules) fresh.emplace(r.name, std::move(r));
  }
  rewrite::RewriteProgram reparsed = a;
  for (rewrite::RuleBlock& block : reparsed.blocks) {
    for (rewrite::Rule& rule : block.rules) {
      auto it = fresh.find(rule.name);
      ASSERT_NE(it, fresh.end()) << rule.name;
      rule = it->second;
    }
  }
  rewrite::BuiltinRegistry builtins;
  InstallOptimizerBuiltins(&builtins);
  rewrite::Engine reference(&db.session.catalog(), &builtins,
                            std::move(reparsed));
  EDS_ASSERT_OK(reference.ValidateProgram());

  const std::vector<std::string> plans_a = Plans(**first, &db);
  const std::vector<std::string> plans_b = Plans(**second, &db);
  ASSERT_EQ(plans_a.size(), std::size(kCorpus));
  EXPECT_EQ(plans_a, plans_b);
  for (size_t i = 0; i < std::size(kCorpus); ++i) {
    auto raw = db.session.Translate(kCorpus[i]);
    ASSERT_TRUE(raw.ok());
    auto out = reference.Rewrite(*raw);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->term->ToString(), plans_a[i]) << kCorpus[i];
  }
}

// A catalog constraint never leaks into the shared set: an optimizer for
// another catalog does not see it.
TEST(RuleLibraryTest, ConstraintRulesStayPerOptimizer) {
  testutil::FilmDb with, without;
  EDS_ASSERT_OK(with.session.AddConstraint("cat_domain", kConstraint));
  auto a = MakeDefaultOptimizer(&with.session.catalog());
  auto b = MakeDefaultOptimizer(&without.session.catalog());
  ASSERT_TRUE(a.ok() && b.ok());
  auto count = [](const Optimizer& opt) {
    size_t n = 0;
    for (const auto& block : opt.engine().program().blocks) {
      for (const auto& rule : block.rules) n += rule.name == "ic_cat";
    }
    return n;
  };
  EXPECT_EQ(count(**a), 1u);
  EXPECT_EQ(count(**b), 0u);
  auto library = BuiltinRuleLibrary();
  ASSERT_TRUE(library.ok());
  EXPECT_EQ((*library)->count("IC_CAT"), 0u);
}

}  // namespace
}  // namespace eds::rules
