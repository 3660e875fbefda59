#include "database.h"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace e2e {

using eds::value::Value;

namespace {

// The film schema, the nested views of bench_nested_view, and the Fig. 5
// graph with its recursive transitive-closure view.
constexpr const char* kSchema = R"(
  TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction',
                                'Western');
  TYPE Person OBJECT TUPLE (Name : CHAR);
  TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC);
  TYPE SetCategory SET OF Category;
  TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
  TABLE APPEARS_IN (Numf : NUMERIC, Refactor : Actor);
  CREATE VIEW FilmActors (Title, Categories, Actors) AS
    SELECT Title, Categories, MakeSet(Refactor)
    FROM FILM, APPEARS_IN
    WHERE FILM.Numf = APPEARS_IN.Numf
    GROUP BY Title, Categories;
  CREATE VIEW FilmCast (Numf, Actors) AS
    SELECT Numf, MakeSet(Refactor) FROM APPEARS_IN GROUP BY Numf;
  CREATE TABLE BEATS (Winner : INT, Loser : INT);
  CREATE VIEW BETTER_THAN (W, L) AS (
    SELECT Winner, Loser FROM BEATS
    UNION
    SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
    WHERE B1.L = B2.W );
)";

// bench_semantic's domain constraint: a MEMBER test against a category
// outside the enumeration folds to FALSE.
constexpr const char* kCategoryDomain = R"(
  ic_category_domain :
    MEMBER(x, c) / ISA(c, SetCategory)
    --> MEMBER(x, c) AND MEMBER(x, SET('Comedy', 'Adventure',
                                       'Science Fiction', 'Western')) / ;
)";

std::vector<std::vector<int>> Closure(
    const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<int>> out(kGraphNodes + 1);
  std::vector<std::vector<int>> adj(kGraphNodes + 1);
  for (const auto& [a, b] : edges) adj[a].push_back(b);
  for (int w = 1; w <= kGraphNodes; ++w) {
    std::vector<bool> seen(kGraphNodes + 1, false);
    std::vector<int> stack(adj[w].begin(), adj[w].end());
    while (!stack.empty()) {
      const int n = stack.back();
      stack.pop_back();
      if (seen[n]) continue;
      seen[n] = true;
      for (int m : adj[n]) stack.push_back(m);
    }
    for (int n = 1; n <= kGraphNodes; ++n) {
      if (seen[n]) out[w].push_back(n);
    }
  }
  return out;
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void Check(const eds::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

Database BuildDatabase(uint64_t seed) {
  Database db;
  db.session = std::make_unique<eds::exec::Session>();
  eds::exec::Session& s = *db.session;
  Check(s.ExecuteScript(kSchema), "schema");

  std::mt19937_64 rng(Mix(seed));
  std::uniform_int_distribution<int> salary(5000, 20000);
  std::uniform_int_distribution<int> category(0, 3);
  static const char* kCategories[] = {"Comedy", "Adventure", "Science Fiction",
                                      "Western"};
  std::vector<Value> actors;
  actors.reserve(kFilms);
  for (int i = 0; i < kFilms; ++i) {
    eds::Result<Value> actor = s.NewObject(
        "Actor", {{"Name", Value::String("A" + std::to_string(i))},
                  {"Salary", Value::Int(salary(rng))}});
    Check(actor.status(), "actor");
    actors.push_back(*actor);
  }
  for (int f = 1; f <= kFilms; ++f) {
    std::vector<Value> cats = {Value::String(kCategories[category(rng)])};
    if (f % 5 == 0) cats.push_back(Value::String("Adventure"));
    Check(s.InsertRow("FILM", {Value::Int(f),
                               Value::String("F" + std::to_string(f)),
                               Value::Set(std::move(cats))}),
          "film row");
    for (int a = 0; a < 4; ++a) {
      Check(s.InsertRow("APPEARS_IN",
                        {Value::Int(f),
                         actors[static_cast<size_t>((f * 7 + a * 13) %
                                                    kFilms)]}),
            "appears_in row");
    }
  }

  for (int i = 1; i < kGraphNodes; ++i) db.graph.edges.emplace_back(i, i + 1);
  std::uniform_int_distribution<int> node(1, kGraphNodes);
  for (int e = 0; e < kSkipEdges; ++e) {
    const int a = node(rng);
    const int b = node(rng);
    if (a != b) db.graph.edges.emplace_back(a, b);
  }
  for (const auto& [a, b] : db.graph.edges) {
    Check(s.InsertRow("BEATS", {Value::Int(a), Value::Int(b)}), "edge");
  }
  db.graph.reach = Closure(db.graph.edges);

  eds::exec::ConstraintOptions quiet;
  quiet.run_lint = false;  // its known self-loop lint would print per launch
  Check(s.AddConstraint("category_domain", kCategoryDomain, quiet),
        "constraint");
  Check(s.optimizer().status(), "optimizer");
  return db;
}

}  // namespace e2e
