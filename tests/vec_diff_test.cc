// Differential suite for the columnar batch executor: the test-only
// reference interpreter (tests/reference/) is the oracle
// (docs/executor.md). Every plan here runs on both, and the outputs must
// be byte-identical *sequences* (same rows, same order, same value kinds)
// with the same tallies, or the same error text. Two corpora:
//   * an ESQL corpus over the FilmDb schema, with the rewriter both on and
//     off, and
//   * LERA plans over the soundness verifier's corner databases
//     (src/verify/instance.h): duplicates, NULLs, empties, seeded random
//     fills — the corners where 3VL and bag semantics diverge first.
// The suite also proves it is not vacuous: the executor must report batch
// work (exec.batches > 0).
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "reference/agree.h"
#include "term/parser.h"
#include "lera_corpus.h"
#include "testutil.h"
#include "verify/instance.h"

namespace eds::exec {
namespace {

using reference::ExpectAgree;
using reference::RunBoth;
using reference::RunQuery;
using reference::Runs;
using term::TermRef;

// ---------------- ESQL corpus over FilmDb ----------------

const char* kEsqlCorpus[] = {
    "SELECT Winner FROM BEATS",
    "SELECT Winner, Loser FROM BEATS WHERE Winner > 3",
    "SELECT Winner FROM BEATS WHERE Winner > 2 AND Loser < 9",
    "SELECT Winner FROM BEATS WHERE Winner = 1 OR Loser = 10",
    "SELECT B1.Winner, B2.Loser FROM BEATS B1, BEATS B2 "
    "WHERE B1.Loser = B2.Winner",
    "SELECT B1.Winner, B2.Loser FROM BEATS B1, BEATS B2 "
    "WHERE B1.Loser = B2.Winner AND B1.Winner > 2",
    "SELECT Numf, Title FROM FILM WHERE Title <> 'Zorba'",
    "SELECT F.Title FROM FILM F, APPEARS_IN A WHERE F.Numf = A.Numf",
    "SELECT F.Title, B.Loser FROM FILM F, BEATS B WHERE F.Numf = B.Winner",
    "SELECT Numf FROM FILM WHERE Numf < 3",
};

TEST(VecDiffTest, EsqlCorpusMatchesReference) {
  testutil::FilmDb db;
  size_t vec_batches = 0;
  for (const char* esql : kEsqlCorpus) {
    for (bool rewrite : {true, false}) {
      QueryOptions options;
      options.rewrite = rewrite;
      const Runs runs = RunQuery(&db.session, esql, options);
      ASSERT_TRUE(runs.got.ok()) << esql << ": "
                                 << runs.got.status().ToString();
      const std::string label =
          std::string(esql) + (rewrite ? " [rewrite]" : " [raw]");
      ExpectAgree(runs, label);
      EXPECT_EQ(runs.want_stats.batches, 0u) << label;  // oracle is scalar
      vec_batches += runs.got_stats.batches;
    }
  }
  // Not vacuous: the corpus exercised the kernels.
  EXPECT_GT(vec_batches, 0u);
}

// Scans after inserts: each insert appends to the table's one columnar
// image (a Real that demotes BEATS's Int lanes, a NULL, a FILM row), and
// the next scan must read exactly the appended rows.
TEST(VecDiffTest, ScanAfterInsertMatchesReference) {
  testutil::FilmDb db;
  using value::Value;
  const std::vector<std::pair<const char*, Row>> inserts = {
      {"BEATS", {Value::Int(4), Value::Int(11)}},
      {"BEATS", {Value::Real(2.5), Value::Null()}},
      {"FILM",
       {Value::Int(4), Value::String("Zorba"),
        Value::Set({Value::String("Western")})}},
  };
  for (size_t round = 0; round <= inserts.size(); ++round) {
    for (const char* esql : kEsqlCorpus) {
      const Runs runs = RunQuery(&db.session, esql);
      ASSERT_TRUE(runs.got.ok()) << esql << ": "
                                 << runs.got.status().ToString();
      ExpectAgree(runs, std::string(esql) + " after " +
                            std::to_string(round) + " inserts");
    }
    if (round < inserts.size()) {
      EDS_ASSERT_OK(db.session.InsertRow(inserts[round].first,
                                         inserts[round].second));
    }
  }
  auto beats = db.session.db().GetTable("BEATS");
  ASSERT_TRUE(beats.ok());
  EXPECT_EQ((*beats)->size(), 11u);
  EXPECT_EQ((*beats)->batch().cols[0].lane(), vec::Lane::kGeneric);
}

// Object references are stored unboxed (the kObjectRef lane): joins on
// object columns, method calls on them and NULL references must read back
// exactly what the reference sees, before and after a NULL reference
// lands in the column.
TEST(VecDiffTest, ObjectColumnsMatchReference) {
  testutil::FilmDb db;
  using value::Value;
  const char* queries[] = {
      "SELECT A.Numf, B.Numf FROM APPEARS_IN A, APPEARS_IN B "
      "WHERE A.Refactor = B.Refactor",
      "SELECT A.Numf, D.Numf FROM APPEARS_IN A, DOMINATE D "
      "WHERE A.Refactor = D.Refactor2 AND A.Numf = D.Numf",
      "SELECT D1.Numf FROM DOMINATE D1, DOMINATE D2 "
      "WHERE D1.Refactor2 = D2.Refactor1",
      "SELECT Numf, Salary(Refactor) FROM APPEARS_IN",
      "SELECT A.Numf, Name(A.Refactor) FROM APPEARS_IN A "
      "WHERE Salary(A.Refactor) > 10000",
      "SELECT Numf, Refactor FROM APPEARS_IN",
      "SELECT DISTINCT Refactor FROM APPEARS_IN",
  };
  auto check = [&](const std::string& when) {
    for (const char* esql : queries) {
      for (bool rewrite : {true, false}) {
        QueryOptions options;
        options.rewrite = rewrite;
        const Runs runs = RunQuery(&db.session, esql, options);
        ASSERT_TRUE(runs.got.ok()) << esql << ": "
                                   << runs.got.status().ToString();
        ExpectAgree(runs, std::string(esql) + " " + when +
                              (rewrite ? " [rewrite]" : " [raw]"));
      }
    }
  };
  auto appears_in = db.session.db().GetTable("APPEARS_IN");
  ASSERT_TRUE(appears_in.ok());
  EXPECT_EQ((*appears_in)->batch().cols[1].lane(), vec::Lane::kObjectRef);
  check("with refs only");
  EDS_ASSERT_OK(db.session.InsertRow("APPEARS_IN",
                                     {Value::Int(4), Value::Null()}));
  EDS_ASSERT_OK(
      db.session.InsertRow("APPEARS_IN", {Value::Int(4), db.quinn}));
  EDS_ASSERT_OK(db.session.InsertRow("DOMINATE",
                                     {Value::Int(4), Value::Null(), db.eva}));
  EXPECT_EQ((*appears_in)->batch().cols[1].lane(), vec::Lane::kObjectRef);
  EXPECT_EQ((*appears_in)->batch().cols[1].null_count(), 1u);
  check("with a NULL ref");
}

TEST(VecDiffTest, RecursiveViewMatchesReference) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )"));
  for (const char* esql :
       {"SELECT W, L FROM BETTER_THAN",
        "SELECT W FROM BETTER_THAN WHERE L = 10"}) {
    const Runs runs = RunQuery(&db.session, esql);
    ASSERT_TRUE(runs.got.ok()) << esql << ": " << runs.got.status().ToString();
    ExpectAgree(runs, esql);
  }
}

// A comparison with one constant operand runs a column-against-value
// kernel rather than broadcasting the constant. Every operator, with the
// constant on either side, over an Int lane, a Real lane, a string column
// and a mixed Int/Real column (both kGeneric), each with a NULL cell,
// against Int, Real, string (inline and heap) and NULL constants, must
// read exactly as the reference does.
TEST(VecDiffTest, ConstantComparisonsMatchReference) {
  using term::Term;
  using value::Value;
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript(
      "CREATE TABLE M (I : INT, R : REAL, S : CHAR, G : NUMERIC);"));
  const std::vector<Row> rows = {
      {Value::Int(1), Value::Real(0.5), Value::String("Comedy"),
       Value::Int(5)},
      {Value::Int(5), Value::Real(5.0), Value::String("Science Fiction"),
       Value::Real(2.5)},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value::Int(7), Value::Real(7.25),
       Value::String("Science Fiction!"), Value::Int(-3)},
      {Value::Int(5), Value::Real(-1.0), Value::String(""), Value::Real(5.0)},
  };
  for (const Row& row : rows) EDS_ASSERT_OK(s.InsertRow("M", row));

  const Value constants[] = {
      Value::Int(5),       Value::Real(5.0),
      Value::Real(2.5),    Value::String("Science Fiction"),
      Value::String("Science Fiction!"), Value::Null(),
  };
  const char* ops[] = {term::kEq, term::kNe, term::kLt,
                       term::kLe, term::kGt, term::kGe};
  size_t batches = 0;
  for (int64_t column = 1; column <= 4; ++column) {
    for (const Value& c : constants) {
      for (const char* op : ops) {
        for (bool constant_left : {false, true}) {
          TermRef attr = Term::Attr(1, column);
          TermRef constant = Term::Constant(c);
          TermRef qual = constant_left ? Term::Apply(op, {constant, attr})
                                       : Term::Apply(op, {attr, constant});
          TermRef plan = Term::Apply(
              "SEARCH", {Term::List({Term::Relation("M")}), qual,
                         Term::List({Term::Attr(1, 1), attr})});
          const Runs runs = RunBoth(s.catalog(), s.db(), plan);
          const std::string label = qual->ToString();
          ASSERT_TRUE(runs.got.ok()) << label << ": "
                                     << runs.got.status().ToString();
          ExpectAgree(runs, label);
          batches += runs.got_stats.batches;
        }
      }
    }
  }
  EXPECT_GT(batches, 0u);
}

// ---------------- Joins through selections ----------------

// Tables whose sizes and keys steer the hash join: S (3 rows) is smaller
// than M and E (6 rows each, equal), which are smaller than L (12 rows).
// Keys repeat on both sides, M, E and L hold NULL keys, L's NUMERIC keys
// mix Int and Real (a generic column) and R's are all Real. A V of 0 makes
// DIV(12, V) fail, on a row with a join partner in S (S's second row) and
// on one without (L's last row).
void LoadJoinTables(Session* s) {
  using value::Value;
  ASSERT_TRUE(s->ExecuteScript(R"(
    CREATE TABLE S (K : INT, V : INT);
    CREATE TABLE M (K : INT, V : INT);
    CREATE TABLE E (K : INT, V : INT);
    CREATE TABLE L (K : NUMERIC, V : INT);
    CREATE TABLE R (K : REAL, V : INT);
  )").ok());
  auto i = [](int64_t v) { return Value::Int(v); };
  const Value null = Value::Null();
  const std::vector<std::pair<const char*, Row>> rows = {
      {"S", {i(1), i(10)}},  {"S", {i(2), i(0)}},   {"S", {i(1), i(20)}},
      {"M", {i(1), i(1)}},   {"M", {null, i(2)}},   {"M", {i(2), i(3)}},
      {"M", {i(1), i(4)}},   {"M", {i(3), i(6)}},   {"M", {i(2), i(5)}},
      {"E", {i(2), i(7)}},   {"E", {i(1), i(8)}},   {"E", {i(1), i(9)}},
      {"E", {null, i(1)}},   {"E", {i(4), i(2)}},   {"E", {i(2), i(3)}},
      {"L", {Value::Real(1.0), i(1)}}, {"L", {i(2), i(2)}},
      {"L", {null, i(3)}},   {"L", {i(1), i(4)}},
      {"L", {Value::Real(2.0), i(5)}}, {"L", {i(3), i(6)}},
      {"L", {i(1), i(12)}},  {"L", {Value::Real(2.5), i(7)}},
      {"L", {i(2), i(8)}},   {"L", {i(1), i(9)}},   {"L", {null, i(10)}},
      {"L", {i(5), i(0)}},
      {"R", {Value::Real(1.0), i(1)}}, {"R", {Value::Real(2.0), i(2)}},
      {"R", {Value::Real(2.5), i(3)}}, {"R", {Value::Real(1.0), i(4)}},
  };
  for (const auto& [table, row] : rows) {
    EDS_ASSERT_OK(s->InsertRow(table, row));
  }
}

// Runs `text` on the executor and the reference. When `must_fail` the
// reference fails and the executor must fail with the same error;
// otherwise both return the same rows in the same order, with the same
// tallies, and the executor ran its kernels.
void ExpectPlanMatchesReference(Session* s, const std::string& text,
                                bool must_fail) {
  auto plan = term::ParseTerm(text);
  ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
  const Runs runs = RunBoth(s->catalog(), s->db(), *plan);
  ASSERT_NE(runs.want.ok(), must_fail)
      << text << ": "
      << (runs.want.ok() ? std::string("answered")
                         : runs.want.status().ToString());
  ExpectAgree(runs, text);
  if (!must_fail) {
    EXPECT_GT(runs.got_stats.batches, 0u) << text;
  }
}

// Runs `text` on both and expects the reference's error `expected`.
void ExpectErrorMatchesReference(Session* s, const std::string& text,
                                 const std::string& expected) {
  auto plan = term::ParseTerm(text);
  ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
  const Runs runs = RunBoth(s->catalog(), s->db(), *plan);
  ASSERT_FALSE(runs.want.ok()) << text;
  EXPECT_EQ(runs.want.status().ToString(), expected) << text;
  ExpectAgree(runs, text);
}

std::string Search(const std::vector<const char*>& tables, const char* qual,
                   const char* projections) {
  std::string inputs;
  for (const char* t : tables) {
    inputs += std::string(inputs.empty() ? "" : ", ") + "RELATION('" + t +
              "')";
  }
  return "SEARCH(LIST(" + inputs + "), " + qual + ", LIST(" + projections +
         "))";
}

// A hash join builds on its smaller input. Built on the left, it emits
// pairs right row by right row, and a counting sort must restore the
// nested loop's (left asc, right asc) order; duplicate keys on both sides make
// the two orders differ. Left smaller than, equal to and larger than the
// right; NULL keys; Int keys against Real keys; two keys at once.
TEST(VecDiffTest, HashJoinsMatchReferenceOnEitherBuildSide) {
  Session s;
  LoadJoinTables(&s);
  const char* kOne = "($1.1 = $2.1)";
  const char* kTwo = "(($1.1 = $2.1) AND ($2.2 = $1.2))";
  const char* kOut = "$1.1, $1.2, $2.1, $2.2";
  for (const auto& tables : std::vector<std::vector<const char*>>{
           {"S", "L"}, {"L", "S"},    // left smaller, left larger
           {"M", "E"}, {"E", "M"},    // equal sizes
           {"S", "M"}, {"M", "L"},    // NULL keys on one side, both sides
           {"S", "R"}, {"R", "L"},    // Int against Real, generic
           {"L", "L"}, {"S", "S"}}) {  // self-joins
    ExpectPlanMatchesReference(&s, Search(tables, kOne, kOut), false);
    ExpectPlanMatchesReference(&s, Search(tables, kTwo, kOut), false);
  }
  // Keys computed by expressions, and an equi-conjunct beside a residual.
  ExpectPlanMatchesReference(
      &s, Search({"S", "L"}, "(DIV($1.2, 10) = $2.1)", kOut), false);
  ExpectPlanMatchesReference(
      &s, Search({"M", "E"}, "(($1.1 = $2.1) AND ($1.2 < $2.2))", kOut),
      false);
}

// Stores `rows` as table `name` straight into the database, bypassing
// the catalog's column types: a column's lane follows the values it holds
// (vec::Batch::Append's rules).
void StoreTable(Session* s, const char* name, const std::vector<Row>& rows) {
  EDS_ASSERT_OK(s->db().CreateTable(name, rows[0].size()));
  auto table = s->db().GetTable(name);
  ASSERT_TRUE(table.ok());
  for (const Row& row : rows) EDS_ASSERT_OK((*table)->Insert(row));
}

// Equi-joins hash every key kind: keys join when value::Compare calls them
// equal, whatever kind they are and whatever lane holds them. Each pair of
// tables joins both ways round, so each side is once the built one (the
// smaller, A or C) and once the probing one; the keys repeat, so the order
// the counting sort restores is checked too.
TEST(VecDiffTest, EveryKeyKindHashJoinsOnEitherBuildSide) {
  using value::Value;
  Session s;
  auto i = [](int64_t v) { return Value::Int(v); };
  auto set = [](std::vector<Value> v) { return Value::Set(std::move(v)); };
  const Value null = Value::Null();
  const Value xy = Value::NamedTuple({"X", "Y"}, {i(1), i(2)});
  const Value ref7 = Value::ObjectRef(7), ref9 = Value::ObjectRef(9);
  // Column 1 is the key, column 2 numbers the row.
  StoreTable(&s, "SETS_A", {{set({i(1), i(2)}), i(1)},
                            {set({}), i(2)},
                            {set({set({i(3)}), set({})}), i(3)},
                            {Value::Bag({i(1), i(1)}), i(4)}});
  StoreTable(&s, "SETS_B", {{set({i(2), Value::Real(1.0)}), i(1)},
                            {set({set({}), set({Value::Real(3.0)})}), i(2)},
                            {null, i(3)},
                            {set({}), i(4)},
                            {set({i(2), i(1)}), i(5)},
                            {Value::Bag({Value::Real(1.0), i(1)}), i(6)}});
  StoreTable(&s, "TUPLES_A", {{xy, i(1)},
                              {Value::Tuple({i(2), i(1)}), i(2)},
                              {Value::Tuple({}), i(3)}});
  StoreTable(&s, "TUPLES_B",
             {{Value::Tuple({Value::Real(1.0), i(2)}), i(1)},
              {Value::NamedTuple({"P", "Q"}, {i(2), i(1)}), i(2)},
              {xy, i(3)},
              {Value::Tuple({}), i(4)},
              {Value::Tuple({i(1), i(2), i(3)}), i(5)}});
  // A generic column of strings and Ints against an Int64 lane.
  StoreTable(&s, "MIXED", {{Value::String("2"), i(1)},
                           {i(2), i(2)},
                           {null, i(3)},
                           {i(1), i(4)},
                           {Value::String("a"), i(5)},
                           {i(2), i(6)}});
  StoreTable(&s, "INTS", {{i(2), i(1)}, {i(1), i(2)}, {i(2), i(3)}});
  // An Int64 lane against a Float64 lane, Int(2) against Real(2.0), and
  // 0 and 0.0 against -0.0.
  StoreTable(&s, "REALS", {{Value::Real(2.0), i(1)},
                           {Value::Real(-0.0), i(2)},
                           {Value::Real(2.5), i(3)},
                           {Value::Real(0.0), i(4)},
                           {Value::Real(2.0), i(5)}});
  StoreTable(&s, "ZEROS", {{i(0), i(1)}, {i(2), i(2)}, {i(0), i(3)}});
  StoreTable(&s, "REAL_ZEROS", {{Value::Real(0.0), i(1)},
                                {Value::Real(1.0), i(2)},
                                {Value::Real(-0.0), i(3)}});
  // A NULL-only column.
  StoreTable(&s, "NULLS", {{null, i(1)}, {null, i(2)}});
  // Generic references (among an Int and a NULL) against a kObjectRef
  // lane.
  StoreTable(&s, "REFS_G", {{ref9, i(1)},
                            {i(7), i(2)},
                            {null, i(3)},
                            {ref7, i(4)},
                            {ref9, i(5)},
                            {Value::ObjectRef(8), i(6)}});
  StoreTable(&s, "REFS_L", {{ref7, i(1)}, {null, i(2)}, {ref9, i(3)}});
  {
    auto lane = [&](const char* table) {
      return (*s.db().GetTable(table))->batch().cols[0].lane();
    };
    EXPECT_EQ(lane("MIXED"), vec::Lane::kGeneric);
    EXPECT_EQ(lane("INTS"), vec::Lane::kInt64);
    EXPECT_EQ(lane("REALS"), vec::Lane::kFloat64);
    EXPECT_EQ(lane("ZEROS"), vec::Lane::kInt64);
    EXPECT_EQ(lane("REAL_ZEROS"), vec::Lane::kFloat64);
    EXPECT_EQ(lane("NULLS"), vec::Lane::kNullOnly);
    EXPECT_EQ(lane("REFS_G"), vec::Lane::kGeneric);
    EXPECT_EQ(lane("REFS_L"), vec::Lane::kObjectRef);
  }
  const char* kOut = "$1.1, $1.2, $2.1, $2.2";
  for (const auto& [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"SETS_A", "SETS_B"}, {"TUPLES_A", "TUPLES_B"},
           {"INTS", "MIXED"}, {"ZEROS", "REALS"}, {"INTS", "REALS"},
           {"REAL_ZEROS", "REALS"},
           {"NULLS", "INTS"}, {"NULLS", "MIXED"}, {"NULLS", "NULLS"},
           {"REFS_L", "REFS_G"}, {"REFS_L", "MIXED"}}) {
    for (const auto& tables : std::vector<std::vector<const char*>>{
             {a, b}, {b, a}}) {
      ExpectPlanMatchesReference(&s, Search(tables, "($1.1 = $2.1)", kOut),
                                 false);
      ExpectPlanMatchesReference(
          &s, Search(tables, "(($2.1 = $1.1) AND ($1.2 < $2.2))", kOut),
          false);
    }
  }
}

// A set-keyed self-join of 2,049 rows: 2,049 x 2,049 pairs are past
// kMaxCrossPairs, but the hash join pairs only the rows whose key sets are
// equal (each key holds two or three rows), in the nested loop's order,
// and charges the key for every pair the nested loop would probe.
TEST(VecDiffTest, SetKeyedJoinPastTheCrossCapHashes) {
  using value::Value;
  Session s;
  std::vector<Row> rows;
  for (int64_t a = 2048; a >= 0; --a) {
    rows.push_back({Value::Int(a),
                    Value::Set({Value::Int(a % 1000), Value::Int(-1)})});
  }
  StoreTable(&s, "T", rows);
  const std::string text = Search({"T", "T"}, "($1.2 = $2.2)", "$1.1, $2.1");
  auto plan = term::ParseTerm(text);
  ASSERT_TRUE(plan.ok());
  const Runs runs = RunBoth(s.catalog(), s.db(), *plan);
  ASSERT_TRUE(runs.got.ok()) << runs.got.status().ToString();
  ExpectAgree(runs, text);
  EXPECT_EQ(runs.got->size(), 49u * 9 + 951u * 4);
  EXPECT_EQ(runs.got_stats.qual_evaluations, 2049u * 2049u);
}

// Right-only conjuncts narrow a selection: before the join when the level
// has no equi-conjunct or when they compare a column with a constant,
// after it (on right rows with a partner) otherwise. A right-only
// conjunct that can fail and comes before the equi-conjunct runs on every
// right row, as in the nested loop, so both fail together; after
// the equi-conjunct it never sees the partnerless row that would fail it.
TEST(VecDiffTest, RightOnlyConjunctsMatchReference) {
  Session s;
  LoadJoinTables(&s);
  const char* kOut = "$1.2, $2.2";
  const std::pair<const char*, bool> cases[] = {
      {"(($1.1 = $2.1) AND ($2.2 > 2))", false},
      {"(($2.2 > 2) AND ($1.1 = $2.1))", false},
      {"(($1.1 = $2.1) AND (DIV(12, $2.2) > 1))", false},
      {"((DIV(12, $2.2) > 1) AND ($1.1 = $2.1))", true},
      {"(($2.2 > 2) AND (($1.1 = $2.1) AND (DIV(12, $2.2) > 1)))", false},
      {"(($2.2 > 3) AND ($1.2 < $2.2))", false},  // no equi: a cross join
      {"($2.2 > 3)", false},
  };
  for (const auto& [qual, fails] : cases) {
    ExpectPlanMatchesReference(&s, Search({"S", "L"}, qual, kOut), fails);
  }
  // S's V = 0 row has partners in L.
  ExpectPlanMatchesReference(
      &s, Search({"L", "S"}, "(($1.1 = $2.1) AND (DIV(12, $2.2) > 1))", kOut),
      true);
}

// Three inputs: a second join stage whose left side is the combined batch
// of the first, with a residual over all three inputs ahead of its
// equi-conjunct and a right-only conjunct after it.
TEST(VecDiffTest, ThreeInputSearchMatchesReference) {
  Session s;
  LoadJoinTables(&s);
  const char* kOut = "$1.2, $2.2, $3.2, DIV($3.2, 1), ($1.2 < $3.2)";
  for (const char* qual : {
           "((($1.1 = $2.1) AND ($2.2 < $3.2)) AND "
           "(($3.1 = $1.1) AND ($3.2 > 1)))",
           "(($1.1 = $2.1) AND ($2.1 = $3.1))",
           "(($2.2 > 1) AND (($3.1 = $2.1) OR ($3.2 = 1)))",
           "(($1.1 = $2.1) AND (($1.2 = 10) OR ($3.2 = 4)))",
       }) {
    ExpectPlanMatchesReference(&s, Search({"S", "M", "L"}, qual, kOut),
                               false);
    ExpectPlanMatchesReference(&s, Search({"L", "E", "S"}, qual, kOut),
                               false);
  }
}

// AND and OR evaluate their right operand only on the rows their left
// operand leaves undecided, as the scalar evaluator does: DIV(12, V) fails
// on V = 0, and every such row is decided by the left operand here, so
// neither run fails.
TEST(VecDiffTest, LazyAndOrSkipRowsTheLeftOperandDecided) {
  Session s;
  LoadJoinTables(&s);
  for (const char* qual : {
           "(($1.2 < 1) OR (DIV(12, $1.2) > 1))",
           "((($1.2 > 0) AND (DIV(12, $1.2) > 1)) OR ($1.1 = 5))",
           "(NOT (($1.2 = 0) OR (DIV(12, $1.2) < 3)))",
           "((($1.1 > 1) OR ($1.2 = 0)) OR (DIV(12, $1.2) > 5))",
           "((($1.1 = 1) AND ($1.2 > 0)) AND (DIV(12, $1.2) = 1))",
       }) {
    ExpectPlanMatchesReference(&s, Search({"L"}, qual, "$1.1, $1.2"), false);
  }
  // The same under a join, where the right operand runs through the
  // combined batch's selection.
  ExpectPlanMatchesReference(
      &s,
      Search({"L", "S"}, "(($1.1 = $2.1) AND (($2.2 = 0) OR "
                         "(DIV(12, $2.2) > 0)))",
             "$1.2, $2.2"),
      false);
  // A row whose left operand does not decide still fails, on both.
  ExpectPlanMatchesReference(
      &s, Search({"L"}, "(($1.2 > 5) OR (DIV(12, $1.2) > 1))", "$1.1"),
      true);
}

// FILTER, PROJECT and JOIN run as the SEARCH their normalization rules
// build, so on the executor and on the reference each gives exactly what
// its hand-written SEARCH form gives: the same rows in the same order with
// the same tallies, or the same error; and the two agree. A combination
// is dropped at its first conjunct that is not TRUE, so the DIVs below
// never see the zero divisor behind a FALSE or NULL conjunct (in L, K is
// NULL where V is 3).
TEST(VecDiffTest, BasicOperatorsMatchTheirSearchForm) {
  Session s;
  LoadJoinTables(&s);
  const std::pair<const char*, std::string> cases[] = {
      {"JOIN(RELATION('L'), RELATION('S'), "
       "(($1.1 > 100) AND (DIV(12, $2.2) > 1)))",
       Search({"L", "S"}, "(($1.1 > 100) AND (DIV(12, $2.2) > 1))",
              "$1.1, $1.2, $2.1, $2.2")},
      {"JOIN(RELATION('S'), RELATION('L'), (($2.2 > 2) AND ($1.1 = $2.1)))",
       Search({"S", "L"}, "(($2.2 > 2) AND ($1.1 = $2.1))",
              "$1.1, $1.2, $2.1, $2.2")},
      {"FILTER(RELATION('L'), (($1.1 > 0) AND (DIV(12, SUB($1.2, 3)) > 1)))",
       Search({"L"}, "(($1.1 > 0) AND (DIV(12, SUB($1.2, 3)) > 1))",
              "$1.1, $1.2")},
      {"PROJECT(RELATION('M'), LIST($1.2, ($1.1 > 1)))",
       Search({"M"}, "TRUE", "$1.2, ($1.1 > 1)")},
  };
  for (const auto& [op, search] : cases) {
    ExpectPlanMatchesReference(&s, op, false);
    auto op_plan = term::ParseTerm(op);
    auto search_plan = term::ParseTerm(search);
    ASSERT_TRUE(op_plan.ok() && search_plan.ok()) << op;
    const Runs got = RunBoth(s.catalog(), s.db(), *op_plan);
    const Runs want = RunBoth(s.catalog(), s.db(), *search_plan);
    // The executor's run of each form, then the reference's.
    for (const bool executor : {true, false}) {
      const std::string label =
          std::string(op) + (executor ? " [executor]" : " [reference]");
      Runs forms;
      forms.got = executor ? got.got : got.want;
      forms.got_stats = executor ? got.got_stats : got.want_stats;
      forms.want = executor ? want.got : want.want;
      forms.want_stats = executor ? want.got_stats : want.want_stats;
      ExpectAgree(forms, label);
    }
  }
}

// ---------------- LERA plans over the verifier's corner databases -------

TEST(VecDiffTest, LeraCorpusMatchesReferenceOnCornerDatabases) {
  auto env = verify::VerifyEnv::Create(/*seed=*/42, /*random_databases=*/4);
  EDS_ASSERT_OK(env.status());
  size_t vec_batches = 0;
  for (const char* text : testutil::kLeraCorpus) {
    auto plan = term::ParseTerm(text);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    for (const auto& instance : (*env)->instances()) {
      const Runs runs =
          RunBoth((*env)->catalog(), *instance.db, *plan);
      // The same rows and tallies, or the same error.
      ExpectAgree(runs, std::string(text) + " @" + instance.name);
      vec_batches += runs.got_stats.batches;
    }
  }
  EXPECT_GT(vec_batches, 0u);
}

// The ExecStats charge model is the reference's: logical qualification
// counts and scan counts (the span args batch_count/rows_per_batch carry
// the kernel-level detail instead).
TEST(VecDiffTest, ScanAndOutputTalliesMatchReference) {
  testutil::FilmDb db;
  auto plan = term::ParseTerm(
      "SEARCH(LIST(RELATION('BEATS'), RELATION('BEATS')), "
      "($1.2 = $2.1), LIST($1.1, $2.2))");
  ASSERT_TRUE(plan.ok());
  const Runs runs = RunBoth(db.session.catalog(), db.session.db(), *plan);
  ASSERT_TRUE(runs.got.ok()) << runs.got.status().ToString();
  ExpectAgree(runs, "BEATS join");
  EXPECT_EQ(runs.got_stats.rows_scanned, 18u);
  EXPECT_GT(runs.got_stats.batches, 0u);
  EXPECT_EQ(runs.want_stats.batches, 0u);
}

// ---------------- The first error, as the nested loop meets it ----------

// L's V column is, in row order, 1 2 3 4 5 6 12 7 8 9 10 0, and its K
// column 1.0 2 NULL 1 2.0 3 1 2.5 2 1 NULL 5; S's V is 10 0 20.

// Of two conjuncts that can fail, the later one fails on an earlier row:
// the nested loop meets its error first, at row 1.
TEST(VecDiffTest, LaterConjunctFailingOnAnEarlierRowWins) {
  Session s;
  LoadJoinTables(&s);
  ExpectErrorMatchesReference(
      &s,
      Search({"L"},
             "((DIV(12, SUB($1.2, 3)) <> 0) AND (MOD(12, SUB($1.2, 1)) <> 5))",
             "$1.1"),
      "RuntimeError: MOD: division by zero");
  ExpectErrorMatchesReference(
      &s,
      Search({"L"},
             "((MOD(12, SUB($1.2, 1)) <> 5) AND (DIV(12, SUB($1.2, 3)) <> 0))",
             "$1.1"),
      "RuntimeError: MOD: division by zero");
  // The earlier conjunct failing on the earlier row.
  ExpectErrorMatchesReference(
      &s,
      Search({"L"},
             "((DIV(12, SUB($1.2, 2)) <> 0) AND (MOD(12, SUB($1.2, 3)) <> 5))",
             "$1.1"),
      "RuntimeError: DIV: division by zero");
}

// The projections run in order on each combination: the first error is at
// the earliest combination where one fails, and there the first to fail.
TEST(VecDiffTest, FirstFailingProjectionOfTheFirstFailingRowWins) {
  Session s;
  LoadJoinTables(&s);
  const std::pair<const char*, const char*> cases[] = {
      {"DIV(12, SUB($1.2, 3)), MOD(12, SUB($1.2, 1))",
       "RuntimeError: MOD: division by zero"},
      {"MOD(12, SUB($1.2, 2)), DIV(12, SUB($1.2, 1))",
       "RuntimeError: DIV: division by zero"},
      {"DIV(12, SUB($1.2, 1)), MOD(12, SUB($1.2, 1))",
       "RuntimeError: DIV: division by zero"},
      {"$1.1, $1.9", "RuntimeError: ATTR column out of range: $1.9"},
  };
  for (const auto& [projections, error] : cases) {
    ExpectErrorMatchesReference(&s, Search({"L"}, "TRUE", projections),
                                error);
  }
  // Behind a filter that keeps only rows before the first failure.
  ExpectPlanMatchesReference(
      &s, Search({"L"}, "($1.2 < 3)", "DIV(12, SUB($1.2, 3)), $1.1"), false);
}

// A level-1 failure on S's second row against level-2 failures: one on
// the combination of S's first row with L's first, which the nested loop
// meets first, and one it never reaches.
TEST(VecDiffTest, EarlierCombinationFailsFirstAcrossLevels) {
  Session s;
  LoadJoinTables(&s);
  // Right-only, so it runs before the join.
  ExpectErrorMatchesReference(
      &s,
      Search({"S", "L"},
             "((DIV(12, $1.2) >= 0) AND (MOD(12, SUB($2.2, 1)) >= 0))",
             "$1.2, $2.2"),
      "RuntimeError: MOD: division by zero");
  // Over both inputs, so it runs after the join: it fails on S's first row
  // with L's V = 10 row.
  ExpectErrorMatchesReference(
      &s,
      Search({"S", "L"},
             "((DIV(12, $1.2) >= 0) AND (MOD(12, SUB($2.2, $1.2)) >= 0))",
             "$1.2, $2.2"),
      "RuntimeError: MOD: division by zero");
  // It would fail only on S's third row, which the level-1 failure drops.
  ExpectErrorMatchesReference(
      &s,
      Search({"S", "L"},
             "((DIV(12, $1.2) >= 0) AND "
             "(MOD(12, SUB($2.2, SUB($1.2, 20))) >= 0))",
             "$1.2, $2.2"),
      "RuntimeError: DIV: division by zero");
  // A projection failing on a row the level-1 failure keeps.
  ExpectErrorMatchesReference(
      &s,
      Search({"S", "L"}, "((DIV(12, $1.2) >= 0) AND ($2.2 > 11))",
             "$1.2, MOD($2.2, 0)"),
      "RuntimeError: MOD: division by zero");
}

// The connectives' and the qualification's own type errors.
TEST(VecDiffTest, NonBooleanOperandsFailAsTheScalarEvaluatorDoes) {
  Session s;
  LoadJoinTables(&s);
  const std::pair<const char*, const char*> cases[] = {
      {"((($1.2 > 3) AND $1.1) OR ($1.2 = 0))",
       "TypeError: AND over non-boolean operands"},
      {"(($1.2 < 3) OR $1.1)", "TypeError: OR over non-boolean operands"},
      {"(($1.2 > 3) AND ADD($1.2, 1))",
       "TypeError: qualification did not evaluate to a boolean: "
       "($1.2 + 1)"},
      {"(NOT $1.1)", "TypeError: NOT: boolean operand required"},
      {"(($1.2 > 3) AND (NOT $1.1))",
       "TypeError: NOT: boolean operand required"},
      // The right operand's own error comes before the type check.
      {"(NOT (ADD($1.2, 0) AND (DIV(12, SUB($1.2, 1)) > 0)))",
       "RuntimeError: DIV: division by zero"},
  };
  for (const auto& [qual, error] : cases) {
    ExpectErrorMatchesReference(&s, Search({"L"}, qual, "$1.1"), error);
  }
}

// fixpoint_exec_test's kDivBehindPruning shape on a plain SEARCH: the
// right-only DIV fails on L's V = 1 row, which the conjunct written before
// it drops for every left row, so it must not run before the join.
TEST(VecDiffTest, RightOnlyDivBehindAPruningConjunctAnswers) {
  Session s;
  LoadJoinTables(&s);
  ExpectPlanMatchesReference(
      &s,
      Search({"M", "L"}, "(($1.2 < $2.2) AND (DIV(12, SUB($2.2, 1)) > 0))",
             "$1.2, $2.2"),
      false);
  ExpectPlanMatchesReference(
      &s,
      Search({"M", "L"},
             "(($1.2 < $2.2) AND (($1.1 = $2.1) AND "
             "(DIV(12, SUB($2.2, 1)) > 0)))",
             "$1.2, $2.2"),
      false);
}

// A cross product over kMaxCrossPairs (2^22) pairs is joined a slice of
// left rows at a time, in order: 2,049 x 2,049 rows of T (A descending, B
// = A + 2045, C = A + 1000), of which the after-join conjuncts keep the
// four with A = B', or fail in the second slice, on the first row with
// A = C' whose A is 1018.
TEST(VecDiffTest, CrossProductPastTheCapJoinsInSlices) {
  using value::Value;
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript("CREATE TABLE T (A : INT, B : INT, C : INT);"));
  for (int64_t a = 2048; a >= 0; --a) {
    EDS_ASSERT_OK(s.InsertRow(
        "T", {Value::Int(a), Value::Int(a + 2045), Value::Int(a + 1000)}));
  }
  const std::string keep = Search(
      {"T", "T"}, "(($1.1 >= $2.2) AND ($1.1 <= $2.2))", "$1.1, $2.1");
  auto plan = term::ParseTerm(keep);
  ASSERT_TRUE(plan.ok());
  const Runs runs = RunBoth(s.catalog(), s.db(), *plan);
  ASSERT_TRUE(runs.got.ok()) << runs.got.status().ToString();
  ExpectAgree(runs, keep);
  EXPECT_EQ(runs.got->size(), 4u);
  EXPECT_GT(runs.got_stats.batches, 2u);
  ExpectErrorMatchesReference(
      &s,
      Search({"T", "T"},
             "((($1.1 >= $2.3) AND ($1.1 <= $2.3)) AND "
             "(DIV($2.1, SUB($1.1, 1018)) >= 0))",
             "$1.1"),
      "RuntimeError: DIV: division by zero");
}

}  // namespace
}  // namespace eds::exec
