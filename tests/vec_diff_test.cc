// Differential suite for the columnar batch executor: the row engine is
// the oracle (docs/executor.md). Every plan here runs twice — vectorized
// on and off — and the outputs must be byte-identical *sequences*: same
// rows, same order, same value kinds. Two corpora:
//   * an ESQL corpus over the FilmDb schema, with the rewriter both on and
//     off (four pipeline variants per query), and
//   * LERA plans over the soundness verifier's corner databases
//     (src/verify/instance.h): duplicates, NULLs, empties, seeded random
//     fills — the corners where 3VL and bag semantics diverge first.
// The suite also proves it is not vacuous: the vectorized runs must report
// batch work (exec.batches > 0) and zero fallbacks on supported shapes.
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "term/parser.h"
#include "lera_corpus.h"
#include "testutil.h"
#include "verify/instance.h"

namespace eds::exec {
namespace {

using term::TermRef;

// Byte-identical sequences: order matters, value kinds matter (Int(2) and
// Real(2.0) compare equal but are different bytes on the wire).
void ExpectSameSequence(const Rows& vec, const Rows& row,
                        const std::string& label) {
  ASSERT_EQ(vec.size(), row.size()) << label;
  for (size_t i = 0; i < vec.size(); ++i) {
    ASSERT_EQ(vec[i].size(), row[i].size()) << label << " row " << i;
    for (size_t j = 0; j < vec[i].size(); ++j) {
      EXPECT_EQ(vec[i][j].kind(), row[i][j].kind())
          << label << " row " << i << " col " << j;
      EXPECT_EQ(value::Compare(vec[i][j], row[i][j]), 0)
          << label << " row " << i << " col " << j << ": "
          << vec[i][j].ToString() << " vs " << row[i][j].ToString();
    }
  }
}

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

TEST(VecDiffTest, EsqlCorpusMatchesRowEngine) {
  testutil::FilmDb db;
  size_t vec_batches = 0;
  for (const char* esql : kEsqlCorpus) {
    for (bool rewrite : {true, false}) {
      QueryOptions on, off;
      on.rewrite = off.rewrite = rewrite;
      on.exec_options.vectorized = true;
      off.exec_options.vectorized = false;
      auto vec = db.session.Query(esql, on);
      auto row = db.session.Query(esql, off);
      ASSERT_TRUE(vec.ok()) << esql << ": " << vec.status().ToString();
      ASSERT_TRUE(row.ok()) << esql << ": " << row.status().ToString();
      const std::string label =
          std::string(esql) + (rewrite ? " [rewrite]" : " [raw]");
      ExpectSameSequence(vec->rows, row->rows, label);
      EXPECT_EQ(vec->exec_stats.vec_fallbacks, 0u) << label;
      EXPECT_EQ(row->exec_stats.batches, 0u) << label;  // oracle stays scalar
      vec_batches += vec->exec_stats.batches;
    }
  }
  // Not vacuous: the corpus exercised the kernels.
  EXPECT_GT(vec_batches, 0u);
}

// Scans after inserts: each insert appends to the table's one columnar
// image (a Real that demotes BEATS's Int lanes, a NULL, a FILM row), and
// the next scan on either engine must read exactly the appended rows.
TEST(VecDiffTest, ScanAfterInsertMatchesRowEngine) {
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
      QueryOptions on, off;
      on.exec_options.vectorized = true;
      off.exec_options.vectorized = false;
      auto vec = db.session.Query(esql, on);
      auto row = db.session.Query(esql, off);
      ASSERT_TRUE(vec.ok()) << esql << ": " << vec.status().ToString();
      ASSERT_TRUE(row.ok()) << esql << ": " << row.status().ToString();
      ExpectSameSequence(vec->rows, row->rows,
                         std::string(esql) + " after " +
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
// exactly what the row engine sees, before and after a NULL reference
// lands in the column.
TEST(VecDiffTest, ObjectColumnsMatchRowEngine) {
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
        QueryOptions on, off;
        on.rewrite = off.rewrite = rewrite;
        on.exec_options.vectorized = true;
        off.exec_options.vectorized = false;
        auto vec = db.session.Query(esql, on);
        auto row = db.session.Query(esql, off);
        ASSERT_EQ(vec.ok(), row.ok())
            << esql << ": "
            << (vec.ok() ? row.status() : vec.status()).ToString();
        ASSERT_TRUE(row.ok()) << esql << ": " << row.status().ToString();
        ExpectSameSequence(vec->rows, row->rows,
                           std::string(esql) + " " + when +
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

TEST(VecDiffTest, RecursiveViewMatchesRowEngine) {
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
    QueryOptions on, off;
    on.exec_options.vectorized = true;
    off.exec_options.vectorized = false;
    auto vec = db.session.Query(esql, on);
    auto row = db.session.Query(esql, off);
    ASSERT_TRUE(vec.ok()) << esql << ": " << vec.status().ToString();
    ASSERT_TRUE(row.ok()) << esql << ": " << row.status().ToString();
    ExpectSameSequence(vec->rows, row->rows, esql);
    EXPECT_EQ(vec->exec_stats.vec_fallbacks, 0u) << esql;
  }
}

// A comparison with one constant operand runs a column-against-value
// kernel rather than broadcasting the constant. Every operator, with the
// constant on either side, over an Int lane, a Real lane, a string column
// and a mixed Int/Real column (both kGeneric), each with a NULL cell,
// against Int, Real, string (inline and heap) and NULL constants, must
// read exactly as the row engine does.
TEST(VecDiffTest, ConstantComparisonsMatchRowEngine) {
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
          ExecOptions on, off;
          on.vectorized = true;
          off.vectorized = false;
          ExecStats vec_stats, row_stats;
          Result<Rows> vec = s.Run(plan, on, &vec_stats);
          Result<Rows> row = s.Run(plan, off, &row_stats);
          const std::string label = qual->ToString();
          ASSERT_TRUE(vec.ok()) << label << ": " << vec.status().ToString();
          ASSERT_TRUE(row.ok()) << label << ": " << row.status().ToString();
          ExpectSameSequence(*vec, *row, label);
          EXPECT_EQ(vec_stats.vec_fallbacks, 0u) << label;
          batches += vec_stats.batches;
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

// Runs `text` on both engines. When `must_fail` the row engine fails and
// the vectorized run must surface the same error; otherwise both return
// the same rows in the same order, with no fallback to the row path.
void ExpectPlanMatchesRowEngine(Session* s, const std::string& text,
                                bool must_fail) {
  auto plan = term::ParseTerm(text);
  ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
  ExecOptions on, off;
  on.vectorized = true;
  off.vectorized = false;
  ExecStats vec_stats, row_stats;
  Result<Rows> vec = s->Run(*plan, on, &vec_stats);
  Result<Rows> row = s->Run(*plan, off, &row_stats);
  if (must_fail) {
    ASSERT_FALSE(row.ok()) << text;
    ASSERT_FALSE(vec.ok()) << text;
    EXPECT_EQ(vec.status().ToString(), row.status().ToString()) << text;
    return;
  }
  ASSERT_TRUE(row.ok()) << text << ": " << row.status().ToString();
  ASSERT_TRUE(vec.ok()) << text << ": " << vec.status().ToString();
  ExpectSameSequence(*vec, *row, text);
  EXPECT_EQ(vec_stats.vec_fallbacks, 0u) << text;
  EXPECT_GT(vec_stats.batches, 0u) << text;
  EXPECT_EQ(vec_stats.rows_scanned, row_stats.rows_scanned) << text;
  EXPECT_EQ(vec_stats.rows_output, row_stats.rows_output) << text;
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
// pairs right row by right row, and a counting sort must restore the row
// engine's (left asc, right asc) order; duplicate keys on both sides make
// the two orders differ. Left smaller than, equal to and larger than the
// right; NULL keys; Int keys against Real keys; two keys at once.
TEST(VecDiffTest, HashJoinsMatchRowEngineOnEitherBuildSide) {
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
    ExpectPlanMatchesRowEngine(&s, Search(tables, kOne, kOut), false);
    ExpectPlanMatchesRowEngine(&s, Search(tables, kTwo, kOut), false);
  }
  // Keys computed by expressions, and an equi-conjunct beside a residual.
  ExpectPlanMatchesRowEngine(
      &s, Search({"S", "L"}, "(DIV($1.2, 10) = $2.1)", kOut), false);
  ExpectPlanMatchesRowEngine(
      &s, Search({"M", "E"}, "(($1.1 = $2.1) AND ($1.2 < $2.2))", kOut),
      false);
}

// Right-only conjuncts narrow a selection: before the join when the level
// has no equi-conjunct or when they compare a column with a constant,
// after it (on right rows with a partner) otherwise. A right-only
// conjunct that can fail and comes before the equi-conjunct runs on every
// right row, as in the row engine, so both engines fail together; after
// the equi-conjunct it never sees the partnerless row that would fail it.
TEST(VecDiffTest, RightOnlyConjunctsMatchRowEngine) {
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
    ExpectPlanMatchesRowEngine(&s, Search({"S", "L"}, qual, kOut), fails);
  }
  // S's V = 0 row has partners in L.
  ExpectPlanMatchesRowEngine(
      &s, Search({"L", "S"}, "(($1.1 = $2.1) AND (DIV(12, $2.2) > 1))", kOut),
      true);
}

// Three inputs: a second join stage whose left side is the combined batch
// of the first, with a residual over all three inputs ahead of its
// equi-conjunct and a right-only conjunct after it.
TEST(VecDiffTest, ThreeInputSearchMatchesRowEngine) {
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
    ExpectPlanMatchesRowEngine(&s, Search({"S", "M", "L"}, qual, kOut),
                               false);
    ExpectPlanMatchesRowEngine(&s, Search({"L", "E", "S"}, qual, kOut),
                               false);
  }
}

// AND and OR evaluate their right operand only on the rows their left
// operand leaves undecided, as the scalar evaluator does: DIV(12, V) fails
// on V = 0, and every such row is decided by the left operand here, so the
// vectorized run neither fails nor falls back.
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
    ExpectPlanMatchesRowEngine(&s, Search({"L"}, qual, "$1.1, $1.2"), false);
  }
  // The same under a join, where the right operand runs through the
  // combined batch's selection.
  ExpectPlanMatchesRowEngine(
      &s,
      Search({"L", "S"}, "(($1.1 = $2.1) AND (($2.2 = 0) OR "
                         "(DIV(12, $2.2) > 0)))",
             "$1.2, $2.2"),
      false);
  // A row whose left operand does not decide still fails, on both engines.
  ExpectPlanMatchesRowEngine(
      &s, Search({"L"}, "(($1.2 > 5) OR (DIV(12, $1.2) > 1))", "$1.1"),
      true);
}

// A JOIN's qualification is evaluated whole on the row engine, so DIV runs
// on the pairs whose first conjunct is NULL and fails there; the
// vectorized path must fail too rather than drop those rows first.
TEST(VecDiffTest, JoinFailsWhereTheRowEngineFails) {
  Session s;
  LoadJoinTables(&s);
  ExpectPlanMatchesRowEngine(
      &s,
      "JOIN(RELATION('L'), RELATION('S'), "
      "(($1.1 > 100) AND (DIV(12, $2.2) > 1)))",
      true);
  ExpectPlanMatchesRowEngine(
      &s, "JOIN(RELATION('S'), RELATION('L'), (($2.2 > 2) AND ($1.1 = $2.1)))",
      false);
}

// ---------------- LERA plans over the verifier's corner databases -------

TEST(VecDiffTest, LeraCorpusMatchesRowEngineOnCornerDatabases) {
  auto env = verify::VerifyEnv::Create(/*seed=*/42, /*random_databases=*/4);
  EDS_ASSERT_OK(env.status());
  size_t vec_batches = 0;
  size_t vec_fallbacks = 0;
  for (const char* text : testutil::kLeraCorpus) {
    auto plan = term::ParseTerm(text);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    for (const auto& instance : (*env)->instances()) {
      ExecOptions on, off;
      on.vectorized = true;
      off.vectorized = false;
      Executor vec_exec(&(*env)->catalog(), instance.db.get(), on);
      Executor row_exec(&(*env)->catalog(), instance.db.get(), off);
      Result<Rows> vec = vec_exec.Execute(*plan);
      Result<Rows> row = row_exec.Execute(*plan);
      const std::string label = std::string(text) + " @" + instance.name;
      // The engines must agree on success; on error the fallback contract
      // guarantees the row path's error is the one surfaced.
      ASSERT_EQ(vec.ok(), row.ok())
          << label << ": " << (vec.ok() ? row.status() : vec.status())
                 .ToString();
      if (!vec.ok()) continue;
      ExpectSameSequence(*vec, *row, label);
      EXPECT_EQ(row_exec.stats().batches, 0u) << label;
      vec_batches += vec_exec.stats().batches;
      vec_fallbacks += vec_exec.stats().vec_fallbacks;
    }
  }
  EXPECT_GT(vec_batches, 0u);
  // Every corpus shape is kernel-supported: nothing fell back to the oracle.
  EXPECT_EQ(vec_fallbacks, 0u);
}

// The ExecStats charge model must not depend on which engine ran: logical
// qualification counts and scan counts are engine-invariant (the span args
// batch_count/rows_per_batch carry the kernel-level detail instead).
TEST(VecDiffTest, ScanAndOutputTalliesMatchRowEngine) {
  testutil::FilmDb db;
  auto plan = term::ParseTerm(
      "SEARCH(LIST(RELATION('BEATS'), RELATION('BEATS')), "
      "($1.2 = $2.1), LIST($1.1, $2.2))");
  ASSERT_TRUE(plan.ok());
  ExecStats vec_stats, row_stats;
  ExecOptions on, off;
  on.vectorized = true;
  off.vectorized = false;
  ASSERT_TRUE(db.session.Run(*plan, on, &vec_stats).ok());
  ASSERT_TRUE(db.session.Run(*plan, off, &row_stats).ok());
  EXPECT_EQ(vec_stats.rows_scanned, row_stats.rows_scanned);
  EXPECT_EQ(vec_stats.rows_output, row_stats.rows_output);
  EXPECT_GT(vec_stats.batches, 0u);
  EXPECT_EQ(row_stats.batches, 0u);
}

}  // namespace
}  // namespace eds::exec
