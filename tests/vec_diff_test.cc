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
