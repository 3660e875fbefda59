// Execution engine: storage, expression evaluation, operators.
#include "exec/executor.h"

#include "exec/vec/vec_eval.h"
#include "gtest/gtest.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds::exec {
namespace {

using term::TermRef;
using value::Value;

TermRef P(const char* text) {
  auto r = term::ParseTerm(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

TEST(StorageTest, TableArityChecked) {
  Table t(2);
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(t.Insert({Value::Int(1)}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.size(), 1u);
}

// A table's batch is its only image: Insert appends each cell under the
// lane rules of vec::Batch::FromRows, so the batch matches FromRows over
// the same rows lane for lane, and RowAt reads every cell back unchanged.
TEST(StorageTest, InsertBuildsTheBatchFromRowsWould) {
  ObjectHeap heap;
  const Value ref = heap.New(
      types::Type::MakeObject(
          "Actor", {{"Name", types::Type::MakeScalar(types::TypeKind::kChar)}},
          nullptr),
      Value::NamedTuple({"Name"}, {Value::String("Quinn")}));
  const Rows rows = {
      {Value::Null(), Value::Int(1), Value::Null(),
       Value::Set({Value::Int(1)}), ref},
      {Value::Null(), Value::Real(2.5), Value::Int(3), Value::Set({}),
       Value::Null()},
      {Value::Null(), Value::Int(4), Value::Null(), Value::Null(), ref},
  };
  Table t(5);
  for (const Row& r : rows) EDS_ASSERT_OK(t.Insert(r));
  vec::Batch expected;
  ASSERT_TRUE(vec::Batch::FromRows(rows, &expected));
  ASSERT_EQ(t.size(), rows.size());
  ASSERT_EQ(t.batch().rows, rows.size());
  ASSERT_EQ(t.batch().cols.size(), expected.cols.size());
  for (size_t c = 0; c < expected.cols.size(); ++c) {
    EXPECT_EQ(t.batch().cols[c].lane(), expected.cols[c].lane()) << c;
    EXPECT_EQ(t.batch().cols[c].null_count(), expected.cols[c].null_count())
        << c;
  }
  EXPECT_EQ(t.batch().cols[0].lane(), vec::Lane::kNullOnly);
  EXPECT_EQ(t.batch().cols[1].lane(), vec::Lane::kGeneric);  // Int, then Real
  EXPECT_EQ(t.batch().cols[2].lane(), vec::Lane::kInt64);
  EXPECT_EQ(t.batch().cols[3].lane(), vec::Lane::kGeneric);  // sets
  EXPECT_EQ(t.batch().cols[4].lane(), vec::Lane::kObjectRef);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row got = t.RowAt(i);
    ASSERT_EQ(got.size(), rows[i].size());
    for (size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c].kind(), rows[i][c].kind()) << i << "," << c;
      EXPECT_EQ(got[c], rows[i][c]) << i << "," << c;
    }
  }
}

// Object references get an unboxed lane under the Int lane's rules: NULLs
// before the first reference are kept, and any other kind demotes the
// column to generic without changing a cell.
TEST(StorageTest, ObjectRefLaneCommitsAndDemotes) {
  vec::ColumnVector refs;
  refs.AppendNull();
  refs.AppendValue(Value::ObjectRef(7));
  refs.AppendValue(Value::ObjectRef(3));
  ASSERT_EQ(refs.lane(), vec::Lane::kObjectRef);
  EXPECT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs.null_count(), 1u);
  EXPECT_TRUE(refs.IsNull(0));
  EXPECT_EQ(refs.ObjectRefAt(1), 7u);
  EXPECT_EQ(refs.ValueAt(2).kind(), value::ValueKind::kObjectRef);
  EXPECT_EQ(refs.ValueAt(2), Value::ObjectRef(3));
  EXPECT_GT(refs.CompareCells(1, refs, 2), 0);
  const vec::ColumnVector picked = refs.Gather({0, 2});
  EXPECT_EQ(picked.lane(), vec::Lane::kObjectRef);
  EXPECT_TRUE(picked.IsNull(0));
  EXPECT_EQ(picked.ValueAt(1), Value::ObjectRef(3));

  const std::vector<Value> mixed = {Value::ObjectRef(1), Value::Null(),
                                    Value::Int(1), Value::ObjectRef(2),
                                    Value::String("x")};
  vec::ColumnVector col;
  for (const Value& v : mixed) col.AppendValue(v);
  EXPECT_EQ(col.lane(), vec::Lane::kGeneric);
  EXPECT_EQ(col.null_count(), 1u);
  ASSERT_EQ(col.size(), mixed.size());
  for (size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(col.ValueAt(i).kind(), mixed[i].kind()) << i;
    EXPECT_EQ(value::Compare(col.ValueAt(i), mixed[i]), 0) << i;
  }
  // A Value of another kind arriving first demotes on the first reference.
  vec::ColumnVector ints;
  ints.AppendValue(Value::Int(5));
  ints.AppendValue(Value::ObjectRef(5));
  EXPECT_EQ(ints.lane(), vec::Lane::kGeneric);
  EXPECT_EQ(ints.ValueAt(0), Value::Int(5));
  EXPECT_EQ(ints.ValueAt(1).kind(), value::ValueKind::kObjectRef);
}

// A constant broadcast over a batch is one column of the constant's lane,
// one cell per row.
TEST(StorageTest, ConstantBroadcastFillsItsLane) {
  constexpr size_t kRows = 8000;
  vec::Batch batch;
  batch.rows = kRows;
  batch.cols.resize(1);
  for (size_t i = 0; i < kRows; ++i) {
    batch.cols[0].AppendInt(static_cast<int64_t>(i));
  }
  vec::ExprFrame frame;
  frame.batch = &batch;
  frame.offsets = {0, 1};
  const std::pair<Value, vec::Lane> cases[] = {
      {Value::Int(5), vec::Lane::kInt64},
      {Value::Real(2.5), vec::Lane::kFloat64},
      {Value::Bool(true), vec::Lane::kBool},
      {Value::ObjectRef(9), vec::Lane::kObjectRef},
      {Value::String("x"), vec::Lane::kGeneric},
      {Value::Null(), vec::Lane::kNullOnly},
  };
  for (const auto& [v, lane] : cases) {
    auto col = vec::EvalExprBatch(term::Term::Constant(v), frame);
    ASSERT_TRUE(col.ok()) << v << ": " << col.status().ToString();
    EXPECT_EQ((*col)->size(), kRows) << v;
    EXPECT_EQ((*col)->lane(), lane) << v;
    EXPECT_EQ((*col)->ValueAt(kRows - 1).kind(), v.kind()) << v;
    EXPECT_EQ(value::Compare((*col)->ValueAt(kRows - 1), v), 0) << v;
  }
}

TEST(StorageTest, EmptyTableKeepsItsWidth) {
  Table t(3);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.column_count(), 3u);
  EXPECT_EQ(t.batch().cols.size(), 3u);
}

TEST(StorageTest, ObjectHeapRoundTrip) {
  ObjectHeap heap;
  Value ref = heap.New(
      types::Type::MakeObject(
          "Actor", {{"Name", types::Type::MakeScalar(types::TypeKind::kChar)}},
          nullptr),
      Value::NamedTuple({"Name"}, {Value::String("Quinn")}));
  ASSERT_EQ(ref.kind(), value::ValueKind::kObjectRef);
  auto obj = heap.Get(ref.AsObjectRef());
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ((*obj)->type->name(), "Actor");
  EXPECT_EQ(*(*obj)->state.FindField("Name"), Value::String("Quinn"));
  // Update in place; references stay valid (object identity).
  EXPECT_TRUE(heap.Update(ref.AsObjectRef(),
                          Value::NamedTuple({"Name"},
                                            {Value::String("Anthony")}))
                  .ok());
  obj = heap.Get(ref.AsObjectRef());
  EXPECT_EQ(*(*obj)->state.FindField("Name"), Value::String("Anthony"));
  // Dangling references fail.
  EXPECT_FALSE(heap.Get(99).ok());
  EXPECT_FALSE(heap.Update(0, Value::Null()).ok());
}

TEST(StorageTest, DatabaseTables) {
  Database db;
  EXPECT_TRUE(db.CreateTable("T", 2).ok());
  EXPECT_EQ(db.CreateTable("t", 1).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_FALSE(db.GetTable("U").ok());
}

class ExecTest : public ::testing::Test {
 protected:
  Rows Run(const char* plan, ExecOptions options = {}) {
    Executor executor(&db_.session.catalog(), &db_.session.db(), options);
    auto rows = executor.Execute(P(plan));
    EXPECT_TRUE(rows.ok()) << plan << ": " << rows.status().ToString();
    stats_ = executor.stats();
    return rows.ok() ? *rows : Rows{};
  }

  testutil::FilmDb db_;
  ExecStats stats_;
};

TEST_F(ExecTest, ScanBaseTable) {
  Rows rows = Run("RELATION('FILM')");
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(stats_.rows_scanned, 3u);
}

// An insert after a scan is visible to the next scan on both engines: the
// batch the first scan read is the one Insert appended to, in place, so
// nothing is rebuilt between them.
TEST_F(ExecTest, InsertAfterScanIsVisibleToBothEngines) {
  ExecOptions row_path;
  row_path.vectorized = false;
  const char* search =
      "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2))";
  const char* scan = "RELATION('BEATS')";
  const size_t before = Run(search).size();
  EXPECT_EQ(Run(search, row_path).size(), before);
  EXPECT_EQ(Run(scan).size(), before);
  auto beats = db_.session.db().GetTable("BEATS");
  ASSERT_TRUE(beats.ok());
  const vec::Batch* image = &(*beats)->batch();

  EDS_ASSERT_OK(
      db_.session.InsertRow("BEATS", {Value::Int(100), Value::Int(101)}));
  EXPECT_EQ(&(*beats)->batch(), image);
  EXPECT_EQ(image->rows, before + 1);
  const Row added = {Value::Int(100), Value::Int(101)};
  for (const char* plan : {search, scan}) {
    for (bool vectorized : {true, false}) {
      ExecOptions options;
      options.vectorized = vectorized;
      Rows rows = Run(plan, options);
      ASSERT_EQ(rows.size(), before + 1) << plan << " " << vectorized;
      EXPECT_EQ(rows.back(), added) << plan << " " << vectorized;
      EXPECT_EQ(stats_.rows_scanned, before + 1) << plan << " " << vectorized;
    }
  }
}

TEST_F(ExecTest, ViewReferenceEvaluatesDefinition) {
  EDS_ASSERT_OK(db_.session.ExecuteScript(
      "CREATE VIEW Winners (W) AS SELECT Winner FROM BEATS;"));
  Rows rows = Run("RELATION('Winners')");
  EXPECT_EQ(rows.size(), 9u);
}

TEST_F(ExecTest, UnknownRelationFails) {
  Executor executor(&db_.session.catalog(), &db_.session.db(), {});
  EXPECT_EQ(executor.Execute(P("RELATION('GHOST')")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ExecTest, SearchSelectProject) {
  Rows rows = Run(
      "SEARCH(LIST(RELATION('BEATS')), ($1.1 > 7), LIST($1.2))");
  ASSERT_EQ(rows.size(), 2u);  // winners 8, 9
  EXPECT_EQ(rows[0][0], Value::Int(9));
  EXPECT_EQ(rows[1][0], Value::Int(10));
}

TEST_F(ExecTest, SearchJoinWithEagerPruning) {
  Rows rows = Run(
      "SEARCH(LIST(RELATION('BEATS'), RELATION('BEATS')), "
      "(($1.1 = 1) AND ($1.2 = $2.1)), LIST($1.1, $2.2))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Int(3));  // 1 -> 2 -> 3
  // Eager conjunct evaluation: level-1 conjunct prunes before the join
  // level, so far fewer than 9 * 9 qualification probes happen.
  EXPECT_LT(stats_.qual_evaluations, 30u);
}

TEST_F(ExecTest, ConstantFalseShortCircuits) {
  Rows rows = Run("SEARCH(LIST(RELATION('BEATS')), FALSE, LIST($1.1))");
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(stats_.rows_scanned, 0u);
}

TEST_F(ExecTest, ObjectNavigation) {
  // FIELD(VALUE(ref), 'Name') dereferences the heap.
  Rows rows = Run(
      "SEARCH(LIST(RELATION('APPEARS_IN')), "
      "(FIELD(VALUE($1.2), 'Name') = 'Quinn'), "
      "LIST($1.1, FIELD(VALUE($1.2), 'Salary')))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_EQ(rows[0][1], Value::Int(12000));
}

TEST_F(ExecTest, FieldAutoDereferencesObjects) {
  // FIELD directly on an object reference also works (the executor applies
  // the type conversion, §3.3).
  Rows rows = Run(
      "SEARCH(LIST(RELATION('APPEARS_IN')), TRUE, "
      "LIST(FIELD($1.2, 'Name')))");
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(ExecTest, CollectionFunctionsInQualifications) {
  Rows rows = Run(
      "SEARCH(LIST(RELATION('FILM')), MEMBER('Adventure', $1.3), "
      "LIST($1.2))");
  ASSERT_EQ(rows.size(), 2u);  // Zorba and Space Saga
}

TEST_F(ExecTest, UnionDeduplicates) {
  Rows rows = Run("UNION(SET(RELATION('BEATS'), RELATION('BEATS')))");
  EXPECT_EQ(rows.size(), 9u);
}

TEST_F(ExecTest, DifferenceAndIntersect) {
  Rows rows = Run(
      "DIFFERENCE(RELATION('BEATS'), SEARCH(LIST(RELATION('BEATS')), "
      "($1.1 > 5), LIST($1.1, $1.2)))");
  EXPECT_EQ(rows.size(), 5u);
  rows = Run(
      "INTERSECT(RELATION('BEATS'), SEARCH(LIST(RELATION('BEATS')), "
      "($1.1 > 5), LIST($1.1, $1.2)))");
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(ExecTest, FilterProjectJoinBasicOps) {
  Rows rows = Run("FILTER(RELATION('BEATS'), ($1.1 = 3))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 2u);
  rows = Run("PROJECT(RELATION('BEATS'), LIST($1.2, $1.1))");
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(rows[0][0], Value::Int(2));
  rows = Run(
      "JOIN(RELATION('BEATS'), RELATION('BEATS'), ($1.2 = $2.1))");
  EXPECT_EQ(rows.size(), 8u);  // chain compositions
}

TEST_F(ExecTest, NestGroupsIntoSets) {
  Rows rows = Run("NEST(RELATION('APPEARS_IN'), LIST(2), 'Actors')");
  ASSERT_EQ(rows.size(), 3u);  // films 1, 2, 3
  // Film 1 groups two actor references.
  for (const Row& r : rows) {
    if (r[0] == Value::Int(1)) {
      ASSERT_EQ(r[1].kind(), value::ValueKind::kSet);
      EXPECT_EQ(r[1].size(), 2u);
    }
  }
}

TEST_F(ExecTest, UnnestInvertsNest) {
  Rows nested = Run("NEST(RELATION('APPEARS_IN'), LIST(2), 'Actors')");
  Rows unnested =
      Run("UNNEST(NEST(RELATION('APPEARS_IN'), LIST(2), 'Actors'), 2)");
  Rows original = Run("RELATION('APPEARS_IN')");
  testutil::ExpectSameRows(unnested, original);
  EXPECT_LT(nested.size(), unnested.size());
}

TEST_F(ExecTest, NestMultipleColumns) {
  // Nesting two columns produces a set of pairs.
  Rows rows = Run("NEST(RELATION('BEATS'), LIST(1, 2), 'Pairs')");
  ASSERT_EQ(rows.size(), 1u);  // no non-nested columns: one group
  ASSERT_EQ(rows[0].size(), 1u);
  EXPECT_EQ(rows[0][0].size(), 9u);
  EXPECT_EQ(rows[0][0].elements()[0].kind(), value::ValueKind::kTuple);
}

TEST_F(ExecTest, QuantifiersOverNestedSets) {
  EDS_ASSERT_OK(db_.session.ExecuteScript(R"(
    CREATE VIEW FA (Numf, Actors) AS
      SELECT Numf, MakeSet(Refactor) FROM APPEARS_IN GROUP BY Numf;
  )"));
  // Film 1 has Quinn (12000) and Eva (15000): ALL > 10000 holds. Film 2
  // has Bob (9000): fails.
  Rows rows = Run(
      "SEARCH(LIST(RELATION('FA')), "
      "FORALL($1.2, (FIELD(VALUE(ELEM()), 'Salary') > 10000)), "
      "LIST($1.1))");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_EQ(rows[1][0], Value::Int(3));
  rows = Run(
      "SEARCH(LIST(RELATION('FA')), "
      "EXISTS($1.2, (FIELD(VALUE(ELEM()), 'Name') = 'Bob')), LIST($1.1))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(2));
}

TEST_F(ExecTest, ExpressionErrorsSurface) {
  Executor executor(&db_.session.catalog(), &db_.session.db(), {});
  // ATTR out of range.
  EXPECT_FALSE(
      executor.Execute(P("SEARCH(LIST(RELATION('BEATS')), ($1.9 = 1), "
                         "LIST($1.1))"))
          .ok());
  // Unknown function.
  EXPECT_FALSE(
      executor.Execute(P("SEARCH(LIST(RELATION('BEATS')), NOFN($1.1), "
                         "LIST($1.1))"))
          .ok());
  // VALUE on a non-object.
  EXPECT_FALSE(
      executor.Execute(P("SEARCH(LIST(RELATION('BEATS')), TRUE, "
                         "LIST(VALUE($1.1)))"))
          .ok());
}

TEST_F(ExecTest, ThreeValuedWhereSemantics) {
  // NULL qualification results exclude the row rather than erroring.
  EDS_ASSERT_OK(db_.session.ExecuteScript("CREATE TABLE N (A : INT);"));
  EDS_ASSERT_OK(db_.session.InsertRow("N", {Value::Null()}));
  EDS_ASSERT_OK(db_.session.InsertRow("N", {Value::Int(5)}));
  Rows rows = Run("SEARCH(LIST(RELATION('N')), ($1.1 > 1), LIST($1.1))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(5));
}

}  // namespace
}  // namespace eds::exec
