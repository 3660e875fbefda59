// Execution engine: storage, expression evaluation, operators.
#include "exec/executor.h"

#include "exec/vec/kernels.h"
#include "exec/vec/vec_eval.h"
#include "gtest/gtest.h"
#include "reference/agree.h"
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
// lane rules of vec::Batch::Append, so the batch matches Append's over the
// same rows lane for lane, and RowAt reads every cell back unchanged.
TEST(StorageTest, InsertBuildsTheBatchAppendWould) {
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
  for (const Row& r : rows) EDS_ASSERT_OK(expected.Append(r));
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
    const vec::FrameColumn col =
        vec::EvalExprBatch(term::Term::Constant(v), frame);
    ASSERT_TRUE(col.error.ok()) << v << ": " << col.error.ToString();
    EXPECT_EQ(col.rows, kRows) << v;
    EXPECT_EQ(col->size(), kRows) << v;
    EXPECT_EQ(col->lane(), lane) << v;
    EXPECT_EQ(col->ValueAt(kRows - 1).kind(), v.kind()) << v;
    EXPECT_EQ(value::Compare(col->ValueAt(kRows - 1), v), 0) << v;
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

// Row matching rests on one invariant: Compare-equal cells hash alike in
// every lane. The columns of each group hold pairwise Compare-equal cells
// row by row, in different lanes or representations; every column's rows
// must be found in a RowSet holding any other column's, and rows equal to
// none must not be.
TEST(RowSetTest, CompareEqualCellsHashAlikeInEveryLane) {
  // A one-column batch of `cells`, in the lane Append picks for them.
  auto column = [](std::vector<Value> cells) {
    vec::Batch b;
    for (Value& v : cells) EXPECT_TRUE(b.Append({std::move(v)}).ok());
    return b;
  };
  // The same cells in the generic lane: a leading string demotes the
  // column, and gathering the rows after it keeps the lane.
  auto generic = [&](std::vector<Value> cells) {
    cells.insert(cells.begin(), Value::String("demote"));
    vec::SelectionVector rest;
    for (uint32_t i = 1; i < cells.size(); ++i) rest.push_back(i);
    return column(std::move(cells)).Gather(rest);
  };
  const Value ref = Value::ObjectRef(12), ref3 = Value::ObjectRef(3);
  const std::string heap(40, 'h');
  const Value nested = Value::Set(
      {Value::Set({Value::Int(1), Value::Real(2.5)}), Value::Set({})});
  struct Group {
    const char* what;
    std::vector<vec::Batch> columns;
    std::vector<vec::Lane> lanes;
  };
  const std::vector<Group> groups = {
      {"numbers",
       {column({Value::Int(2), Value::Int(0), Value::Int(-3)}),
        column({Value::Real(2.0), Value::Real(-0.0), Value::Real(-3.0)}),
        column({Value::Real(2.0), Value::Int(0), Value::Real(-3.0)})},
       {vec::Lane::kInt64, vec::Lane::kFloat64, vec::Lane::kGeneric}},
      {"nulls",
       {column({Value::Null(), Value::Null()}),
        generic({Value::Null(), Value::Null()}),
        column({Value::Int(4), Value::Null(), Value::Null()}).Gather({1, 2})},
       {vec::Lane::kNullOnly, vec::Lane::kGeneric, vec::Lane::kInt64}},
      {"references",
       {column({ref, ref3, Value::Null()}), generic({ref, ref3, Value::Null()})},
       {vec::Lane::kObjectRef, vec::Lane::kGeneric}},
      {"inline and heap strings",
       {column({Value::String("fifteen-bytes!!"), Value::String(heap)}),
        column({Value::String(std::string("fifteen-") + "bytes!!"),
                Value::String(heap.substr(0, 20) + heap.substr(20))})},
       {vec::Lane::kGeneric, vec::Lane::kGeneric}},
      {"named and unnamed tuples",
       {column({Value::NamedTuple({"A", "B"}, {Value::Int(1), ref}),
                Value::Tuple({Value::Real(0.5)})}),
        column({Value::Tuple({Value::Real(1.0), ref}),
                Value::NamedTuple({"Z"}, {Value::Real(0.5)})})},
       {vec::Lane::kGeneric, vec::Lane::kGeneric}},
      {"nested sets",
       {column({nested, Value::Set({Value::Set({})})}),
        column({Value::Set({Value::Set({}),
                            Value::Set({Value::Real(2.5), Value::Real(1.0)})}),
                Value::Set({Value::Set({}), Value::Set({})})})},
       {vec::Lane::kGeneric, vec::Lane::kGeneric}},
  };
  for (const Group& g : groups) {
    for (size_t c = 0; c < g.columns.size(); ++c) {
      EXPECT_EQ(g.columns[c].cols[0].lane(), g.lanes[c]) << g.what << c;
    }
    for (const vec::Batch& held : g.columns) {
      vec::RowSet set;
      EDS_ASSERT_OK(set.Insert(held));
      for (const vec::Batch& probe : g.columns) {
        const std::vector<vec::ColumnView> rows(probe.cols.begin(),
                                                probe.cols.end());
        for (size_t r = 0; r < probe.rows; ++r) {
          EXPECT_TRUE(set.Contains(rows, r)) << g.what << " row " << r;
        }
      }
    }
  }
  vec::RowSet numbers;
  EDS_ASSERT_OK(numbers.Insert(groups[0].columns[0]));
  const vec::Batch others = column({Value::Real(2.5), Value::Null(),
                                    Value::String("2"), Value::Bool(true)});
  const std::vector<vec::ColumnView> rows(others.cols.begin(),
                                          others.cols.end());
  for (size_t r = 0; r < others.rows; ++r) {
    EXPECT_FALSE(numbers.Contains(rows, r)) << r;
  }
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
  // The executor's rows for `plan`, which must agree with the reference's.
  Rows Run(const char* plan, ExecOptions options = {}) {
    const reference::Runs runs =
        reference::RunBoth(db_.session.catalog(), db_.session.db(), P(plan),
                           options);
    EXPECT_TRUE(runs.got.ok()) << plan << ": " << runs.got.status().ToString();
    reference::ExpectAgree(runs, plan);
    stats_ = runs.got_stats;
    return runs.got.ok() ? *runs.got : Rows{};
  }

  // The executor's error for `plan`, which must be the reference's.
  Status Fail(const char* plan) {
    const reference::Runs runs = reference::RunBoth(
        db_.session.catalog(), db_.session.db(), P(plan));
    EXPECT_FALSE(runs.got.ok()) << plan;
    reference::ExpectAgree(runs, plan);
    return runs.got.status();
  }

  testutil::FilmDb db_;
  ExecStats stats_;
};

TEST_F(ExecTest, ScanBaseTable) {
  Rows rows = Run("RELATION('FILM')");
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(stats_.rows_scanned, 3u);
}

// An insert after a scan is visible to the next scan, a SEARCH's or a bare
// relation's, as on the reference: the batch the first scan read is the
// one Insert appended to, in place, so nothing is rebuilt between them.
TEST_F(ExecTest, InsertAfterScanIsVisibleToTheNextScan) {
  const char* search =
      "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.1, $1.2))";
  const char* scan = "RELATION('BEATS')";
  const size_t before = Run(search).size();
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
    Rows rows = Run(plan);
    ASSERT_EQ(rows.size(), before + 1) << plan;
    EXPECT_EQ(rows.back(), added) << plan;
    EXPECT_EQ(stats_.rows_scanned, before + 1) << plan;
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
  // Each operator scans and outputs exactly what the SEARCH its
  // normalization rule builds does.
  auto expect_tallies_of = [&](const char* search) {
    const ExecStats op = stats_;
    Run(search);
    EXPECT_EQ(op.rows_scanned, stats_.rows_scanned) << search;
    EXPECT_EQ(op.rows_output, stats_.rows_output) << search;
  };
  Rows rows = Run("FILTER(RELATION('BEATS'), ($1.1 = 3))");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 2u);
  expect_tallies_of(
      "SEARCH(LIST(RELATION('BEATS')), ($1.1 = 3), LIST($1.1, $1.2))");
  rows = Run("PROJECT(RELATION('BEATS'), LIST($1.2, $1.1))");
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(rows[0][0], Value::Int(2));
  expect_tallies_of(
      "SEARCH(LIST(RELATION('BEATS')), TRUE, LIST($1.2, $1.1))");
  rows = Run(
      "JOIN(RELATION('BEATS'), RELATION('BEATS'), ($1.2 = $2.1))");
  EXPECT_EQ(rows.size(), 8u);  // chain compositions
  expect_tallies_of(
      "SEARCH(LIST(RELATION('BEATS'), RELATION('BEATS')), ($1.2 = $2.1), "
      "LIST($1.1, $1.2, $2.1, $2.2))");
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
  // ATTR out of range, with the scalar evaluator's text.
  EXPECT_EQ(Fail("SEARCH(LIST(RELATION('BEATS')), ($1.9 = 1), LIST($1.1))")
                .ToString(),
            "RuntimeError: ATTR column out of range: $1.9");
  // Unknown function.
  Fail("SEARCH(LIST(RELATION('BEATS')), NOFN($1.1), LIST($1.1))");
  // VALUE on a non-object.
  Fail("SEARCH(LIST(RELATION('BEATS')), TRUE, LIST(VALUE($1.1)))");
}

// A relation has one width: a set operation whose non-empty inputs differ
// in width is InvalidArgument, naming both widths. An empty input, whose
// width may be unknown, is not ragged.
TEST_F(ExecTest, RaggedSetOperationsFailCleanly) {
  const std::pair<const char*, const char*> cases[] = {
      {"UNION(SET(RELATION('BEATS'), RELATION('DOMINATE')))",
       "InvalidArgument: UNION over inputs of widths 2 and 3"},
      {"DIFFERENCE(RELATION('DOMINATE'), RELATION('BEATS'))",
       "InvalidArgument: DIFFERENCE over inputs of widths 3 and 2"},
      {"INTERSECT(RELATION('BEATS'), RELATION('DOMINATE'))",
       "InvalidArgument: INTERSECT over inputs of widths 2 and 3"},
  };
  for (const auto& [plan, error] : cases) {
    EXPECT_EQ(Fail(plan).ToString(), error) << plan;
  }
  EXPECT_EQ(Run("UNION(SET(RELATION('BEATS'), "
                "SEARCH(LIST(RELATION('DOMINATE')), FALSE, "
                "LIST($1.1, $1.2, $1.3))))")
                .size(),
            9u);
  EXPECT_EQ(Run("DIFFERENCE(RELATION('BEATS'), "
                "SEARCH(LIST(RELATION('DOMINATE')), ($1.1 > 100), "
                "LIST($1.1, $1.2, $1.3)))")
                .size(),
            9u);
}

// DEDUP reads a stored table in place, as SEARCH does, and its RowSet
// copies each distinct string once, from the stored cell: 5,000 into the
// set, 5,000 sorting them out and 5,000 converting the answer to rows. A
// copy of the stored batch (20,000 more) or a copy through a Value on the
// way into the set (5,000 more) shows here.
TEST_F(ExecTest, DedupCopiesEachDistinctStringOnce) {
  EDS_ASSERT_OK(
      db_.session.ExecuteScript("CREATE TABLE T (A : INT, S : CHAR);"));
  for (int64_t i = 0; i < 20000; ++i) {
    const std::string s = "distinct-row-" + std::to_string(10000 + i % 5000);
    ASSERT_EQ(s.size(), 18u);
    EDS_ASSERT_OK(
        db_.session.InsertRow("T", {Value::Int(i % 5000), Value::String(s)}));
  }
  EXPECT_EQ(Run("DEDUP(RELATION('T'))").size(), 5000u);
  EXPECT_EQ(stats_.rows_scanned, 20000u);
  EXPECT_EQ(stats_.value_copies, 15000u);
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
