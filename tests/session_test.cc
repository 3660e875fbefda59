// The Session facade: scripts, queries, objects, constraints.
#include "exec/session.h"

#include "gtest/gtest.h"
#include "lera/lera.h"
#include "testutil.h"

namespace eds::exec {
namespace {

using value::Value;

TEST(SessionTest, DdlScriptPopulatesCatalogAndStorage) {
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript(R"(
    CREATE TABLE T (A : INT, B : CHAR);
    INSERT INTO T VALUES (1, 'x'), (2, 'y');
  )"));
  EXPECT_TRUE(s.catalog().HasTable("T"));
  auto table = s.db().GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->size(), 2u);
}

TEST(SessionTest, InsertEvaluatesConstructorExpressions) {
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript(R"(
    CREATE TABLE T (A : INT, S : SET OF CHAR);
    INSERT INTO T VALUES (1 + 1, MakeSet('a', 'b', 'a'));
  )"));
  auto table = s.db().GetTable("T");
  ASSERT_TRUE(table.ok());
  const Row row = (*table)->RowAt(0);
  EXPECT_EQ(row[0], Value::Int(2));
  EXPECT_EQ(row[1], Value::Set({Value::String("a"), Value::String("b")}));
}

TEST(SessionTest, InsertRejectsColumnRefs) {
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript("CREATE TABLE T (A : INT);"));
  EXPECT_EQ(s.ExecuteScript("INSERT INTO T VALUES (SomeColumn);").code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, InsertArityMismatchRejected) {
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript("CREATE TABLE T (A : INT, B : INT);"));
  EXPECT_FALSE(s.ExecuteScript("INSERT INTO T VALUES (1);").ok());
}

TEST(SessionTest, QueryReturnsColumnsAndPlans) {
  testutil::FilmDb db;
  auto result = db.session.Query("SELECT Winner, Loser FROM BEATS WHERE "
                                 "Winner > 7");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"Winner", "Loser"}));
  EXPECT_EQ(result->rows.size(), 2u);
  ASSERT_NE(result->raw_plan, nullptr);
  ASSERT_NE(result->optimized_plan, nullptr);
}

TEST(SessionTest, RewriteToggle) {
  testutil::FilmDb db;
  QueryOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto raw = db.session.Query("SELECT Winner FROM BEATS", no_rewrite);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->rewrite_stats.applications, 0u);
  EXPECT_TRUE(term::Equals(raw->raw_plan, raw->optimized_plan));
}

TEST(SessionTest, NewObjectChecksTypeAndFields) {
  testutil::FilmDb db;
  EXPECT_EQ(db.session.NewObject("NoSuchType", {}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.session.NewObject("Text", {}).status().code(),
            StatusCode::kTypeError);  // not an object type
  EXPECT_EQ(db.session
                .NewObject("Actor", {{"Wrong", Value::Int(1)}})
                .status()
                .code(),
            StatusCode::kTypeError);
  // Inherited fields are accepted.
  auto obj = db.session.NewObject(
      "Actor", {{"Name", Value::String("N")}, {"Salary", Value::Int(1)}});
  EXPECT_TRUE(obj.ok());
}

// An object's state holds one value per attribute: a repeated name (in any
// case) is rejected rather than stored, where FIELD access would miss the
// attributes that were left out.
TEST(SessionTest, NewObjectRejectsRepeatedAttributes) {
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript(R"(
    TYPE Person OBJECT TUPLE (Name : CHAR);
    TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC);
    CREATE TABLE T (A : Actor);
  )"));
  EXPECT_EQ(s.NewObject("Actor", {{"Name", Value::String("a")},
                                  {"Name", Value::String("b")}})
                .status()
                .code(),
            StatusCode::kTypeError);
  EXPECT_EQ(s.NewObject("Actor", {{"Name", Value::String("a")},
                                  {"Salary", Value::Int(1)},
                                  {"NAME", Value::String("b")}})
                .status()
                .code(),
            StatusCode::kTypeError);
  auto ok = s.NewObject("Actor", {{"Name", Value::String("a")},
                                  {"Salary", Value::Int(1)}});
  ASSERT_TRUE(ok.ok()) << ok.status();
  EDS_ASSERT_OK(s.InsertRow("T", {*ok}));
  auto r = s.Query("SELECT Salary(A) FROM T");
  ASSERT_TRUE(r.ok()) << r.status();
  testutil::ExpectSameRows({{Value::Int(1)}}, r->rows);
}

// Objects whose fields are given as their type declares them (supertype's
// first) share the type's one name list instead of each carrying a copy;
// fields given in another order get a list of their own. FIELD access and
// the printed state read the same either way.
TEST(SessionTest, ObjectsOfOneTypeShareTheirFieldNames) {
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript(R"(
    TYPE Person OBJECT TUPLE (Name : CHAR);
    TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC);
    CREATE TABLE CAST1 (Ref : Actor);
  )"));
  auto a = s.NewObject("Actor", {{"Name", Value::String("A")},
                                 {"Salary", Value::Int(1)}});
  auto b = s.NewObject("Actor", {{"Name", Value::String("B")},
                                 {"Salary", Value::Int(2)}});
  auto c = s.NewObject("Actor", {{"Salary", Value::Int(3)},
                                 {"Name", Value::String("C")}});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  auto state = [&s](const Value& ref) {
    auto stored = s.db().heap().Get(ref.AsObjectRef());
    EXPECT_TRUE(stored.ok());
    return (*stored)->state;
  };
  const value::FieldNames& shared = state(*a).tuple().names;
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared.get(), state(*b).tuple().names.get());
  auto actor = s.catalog().types().Find("Actor");
  ASSERT_TRUE(actor.ok());
  EXPECT_EQ(shared.get(), (*actor)->object_field_names().get());
  EXPECT_NE(shared.get(), state(*c).tuple().names.get());

  EXPECT_EQ(state(*a).ToString(), "(Name: 'A', Salary: 1)");
  EXPECT_EQ(state(*c).ToString(), "(Salary: 3, Name: 'C')");
  ASSERT_NE(state(*b).FindField("salary"), nullptr);
  EXPECT_EQ(*state(*b).FindField("salary"), Value::Int(2));
  for (const Value& obj : {*a, *b, *c}) {
    EDS_ASSERT_OK(s.InsertRow("CAST1", {obj}));
  }
  auto r = s.Query("SELECT Name(Ref), Salary(Ref) FROM CAST1");
  ASSERT_TRUE(r.ok()) << r.status();
  testutil::ExpectSameRows(
      {{Value::String("A"), Value::Int(1)},
       {Value::String("B"), Value::Int(2)},
       {Value::String("C"), Value::Int(3)}},
      r->rows);
}

TEST(SessionTest, ObjectSharingAcrossRows) {
  // The same actor object appears in two rows; updating it through the
  // heap is visible from both (object identity, §2.1).
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript(R"(
    TYPE Actor OBJECT TUPLE (Name : CHAR, Salary : NUMERIC);
    CREATE TABLE CAST1 (Ref : Actor);
    CREATE TABLE CAST2 (Ref : Actor);
  )"));
  auto quinn = s.NewObject("Actor", {{"Name", Value::String("Quinn")},
                                     {"Salary", Value::Int(100)}});
  ASSERT_TRUE(quinn.ok());
  EDS_ASSERT_OK(s.InsertRow("CAST1", {*quinn}));
  EDS_ASSERT_OK(s.InsertRow("CAST2", {*quinn}));
  EDS_ASSERT_OK(s.db().heap().Update(
      quinn->AsObjectRef(),
      Value::NamedTuple({"Name", "Salary"},
                        {Value::String("Quinn"), Value::Int(999)})));
  for (const char* q : {"SELECT Salary(Ref) FROM CAST1",
                        "SELECT Salary(Ref) FROM CAST2"}) {
    auto r = s.Query(q);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0], Value::Int(999));
  }
}

// InsertRow and NewObject resolve their table or type through a per-session
// cache keyed by the name as spelled. Every spelling reaches the same
// table, DDL between inserts re-resolves, and failures read exactly as an
// uncached lookup's.
TEST(SessionTest, InsertTargetCacheResolvesEverySpelling) {
  testutil::FilmDb db;
  auto beats = db.session.db().GetTable("BEATS");
  ASSERT_TRUE(beats.ok());
  const size_t before = (*beats)->size();
  for (const char* name : {"BEATS", "beats", "Beats", "BEATS", "bEaTs"}) {
    EDS_ASSERT_OK(
        db.session.InsertRow(name, {Value::Int(100), Value::Int(101)}));
  }
  EXPECT_EQ((*beats)->size(), before + 5);
  // More spellings than the cache keeps still land in the one table.
  const std::string many[] = {"BEATS", "BEATs", "BEAts", "BEaTS", "BeATS",
                              "bEATS", "BEATS", "beats", "bEATs", "BEaTs"};
  for (const std::string& name : many) {
    EDS_ASSERT_OK(
        db.session.InsertRow(name, {Value::Int(102), Value::Int(103)}));
  }
  EXPECT_EQ((*beats)->size(), before + 5 + std::size(many));
}

TEST(SessionTest, InsertTargetCacheFollowsDdl) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.InsertRow("BEATS", {Value::Int(1), Value::Int(2)}));
  Status missing = db.session.InsertRow("LATE", {Value::Int(1)});
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  const uint64_t epoch = db.session.catalog().epoch();
  EDS_ASSERT_OK(db.session.ExecuteScript("CREATE TABLE LATE (A : INT);"));
  ASSERT_NE(db.session.catalog().epoch(), epoch);
  EDS_ASSERT_OK(db.session.InsertRow("LATE", {Value::Int(1)}));
  EDS_ASSERT_OK(db.session.InsertRow("late", {Value::Int(2)}));
  EDS_ASSERT_OK(db.session.InsertRow("BEATS", {Value::Int(3), Value::Int(4)}));
  // A view and a constraint move the epoch too.
  EDS_ASSERT_OK(db.session.ExecuteScript(
      "CREATE VIEW LATE_V (A) AS SELECT A FROM LATE;"));
  EDS_ASSERT_OK(db.session.InsertRow("late", {Value::Int(3)}));
  EDS_ASSERT_OK(db.session.ExecuteScript("INSERT INTO late VALUES (4);"));
  auto late = db.session.db().GetTable("LATE");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)->size(), 4u);
  auto rows = db.session.Query("SELECT A FROM LATE_V");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 4u);
  // A type declared after the type cache filled is found.
  auto before = db.session.NewObject("Actor", {{"Name", Value::String("A")}});
  EDS_ASSERT_OK(before.status());
  EXPECT_EQ(db.session.NewObject("Critic", {}).status().code(),
            StatusCode::kNotFound);
  EDS_ASSERT_OK(
      db.session.ExecuteScript("TYPE Critic OBJECT TUPLE (Name : CHAR);"));
  auto critic =
      db.session.NewObject("Critic", {{"Name", Value::String("C")}});
  EDS_ASSERT_OK(critic.status());
}

TEST(SessionTest, InsertTargetCacheKeepsErrors) {
  testutil::FilmDb db;
  // The same failure on a cold lookup and on a cached one.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    Status unknown = db.session.InsertRow("NOPE", {Value::Int(1)});
    EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
    EXPECT_EQ(unknown.message(), "no stored table 'NOPE'");
    Status arity = db.session.InsertRow("BEATS", {Value::Int(1)});
    EXPECT_EQ(arity.code(), StatusCode::kTypeError);
    EXPECT_EQ(arity.message(), "row has 1 values, schema has 2 columns");
    Status type = db.session.InsertRow(
        "BEATS", {Value::String("x"), Value::Int(1)});
    EXPECT_EQ(type.code(), StatusCode::kTypeError);
    EXPECT_EQ(type.message(),
              "column 'Winner': value 'x' does not conform to type NUMERIC");
    Status object = db.session.InsertRow("APPEARS_IN",
                                         {Value::Int(1), Value::Int(42)});
    EXPECT_EQ(object.code(), StatusCode::kTypeError);
    EXPECT_EQ(object.message(),
              "column 'Refactor': value 42 does not conform to type Actor");
    EXPECT_EQ(db.session.NewObject("Text", {}).status().message(),
              "'Text' is not an object type");
    EXPECT_EQ(db.session.NewObject("Actor", {{"Wrong", Value::Int(1)}})
                  .status()
                  .message(),
              "object type Actor has no attribute 'Wrong'");
  }
}

TEST(SessionTest, ConstraintInvalidatesOptimizer) {
  testutil::FilmDb db;
  auto opt1 = db.session.optimizer();
  ASSERT_TRUE(opt1.ok());
  rules::Optimizer* before = *opt1;
  EDS_ASSERT_OK(db.session.AddConstraint("c1", R"(
    dummy_ic : MEMBER(x, c) / ISA(c, SetCategory)
      --> MEMBER(x, c) AND MEMBER(x, SET('Comedy', 'Adventure',
                                         'Science Fiction', 'Western')) / ;
  )"));
  auto opt2 = db.session.optimizer();
  ASSERT_TRUE(opt2.ok());
  EXPECT_NE(before, *opt2);  // regenerated
}

TEST(SessionTest, DuplicateDdlRejected) {
  Session s;
  EDS_ASSERT_OK(s.ExecuteScript("CREATE TABLE T (A : INT);"));
  EXPECT_EQ(s.ExecuteScript("CREATE TABLE T (A : INT);").code(),
            StatusCode::kAlreadyExists);
  EDS_ASSERT_OK(s.ExecuteScript("CREATE VIEW V (A) AS SELECT A FROM T;"));
  EXPECT_EQ(s.ExecuteScript("CREATE TABLE V (A : INT);").code(),
            StatusCode::kAlreadyExists);
}

TEST(SessionTest, QueryOverUndefinedTableFails) {
  Session s;
  EXPECT_FALSE(s.Query("SELECT X FROM GHOST").ok());
}

// Fig. 4 end to end: the nested view, its query, and result correctness
// with and without rewriting.
TEST(SessionTest, Fig4NestedViewEndToEnd) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.ExecuteScript(R"(
    CREATE VIEW FilmActors (Title, Categories, Actors) AS
      SELECT Title, Categories, MakeSet(Refactor)
      FROM FILM, APPEARS_IN
      WHERE FILM.Numf = APPEARS_IN.Numf
      GROUP BY Title, Categories;
  )"));
  const char* query =
      "SELECT Title FROM FilmActors WHERE MEMBER('Adventure', Categories) "
      "AND ALL(Salary(Actors) > 10000)";
  auto optimized = db.session.Query(query);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  QueryOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto raw = db.session.Query(query, no_rewrite);
  ASSERT_TRUE(raw.ok()) << raw.status();
  // Zorba {Adventure} has Quinn(12000) + Eva(15000): qualifies.
  // Space Saga {SF, Adventure} has Eva only: qualifies.
  ASSERT_EQ(raw->rows.size(), 2u);
  testutil::ExpectSameRows(optimized->rows, raw->rows);
  testutil::ExpectSameRows(
      raw->rows,
      {{Value::String("Zorba")}, {Value::String("Space Saga")}});
  // The optimizer pushed the MEMBER conjunct below the NEST.
  EXPECT_GE(optimized->rewrite_stats.applications_by_rule.count(
                "push_search_nest"),
            0u);
}

}  // namespace
}  // namespace eds::exec
