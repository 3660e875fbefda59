// Insert-time type checking (§6.1: inserted data must satisfy the declared
// axioms — including enumeration domains and object subtyping).
#include "exec/typecheck.h"

#include "gtest/gtest.h"
#include "testutil.h"

namespace eds::exec {
namespace {

using types::Type;
using types::TypeKind;
using types::TypeRef;
using value::Value;

class TypecheckTest : public ::testing::Test {
 protected:
  Status Check(const Value& v, const TypeRef& t) {
    return CheckValueAgainstType(v, t, &db_.session.db().heap());
  }
  TypeRef Find(const char* name) {
    auto t = db_.session.catalog().types().Find(name);
    EXPECT_TRUE(t.ok()) << name;
    return t.ok() ? *t : nullptr;
  }
  testutil::FilmDb db_;
};

TEST_F(TypecheckTest, Scalars) {
  EDS_ASSERT_OK(Check(Value::Int(1), Find("INT")));
  EDS_ASSERT_OK(Check(Value::Int(1), Find("NUMERIC")));
  EDS_ASSERT_OK(Check(Value::Real(1.5), Find("REAL")));
  EDS_ASSERT_OK(Check(Value::Int(1), Find("REAL")));  // widening
  EDS_ASSERT_OK(Check(Value::String("x"), Find("CHAR")));
  EXPECT_FALSE(Check(Value::Real(1.5), Find("INT")).ok());
  EXPECT_FALSE(Check(Value::String("x"), Find("NUMERIC")).ok());
  EXPECT_FALSE(Check(Value::Int(0), Find("BOOLEAN")).ok());
}

TEST_F(TypecheckTest, NullAcceptedEverywhere) {
  EDS_ASSERT_OK(Check(Value::Null(), Find("INT")));
  EDS_ASSERT_OK(Check(Value::Null(), Find("Actor")));
  EDS_ASSERT_OK(Check(Value::Null(), Find("SetCategory")));
}

TEST_F(TypecheckTest, EnumerationDomain) {
  TypeRef category = Find("Category");
  EDS_ASSERT_OK(Check(Value::String("Comedy"), category));
  Status bad = Check(Value::String("Cartoon"), category);
  EXPECT_EQ(bad.code(), StatusCode::kTypeError);
  EXPECT_NE(bad.message().find("enumeration domain"), std::string::npos);
}

TEST_F(TypecheckTest, CollectionsCheckKindAndElements) {
  TypeRef set_category = Find("SetCategory");
  EDS_ASSERT_OK(Check(Value::Set({Value::String("Western")}), set_category));
  // Wrong collection kind.
  EXPECT_FALSE(Check(Value::List({Value::String("Western")}), set_category)
                   .ok());
  // Element outside the enum domain.
  EXPECT_FALSE(Check(Value::Set({Value::String("Cartoon")}), set_category)
                   .ok());
  // COLLECTION root accepts any kind.
  TypeRef collection =
      Type::MakeCollection(TypeKind::kCollection, nullptr);
  EDS_ASSERT_OK(Check(Value::Bag({Value::Int(1)}), collection));
  EXPECT_FALSE(Check(Value::Int(1), collection).ok());
}

TEST_F(TypecheckTest, TuplesByNameAndPosition) {
  TypeRef point = Find("Point");
  EDS_ASSERT_OK(Check(
      Value::NamedTuple({"ABS", "ORD"}, {Value::Real(1), Value::Real(2)}),
      point));
  EDS_ASSERT_OK(
      Check(Value::Tuple({Value::Real(1), Value::Real(2)}), point));
  EXPECT_FALSE(Check(Value::Tuple({Value::Real(1)}), point).ok());  // arity
  EXPECT_FALSE(
      Check(Value::NamedTuple({"ABS", "NOPE"},
                              {Value::Real(1), Value::Real(2)}),
            point)
          .ok());
  EXPECT_FALSE(
      Check(Value::Tuple({Value::String("x"), Value::Real(2)}), point).ok());
}

TEST_F(TypecheckTest, ObjectSubtypingThroughHeap) {
  // db_.quinn is an Actor; Actor SUBTYPE OF Person.
  EDS_ASSERT_OK(Check(db_.quinn, Find("Actor")));
  EDS_ASSERT_OK(Check(db_.quinn, Find("Person")));
  // A bare Person is not an Actor.
  auto person = db_.session.NewObject(
      "Person", {{"Name", Value::String("Somebody")}});
  ASSERT_TRUE(person.ok());
  EXPECT_FALSE(Check(*person, Find("Actor")).ok());
  // Dangling reference.
  EXPECT_FALSE(Check(Value::ObjectRef(9999), Find("Actor")).ok());
  // Non-reference value against an object type.
  EXPECT_FALSE(Check(Value::Int(1), Find("Actor")).ok());
}

// Session::NewObject stores each object with its resolved type, and the
// check reads that type; an object put on the heap directly carries the
// type it was given. Both give the same verdicts and the same text.
TEST_F(TypecheckTest, CarriedObjectTypeGivesTheSameVerdicts) {
  ObjectHeap& heap = db_.session.db().heap();
  auto carried_person = db_.session.NewObject(
      "Person", {{"Name", Value::String("Somebody")}});
  ASSERT_TRUE(carried_person.ok());
  const Value named_person = heap.New(
      Find("Person"), Value::NamedTuple({"Name"}, {Value::String("Somebody")}));
  const Value named_actor = heap.New(
      Find("Actor"), Value::NamedTuple({"Name", "Salary"},
                                       {Value::String("N"), Value::Int(1)}));
  auto stored = heap.Get(carried_person->AsObjectRef());
  ASSERT_TRUE(stored.ok());
  ASSERT_NE((*stored)->type, nullptr);
  EXPECT_EQ((*stored)->type, Find("Person"));
  ASSERT_TRUE(heap.Get(named_person.AsObjectRef()).ok());
  EXPECT_EQ((*heap.Get(named_person.AsObjectRef()))->type, Find("Person"));

  // A Person into an Actor column is rejected, with one text either way.
  for (const Value& person : {*carried_person, named_person}) {
    Status bad = Check(person, Find("Actor"));
    EXPECT_EQ(bad.code(), StatusCode::kTypeError);
    EXPECT_EQ(bad.message(), "value " + person.ToString() +
                                 " does not conform to type Actor (object "
                                 "of type Person where Actor expected)");
    EDS_ASSERT_OK(Check(person, Find("Person")));
  }
  // An Actor into a Person column is accepted.
  EDS_ASSERT_OK(Check(db_.quinn, Find("Person")));
  EDS_ASSERT_OK(Check(named_actor, Find("Person")));
  EDS_ASSERT_OK(Check(named_actor, Find("Actor")));
  // A dangling oid and a NULL reference behave as before.
  Status dangling = Check(Value::ObjectRef(9999), Find("Actor"));
  EXPECT_EQ(dangling.code(), StatusCode::kRuntimeError);
  EXPECT_EQ(dangling.message(), "dangling object reference <oid:9999>");
  EDS_ASSERT_OK(Check(Value::Null(), Find("Actor")));

  // The same verdicts through InsertRow, into both kinds of column.
  EDS_ASSERT_OK(db_.session.ExecuteScript("TABLE FANS (Who : Person);"));
  EDS_ASSERT_OK(db_.session.InsertRow("FANS", {db_.quinn}));
  EDS_ASSERT_OK(db_.session.InsertRow("FANS", {*carried_person}));
  EDS_ASSERT_OK(db_.session.InsertRow("FANS", {Value::Null()}));
  Status person_as_actor =
      db_.session.InsertRow("APPEARS_IN", {Value::Int(1), *carried_person});
  EXPECT_EQ(person_as_actor.code(), StatusCode::kTypeError);
  EXPECT_EQ(person_as_actor.message(),
            "column 'Refactor': value " + carried_person->ToString() +
                " does not conform to type Actor (object of type Person "
                "where Actor expected)");
  EXPECT_EQ(db_.session
                .InsertRow("APPEARS_IN", {Value::Int(1), Value::ObjectRef(9999)})
                .code(),
            StatusCode::kTypeError);
  EDS_ASSERT_OK(
      db_.session.InsertRow("APPEARS_IN", {Value::Int(1), Value::Null()}));
}

TEST_F(TypecheckTest, InsertRowEnforcesSchema) {
  // Enum domain violation through the public API.
  Status bad = db_.session.InsertRow(
      "FILM", {Value::Int(9), Value::String("X"),
               Value::Set({Value::String("Cartoon")})});
  EXPECT_EQ(bad.code(), StatusCode::kTypeError);
  EXPECT_NE(bad.message().find("Categories"), std::string::npos);
  // Object column takes only Actors (or subtypes).
  Status bad2 = db_.session.InsertRow(
      "APPEARS_IN", {Value::Int(1), Value::Int(42)});
  EXPECT_EQ(bad2.code(), StatusCode::kTypeError);
}

TEST_F(TypecheckTest, EsqlInsertEnforcesSchema) {
  Status bad = db_.session.ExecuteScript(
      "INSERT INTO FILM VALUES (9, 'X', MakeSet('Cartoon'));");
  EXPECT_EQ(bad.code(), StatusCode::kTypeError);
  EDS_ASSERT_OK(db_.session.ExecuteScript(
      "INSERT INTO FILM VALUES (9, 'X', MakeSet('Western'));"));
}

TEST_F(TypecheckTest, RowArityMismatch) {
  Status bad = db_.session.InsertRow("BEATS", {Value::Int(1)});
  EXPECT_EQ(bad.code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace eds::exec
