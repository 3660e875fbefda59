#include "value/value.h"

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/protocol.h"
#include "srv/codec.h"
#include "term/parser.h"
#include "term/term.h"
#include "value/collection_lib.h"

namespace eds::value {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, Scalars) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::String("Quinn").AsString(), "Quinn");
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::ObjectRef(7).AsObjectRef(), 7u);
}

TEST(ValueTest, IntWidensToReal) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsReal(), 3.0);
}

TEST(ValueTest, SetsCanonicalizeSortedUnique) {
  Value s = Value::Set({Value::Int(3), Value::Int(1), Value::Int(3),
                        Value::Int(2)});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.elements()[0], Value::Int(1));
  EXPECT_EQ(s.elements()[2], Value::Int(3));
}

TEST(ValueTest, BagsKeepDuplicatesSorted) {
  Value b = Value::Bag({Value::Int(3), Value::Int(1), Value::Int(3)});
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.elements()[1], Value::Int(3));
}

TEST(ValueTest, ListsPreserveOrder) {
  Value l = Value::List({Value::Int(3), Value::Int(1)});
  EXPECT_EQ(l.elements()[0], Value::Int(3));
}

TEST(ValueTest, SetEqualityIgnoresConstructionOrder) {
  Value a = Value::Set({Value::String("x"), Value::String("y")});
  Value b = Value::Set({Value::String("y"), Value::String("x")});
  EXPECT_EQ(a, b);
}

TEST(ValueTest, NumericComparisonAcrossKinds) {
  EXPECT_EQ(Value::Int(2), Value::Real(2.0));
  EXPECT_LT(Value::Int(2), Value::Real(2.5));
  EXPECT_LT(Value::Real(1.5), Value::Int(2));
}

TEST(ValueTest, KindRankOrdering) {
  // null < bool < numeric < string < tuple < set.
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(999), Value::String(""));
  EXPECT_LT(Value::String("zzz"), Value::Tuple({}));
  EXPECT_LT(Value::Tuple({}), Value::Set({}));
}

TEST(ValueTest, TupleFieldsByPositionAndName) {
  Value t = Value::NamedTuple({"Name", "Salary"},
                              {Value::String("Quinn"), Value::Int(12000)});
  EXPECT_EQ(t.TupleSize(), 2u);
  EXPECT_EQ(t.Field(0), Value::String("Quinn"));
  const Value* by_name = t.FindField("salary");  // case-insensitive
  ASSERT_NE(by_name, nullptr);
  EXPECT_EQ(*by_name, Value::Int(12000));
  EXPECT_EQ(t.FindField("Missing"), nullptr);
}

TEST(ValueTest, PositionalTupleHasNoNamedFields) {
  Value t = Value::Tuple({Value::Int(1)});
  EXPECT_EQ(t.FindField("x"), nullptr);
}

TEST(ValueTest, DeepCompareNestedCollections) {
  Value a = Value::List({Value::Set({Value::Int(1), Value::Int(2)})});
  Value b = Value::List({Value::Set({Value::Int(2), Value::Int(1)})});
  Value c = Value::List({Value::Set({Value::Int(1), Value::Int(3)})});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(ValueTest, Printing) {
  EXPECT_EQ(Value::String("it's").ToString(), "'it's'");
  EXPECT_EQ(Value::Set({Value::Int(2), Value::Int(1)}).ToString(), "{1, 2}");
  EXPECT_EQ(Value::Bag({Value::Int(1), Value::Int(1)}).ToString(),
            "{|1, 1|}");
  EXPECT_EQ(Value::List({Value::Int(1)}).ToString(), "[1]");
  EXPECT_EQ(Value::ObjectRef(3).ToString(), "<oid:3>");
  EXPECT_EQ(Value::NamedTuple({"A"}, {Value::Int(1)}).ToString(), "(A: 1)");
  EXPECT_EQ(Value::Tuple({Value::Int(1), Value::Int(2)}).ToString(),
            "(1, 2)");
}

// The address of v's shared payload, or nullptr for a scalar kind and for
// a string whose bytes live inside the Value itself.
const void* PayloadAddress(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kString: {
      const char* bytes = v.AsString().data();
      const char* self = reinterpret_cast<const char*>(&v);
      return bytes >= self && bytes < self + sizeof(Value) ? nullptr : bytes;
    }
    case ValueKind::kTuple: return &v.tuple();
    default: return v.is_collection() ? &v.elements() : nullptr;
  }
}

TEST(ValueTest, CopyIsShallowShared) {
  const Value payloads[] = {
      Value::Set({Value::Int(1), Value::Int(2)}),
      Value::String("Quinn, tenured since 1987"),
      Value::Tuple({Value::Int(1), Value::String("a")}),
  };
  for (const Value& v : payloads) {
    Value copy = v;
    ASSERT_NE(PayloadAddress(v), nullptr) << v;
    EXPECT_EQ(PayloadAddress(v), PayloadAddress(copy)) << v;
  }
  // A string within the inline limit has no payload to share.
  EXPECT_EQ(PayloadAddress(Value::String("Quinn")), nullptr);
}

// One Value assigned across payload kinds, Set <- String <- NamedTuple <-
// Int <- Set, by copy and by move: each step must leave every accessor
// reading the new payload (a stale scalar or payload pointer from the
// previous kind would show here), and copies count exactly once, moves
// never.
TEST(ValueTest, AssignAcrossPayloadKinds) {
  const Value steps[] = {
      Value::String("Quinn"),
      Value::NamedTuple({"Name", "Salary"},
                        {Value::String("Quinn"), Value::Int(12000)}),
      Value::Int(42),
      Value::Set({Value::Int(3), Value::Int(1)}),
  };
  auto expect_reads = [](const Value& v, const Value& want) {
    ASSERT_EQ(v.kind(), want.kind());
    EXPECT_EQ(v, want);
    EXPECT_EQ(v.ToString(), want.ToString());
    switch (want.kind()) {
      case ValueKind::kString:
        EXPECT_EQ(v.AsString(), "Quinn");
        EXPECT_EQ(v.FindField("Name"), nullptr);
        break;
      case ValueKind::kTuple:
        ASSERT_EQ(v.TupleSize(), 2u);
        EXPECT_EQ(v.Field(0).AsString(), "Quinn");
        ASSERT_NE(v.FindField("salary"), nullptr);
        EXPECT_EQ(v.FindField("salary")->AsInt(), 12000);
        break;
      case ValueKind::kInt:
        EXPECT_EQ(v.AsInt(), 42);
        EXPECT_DOUBLE_EQ(v.AsReal(), 42.0);
        EXPECT_FALSE(v.is_collection());
        break;
      case ValueKind::kSet:
        ASSERT_EQ(v.size(), 2u);
        EXPECT_EQ(v.elements()[0].AsInt(), 1);
        EXPECT_EQ(v.elements()[1].AsInt(), 3);
        break;
      default:
        FAIL() << "unexpected kind " << ValueKindName(want.kind());
    }
  };

  Value copied = Value::Set({Value::Int(7)});
  Value moved = Value::Set({Value::Int(7)});
  for (const Value& want : steps) {
    uint64_t before = ValueCopyCount();
    copied = want;
    EXPECT_EQ(ValueCopyCount() - before, 1u) << want;
    EXPECT_EQ(PayloadAddress(copied), PayloadAddress(want)) << want;
    expect_reads(copied, want);

    Value donor = want;
    const void* payload = PayloadAddress(donor);
    before = ValueCopyCount();
    moved = std::move(donor);
    EXPECT_EQ(ValueCopyCount() - before, 0u) << want;
    EXPECT_EQ(PayloadAddress(moved), payload) << want;
    expect_reads(moved, want);
  }
}

// Strings on both sides of the inline limit, each paired with the bytes
// it was built from.
std::vector<std::string> BoundaryStrings() {
  return {
      "",
      std::string(Value::kInlineStringMax - 1, 'a'),
      std::string(Value::kInlineStringMax, 'a'),
      std::string(Value::kInlineStringMax + 1, 'a'),
      std::string("a\0b", 3),
      std::string("fifteen\0bytes!", Value::kInlineStringMax),
      std::string("sixteen\0bytes!!", Value::kInlineStringMax + 1),
      "caf\xc3\xa9",                                   // 5 bytes, 4 chars
      "\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9" "a",  // 15 bytes
      "\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9",  // 16 bytes
      "it's",
  };
}

TEST(ValueTest, StringsKeepTheirBytesAcrossTheInlineLimit) {
  for (const std::string& s : BoundaryStrings()) {
    const Value v = Value::String(s);
    ASSERT_EQ(v.kind(), ValueKind::kString);
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(v.AsString().size(), s.size());
    EXPECT_EQ(PayloadAddress(v) == nullptr,
              s.size() <= Value::kInlineStringMax)
        << s.size();
    // Copies and moves keep the bytes.
    Value copy = v;
    EXPECT_EQ(copy.AsString(), s);
    Value moved = std::move(copy);
    EXPECT_EQ(moved.AsString(), s);
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(ValueTest, StringOrderMatchesTheBytesAcrossTheInlineLimit) {
  const std::vector<std::string> strings = BoundaryStrings();
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      const int want = a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
      EXPECT_EQ(Compare(Value::String(a), Value::String(b)), want)
          << a.size() << " vs " << b.size();
      EXPECT_EQ(Value::String(a) == Value::String(b), a == b);
    }
  }
}

TEST(ValueTest, StringRenderingAndHashingAcrossTheInlineLimit) {
  for (const std::string& s : BoundaryStrings()) {
    const Value v = Value::String(s);
    EXPECT_EQ(v.ToString(), "'" + s + "'");
    EXPECT_EQ(net::RenderRow({v, Value::Int(1)}),
              (std::vector<std::string>{"'" + s + "'", "1"}));

    // Built by concatenation, the same bytes hash and intern alike.
    const size_t half = s.size() / 2;
    Result<Value> joined = FunctionLibrary::Default().Call(
        "CONCAT", {Value::String(s.substr(0, half)),
                   Value::String(s.substr(half))});
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(*joined, v);
    term::TermRef direct = term::Term::Constant(v);
    term::TermRef concatenated = term::Term::Constant(*joined);
    EXPECT_EQ(term::Hash(direct), term::Hash(concatenated));
    EXPECT_EQ(direct, concatenated) << s.size();

    // The persisted plan text and the file codec carry the bytes intact.
    if (s.find('\0') == std::string::npos) {
      Result<term::TermRef> parsed = term::ParseTerm(direct->ToString());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(*parsed, direct) << direct->ToString();
    }
    std::string file;
    srv::Encoder(&file).PutString(v.AsString());
    srv::Decoder decoder(file, 1 << 10);
    Result<std::string> decoded = decoder.GetString();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(Value::String(*decoded), v);
  }
}

// Copies of one payload made and dropped on several threads at once keep
// one count: the payload outlives every copy, and whichever thread drops
// the last copy frees it after every other thread's reads (run under the
// tsan preset).
TEST(ValueTest, ConcurrentCopiesShareOneCount) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  const std::string long_text(Value::kInlineStringMax + 9, 'q');
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Value> shared = {
        Value::String(long_text),
        Value::Set({Value::Int(trial), Value::String(long_text)}),
        Value::NamedTuple({"Name"}, {Value::String(long_text)}),
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([own = shared, &long_text] {
        for (int r = 0; r < kRounds; ++r) {
          std::vector<Value> copies = own;
          Value moved = std::move(copies[r % copies.size()]);
          if (moved.kind() == ValueKind::kString &&
              moved.AsString() != long_text) {
            ADD_FAILURE() << "torn string";
          }
        }
      });
    }
    shared.clear();  // the threads' copies are now the only ones
    for (std::thread& th : threads) th.join();
  }
}

}  // namespace
}  // namespace eds::value
