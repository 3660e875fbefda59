// Tracing + metrics invariants: span nesting well-formedness, per-rule
// aggregates vs engine statistics, Chrome trace-event JSON validity (via a
// minimal JSON parser below), metrics-registry unification, and the
// guarantee that observability never changes rewrite outcomes.
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "lera/schema.h"
#include "lint/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "term/parser.h"
#include "testutil.h"

namespace eds {
namespace {

using exec::QueryOptions;
using obs::TraceEvent;
using obs::TraceSink;

// ---- a minimal JSON parser -------------------------------------------
// Just enough to validate the writers' output without external deps:
// objects, arrays, strings (with escapes), numbers, true/false/null.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') return ParseLiteral(out);
    if (c == 'n') return ParseLiteral(out);
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Eat(':')) return false;
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->object.emplace(std::move(key), std::move(v));
      if (Eat(',')) continue;
      return Eat('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->array.push_back(std::move(v));
      if (Eat(',')) continue;
      return Eat(']');
    }
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_ + static_cast<size_t>(i)];
              bool hex = (h >= '0' && h <= '9') || (h >= 'a' && h <= 'f') ||
                         (h >= 'A' && h <= 'F');
              if (!hex) return false;
            }
            pos_ += 4;
            out->push_back('?');  // code point fidelity is not under test
            break;
          }
          default: return false;
        }
        continue;
      }
      // Raw control characters are invalid inside JSON strings — this is
      // exactly what JsonEscape must prevent.
      if (static_cast<unsigned char>(c) < 0x20) return false;
      out->push_back(c);
    }
    return false;
  }

  bool ParseLiteral(JsonValue* out) {
    auto match = [&](const char* lit) {
      size_t n = std::string(lit).size();
      if (text_.compare(pos_, n, lit) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      return true;
    }
    if (match("null")) return true;
    return false;
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---- fixtures ---------------------------------------------------------

// Fig. 2 schema/data plus the Fig. 4 nested view and the Fig. 5
// transitive-closure view: one query exercising rewrite depth, one
// exercising fixpoint execution.
class ObsTest : public ::testing::Test {
 protected:
  ObsTest() {
    EDS_EXPECT_OK(db_.session.ExecuteScript(R"(
      CREATE VIEW FilmActors (Title, Categories, Actors) AS
        SELECT Title, Categories, MakeSet(Refactor)
        FROM FILM, APPEARS_IN
        WHERE FILM.Numf = APPEARS_IN.Numf
        GROUP BY Title, Categories;
      CREATE VIEW BETTER_THAN (W, L) AS (
        SELECT Winner, Loser FROM BEATS
        UNION
        SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
        WHERE B1.L = B2.W );
    )"));
  }

  exec::Session& session() { return db_.session; }

  static const char* NestedQuery() {
    return "SELECT Title FROM FilmActors WHERE "
           "MEMBER('Adventure', Categories) AND ALL(Salary(Actors) > 10000)";
  }
  static const char* FixpointQuery() {
    return "SELECT L FROM BETTER_THAN WHERE W = 1";
  }

  testutil::FilmDb db_;
};

size_t CountCategory(const TraceSink& sink, const std::string& cat) {
  size_t n = 0;
  for (const TraceEvent& e : sink.events()) {
    if (cat == e.category) ++n;
  }
  return n;
}

// ---- span mechanics ---------------------------------------------------

TEST(TraceSinkTest, SpansRecordDepthAndContainment) {
  TraceSink sink;
  {
    obs::Span outer(&sink, "outer", "test");
    {
      obs::Span inner(&sink, "inner", "test");
      inner.Arg("k", std::string("v"));
    }
  }
  ASSERT_EQ(sink.size(), 2u);
  // Completion order: children precede parents.
  const TraceEvent& inner = sink.events()[0];
  const TraceEvent& outer = sink.events()[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  ASSERT_EQ(inner.args.size(), 1u);
  EXPECT_EQ(inner.args[0].first, "k");
  EXPECT_EQ(sink.depth(), 0);
}

TEST(TraceSinkTest, NullSinkIsANoop) {
  obs::Span span(nullptr, "never", "test");
  span.Arg("k", static_cast<int64_t>(1));
  span.Finish();  // second Finish via destructor must also be harmless
}

TEST(TraceSinkTest, RecordCompleteUsesAbsoluteTimes) {
  TraceSink sink;
  uint64_t t0 = obs::NowNs();
  uint64_t t1 = t0 + 500;
  sink.RecordComplete("leaf", "rule", t0, t1, {{"a", "b"}});
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].dur_ns, 500u);
  EXPECT_EQ(sink.events()[0].name, "leaf");
}

// ---- rewrite-engine invariants ----------------------------------------

TEST_F(ObsTest, RuleSpanCountMatchesTraceAndStats) {
  auto plan = session().Translate(NestedQuery());
  ASSERT_TRUE(plan.ok()) << plan.status();
  TraceSink sink;
  rewrite::RewriteOptions options;
  options.collect_trace = true;
  options.trace_sink = &sink;
  options.profile_rules = true;
  auto out = session().Rewrite(*plan, options);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_GT(out->stats.applications, 0u);

  // One TraceEntry, one "rule" span, and one profiled application per fire.
  EXPECT_EQ(out->trace.size(), out->stats.applications);
  EXPECT_EQ(CountCategory(sink, "rule"), out->stats.applications);
  size_t profiled = 0;
  for (const auto& [name, prof] : out->stats.rule_profiles) {
    EXPECT_GE(prof.match_attempts, prof.applications) << name;
    profiled += static_cast<size_t>(prof.applications);
  }
  EXPECT_EQ(profiled, out->stats.applications);
  // The engine emits pass and block spans around the rule spans.
  EXPECT_GT(CountCategory(sink, "rewrite"), 0u);
}

TEST_F(ObsTest, SpanNestingIsWellFormed) {
  TraceSink sink;
  session().set_trace_sink(&sink);
  QueryOptions options;
  options.rewrite_options.profile_rules = true;
  auto r1 = session().Query(NestedQuery(), options);
  auto r2 = session().Query(FixpointQuery(), options);
  session().set_trace_sink(nullptr);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  ASSERT_GT(sink.size(), 0u);

  // No two spans may partially overlap: for any pair, either disjoint or
  // one contains the other (single-threaded scoped instrumentation).
  const auto& events = sink.events();
  for (size_t i = 0; i < events.size(); ++i) {
    uint64_t a0 = events[i].start_ns, a1 = a0 + events[i].dur_ns;
    EXPECT_GE(events[i].depth, 0);
    for (size_t j = i + 1; j < events.size(); ++j) {
      uint64_t b0 = events[j].start_ns, b1 = b0 + events[j].dur_ns;
      bool disjoint = a1 <= b0 || b1 <= a0;
      bool a_in_b = b0 <= a0 && a1 <= b1;
      bool b_in_a = a0 <= b0 && b1 <= a1;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << events[i].name << " [" << a0 << "," << a1 << ") vs "
          << events[j].name << " [" << b0 << "," << b1 << ")";
    }
  }
  // Every phase produced a span; two queries ran.
  for (const char* phase : {"phase.parse", "phase.translate", "phase.rewrite",
                            "phase.schema", "phase.execute"}) {
    size_t n = 0;
    for (const TraceEvent& e : events) {
      if (e.name == phase) ++n;
    }
    EXPECT_EQ(n, 2u) << phase;
  }
  // The fixpoint query iterated: round spans exist.
  size_t rounds = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "exec.fix.round") ++rounds;
  }
  EXPECT_GT(rounds, 1u);
}

TEST_F(ObsTest, PerRuleTimeSumsWithinRewritePhaseSpan) {
  TraceSink sink;
  session().set_trace_sink(&sink);
  QueryOptions options;
  options.rewrite_options.profile_rules = true;
  auto result = session().Query(NestedQuery(), options);
  session().set_trace_sink(nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->rewrite_stats.rule_profiles.empty());

  const TraceEvent* rewrite_phase = nullptr;
  for (const TraceEvent& e : sink.events()) {
    if (e.name == "phase.rewrite") rewrite_phase = &e;
  }
  ASSERT_NE(rewrite_phase, nullptr);
  // Per-rule self times are disjoint sub-intervals of the rewrite phase, so
  // their sum cannot exceed the phase span.
  int64_t sum_ns = 0;
  for (const auto& [name, prof] : result->rewrite_stats.rule_profiles) {
    EXPECT_GE(prof.ns, 0) << name;
    sum_ns += prof.ns;
  }
  EXPECT_GT(sum_ns, 0);
  EXPECT_LE(static_cast<uint64_t>(sum_ns), rewrite_phase->dur_ns);
  // And the always-on phase clock agrees with the span.
  EXPECT_GT(result->phase_times.rewrite_ns, 0u);
  EXPECT_GT(result->phase_times.total_ns, 0u);
}

TEST_F(ObsTest, ObservabilityDoesNotChangeOutcomes) {
  auto plan = session().Translate(NestedQuery());
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto plain = session().Rewrite(*plan);
  ASSERT_TRUE(plain.ok()) << plain.status();

  TraceSink sink;
  rewrite::RewriteOptions options;
  options.trace_sink = &sink;
  options.profile_rules = true;
  auto traced = session().Rewrite(*plan, options);
  ASSERT_TRUE(traced.ok()) << traced.status();

  // Hash-consing makes identity literal: the same optimized plan is the
  // same node.
  EXPECT_EQ(plain->term.get(), traced->term.get());
  EXPECT_EQ(plain->stats.applications, traced->stats.applications);
  EXPECT_EQ(plain->stats.condition_checks, traced->stats.condition_checks);

  // Execution results are identical with a sink attached.
  auto rows_plain = session().Query(FixpointQuery());
  TraceSink exec_sink;
  session().set_trace_sink(&exec_sink);
  auto rows_traced = session().Query(FixpointQuery());
  session().set_trace_sink(nullptr);
  ASSERT_TRUE(rows_plain.ok()) << rows_plain.status();
  ASSERT_TRUE(rows_traced.ok()) << rows_traced.status();
  EXPECT_EQ(rows_plain->rows, rows_traced->rows);
}

// ---- JSON output ------------------------------------------------------

TEST_F(ObsTest, ChromeTraceJsonIsValidAndComplete) {
  TraceSink sink;
  session().set_trace_sink(&sink);
  QueryOptions options;
  options.rewrite_options.profile_rules = true;
  ASSERT_TRUE(session().Query(NestedQuery(), options).ok());
  session().set_trace_sink(nullptr);

  std::string json = sink.ToChromeTraceJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json.substr(0, 400);
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->array.size(), sink.size());
  for (const JsonValue& e : events->array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->kind, JsonValue::Kind::kString);
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "X");  // complete events
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const JsonValue* v = e.Find(field);
      ASSERT_NE(v, nullptr) << field;
      EXPECT_EQ(v->kind, JsonValue::Kind::kNumber) << field;
      EXPECT_GE(v->number, 0.0) << field;
    }
  }
}

TEST(TraceSinkTest, JsonEscapesHostileSpanNames) {
  TraceSink sink;
  {
    obs::Span span(&sink, std::string("quote\" slash\\ ctrl\n end"), "test");
    span.Arg("k", std::string("\t\"v\"\\"));
  }
  std::string json = sink.ToChromeTraceJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].Find("name")->str, "quote\" slash\\ ctrl\n end");
}

// ---- metrics registry -------------------------------------------------

TEST_F(ObsTest, MetricsRegistryUnifiesAllProducers) {
  QueryOptions options;
  options.rewrite_options.profile_rules = true;
  auto result = session().Query(NestedQuery(), options);
  ASSERT_TRUE(result.ok()) << result.status();

  obs::MetricsRegistry registry;
  obs::ExportEngineStats(result->rewrite_stats, &registry);
  obs::ExportExecStats(result->exec_stats, &registry);
  obs::ExportInternerStats(term::Interner::Global().GetStats(), &registry);

  for (const char* name :
       {"rewrite.applications", "rewrite.match_attempts",
        "rewrite.quick_rejects", "rewrite.expr_type_hits",
        "rewrite.expr_type_misses", "exec.rows_scanned", "exec.rows_output",
        "interner.hits", "interner.entries"}) {
    EXPECT_TRUE(registry.Has(name)) << name;
  }
  EXPECT_EQ(registry.Get("rewrite.applications"),
            static_cast<double>(result->rewrite_stats.applications));
  EXPECT_EQ(registry.Get("exec.rows_scanned"),
            static_cast<double>(result->exec_stats.rows_scanned));
  // Per-rule aggregates were exported (profile_rules was on).
  bool has_rule_metric = false;
  for (const auto& [name, value] : registry.values()) {
    if (name.rfind("rewrite.rule.", 0) == 0) has_rule_metric = true;
  }
  EXPECT_TRUE(has_rule_metric);

  // The JSON export is valid JSON mirroring the registry.
  JsonValue root;
  ASSERT_TRUE(JsonParser(registry.ToJson()).Parse(&root));
  const JsonValue* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->object.size(), registry.values().size());

  // The profile table ranks by self time and is renderable.
  auto ranked = obs::RankRuleProfiles(result->rewrite_stats);
  ASSERT_FALSE(ranked.empty());
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].second.ns, ranked[i].second.ns);
  }
  EXPECT_NE(obs::FormatRuleProfiles(result->rewrite_stats, 5).find("rule"),
            std::string::npos);
}

// ---- InferExprType memo ----------------------------------------------

TEST_F(ObsTest, ExprTypeMemoCachesByNodeAndScope) {
  std::vector<lera::Schema> inputs = {
      {types::Field{"N", session().catalog().types().int_type()}}};
  auto expr = term::ParseTerm("ADD(ATTR(1, 1), 3)");
  ASSERT_TRUE(expr.ok());
  lera::ExprTypeMemo memo;
  auto t1 = lera::InferExprType(*expr, inputs, session().catalog(), nullptr,
                                nullptr, &memo, /*scope_key=*/7);
  ASSERT_TRUE(t1.ok()) << t1.status();
  size_t misses_after_first = memo.misses();
  EXPECT_GT(misses_after_first, 0u);
  EXPECT_EQ(memo.hits(), 0u);

  auto t2 = lera::InferExprType(*expr, inputs, session().catalog(), nullptr,
                                nullptr, &memo, /*scope_key=*/7);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(memo.hits(), 1u);  // the root apply hit; no re-walk
  EXPECT_EQ(memo.misses(), misses_after_first);
  EXPECT_EQ((*t1).get(), (*t2).get());

  // A different scope key is a different memo dimension.
  auto t3 = lera::InferExprType(*expr, inputs, session().catalog(), nullptr,
                                nullptr, &memo, /*scope_key=*/8);
  ASSERT_TRUE(t3.ok());
  EXPECT_GT(memo.misses(), misses_after_first);
}

// ---- lint UnifyMemo ---------------------------------------------------

TEST(UnifyMemoTest, MemoizedVerdictsMatchUnmemoized) {
  rewrite::BuiltinRegistry reg;
  reg.InstallStandard();
  auto T = [](const char* text) {
    auto t = term::ParseTerm(text);
    EXPECT_TRUE(t.ok()) << text;
    return *t;
  };
  std::vector<term::TermRef> lhs = {
      T("DEDUP(x)"), T("UNION(SET(a, b*))"), T("FILTER(r, EQ(c, c))"),
      T("LIST(x*, a)"), T("SEARCH(i, p, q)")};
  std::vector<term::TermRef> rhs = {
      T("DEDUP(UNION(SET(u, v)))"), T("FILTER(DEDUP(r), EQ(a, b))"),
      T("SEARCH(LIST(r), p, q)"), T("PROJECT(r, LIST(e))"), T("LIST(a, b)")};

  lint::UnifyMemo memo;
  for (const auto& l : lhs) {
    for (const auto& r : rhs) {
      bool plain = lint::ProducesMatchFor(r, l, reg);
      bool memoized = lint::ProducesMatchFor(r, l, reg, &memo);
      EXPECT_EQ(plain, memoized) << r->ToString() << " vs " << l->ToString();
    }
  }
  // Replaying the matrix hits the cache.
  size_t hits_before = memo.hits();
  for (const auto& l : lhs) {
    for (const auto& r : rhs) {
      (void)lint::ProducesMatchFor(r, l, reg, &memo);
    }
  }
  EXPECT_GT(memo.hits(), hits_before);
  EXPECT_GT(memo.size(), 0u);
}

// ---- registry JSON hardening ------------------------------------------

TEST(MetricsRegistryTest, ToJsonEscapesHostileNames) {
  obs::MetricsRegistry registry;
  registry.Counter("plain.name", 7);
  registry.Counter("quote\".back\\slash", 1);
  registry.Counter("ctrl\nchars\there", 2);
  std::string json = registry.ToJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  const JsonValue* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->object.size(), 3u);
  const JsonValue* hostile = metrics->Find("quote\".back\\slash");
  ASSERT_NE(hostile, nullptr);
  EXPECT_EQ(hostile->number, 1.0);
  ASSERT_NE(metrics->Find("ctrl\nchars\there"), nullptr);
}

TEST(MetricsRegistryTest, ToJsonRendersNonFiniteGaugesAsNull) {
  obs::MetricsRegistry registry;
  registry.Gauge("g.nan", std::nan(""));
  registry.Gauge("g.inf", std::numeric_limits<double>::infinity());
  registry.Gauge("g.fine", 1.5);
  std::string json = registry.ToJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  const JsonValue* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("g.nan")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(metrics->Find("g.inf")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(metrics->Find("g.fine")->number, 1.5);
}

// ---- merged-trace edge cases ------------------------------------------

TEST(MergedTraceTest, EmptySinkListYieldsValidEmptyTrace) {
  std::ostringstream os;
  obs::WriteMergedChromeTrace(os, {});
  JsonValue root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(&root)) << os.str();
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->array.empty());
}

TEST(MergedTraceTest, NullAndEmptySinksAreSkipped) {
  TraceSink with_events;
  { obs::Span span(&with_events, "only", "test"); }
  TraceSink empty;
  std::ostringstream os;
  obs::WriteMergedChromeTrace(
      os, {{nullptr, 1}, {&empty, 2}, {&with_events, 3}});
  JsonValue root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(&root)) << os.str();
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].Find("name")->str, "only");
  EXPECT_EQ(events->array[0].Find("tid")->number, 3.0);
}

TEST(TraceSinkTest, ElapsedPointerIsFilledWithOrWithoutASink) {
  uint64_t untraced_ns = 0;
  {
    obs::Span span(nullptr, "timed", "test", &untraced_ns);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(untraced_ns, 1'000'000u);

  TraceSink sink;
  uint64_t traced_ns = 0;
  { obs::Span span(&sink, "timed", "test", &traced_ns); }
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].dur_ns, traced_ns);  // one interval, not two
}

TEST(TraceSinkTest, ChromeTraceFromFirstEventSkipsEarlierSpans) {
  TraceSink sink;
  { obs::Span span(&sink, "earlier", "test"); }
  { obs::Span span(&sink, "later", "test"); }
  JsonValue root;
  ASSERT_TRUE(JsonParser(sink.ToChromeTraceJson(1)).Parse(&root));
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].Find("name")->str, "later");
  EXPECT_EQ(events->array[0].Find("tid")->number, 1.0);
}

// PhaseTimes are read off the phase spans, so each phase time equals the
// dur_ns of its span exactly (not a second pair of clock reads).
TEST_F(ObsTest, PhaseTimesEqualTheirPhaseSpans) {
  TraceSink sink;
  session().set_trace_sink(&sink);
  auto result = session().Query(NestedQuery());
  session().set_trace_sink(nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<std::string, std::vector<uint64_t>> durs;
  for (const TraceEvent& e : sink.events()) durs[e.name].push_back(e.dur_ns);
  const exec::PhaseTimes& t = result->phase_times;
  const std::pair<const char*, uint64_t> phases[] = {
      {"phase.parse", t.parse_ns},
      {"phase.translate", t.translate_ns},
      {"phase.schema", t.schema_ns},
      {"phase.execute", t.exec_ns}};
  for (const auto& [name, ns] : phases) {
    ASSERT_EQ(durs[name].size(), 1u) << name;
    EXPECT_EQ(durs[name][0], ns) << name;
    EXPECT_GT(ns, 0u) << name;
  }
}

}  // namespace
}  // namespace eds
