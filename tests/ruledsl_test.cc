#include "ruledsl/compiler.h"
#include "ruledsl/lexer.h"
#include "ruledsl/parser.h"

#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "rewrite/engine.h"
#include "term/parser.h"

namespace eds::ruledsl {
namespace {

rewrite::BuiltinRegistry& Registry() {
  static rewrite::BuiltinRegistry* reg = [] {
    auto* r = new rewrite::BuiltinRegistry();
    r->InstallStandard();
    return r;
  }();
  return *reg;
}

TEST(LexerTest, StripCommentsRespectsStrings) {
  EXPECT_EQ(StripComments("a # comment\nb"), "a          \nb");
  // '#' inside a string literal is not a comment.
  std::string s = StripComments("x : F('#') / --> y / ;");
  EXPECT_NE(s.find("'#'"), std::string::npos);
}

TEST(ParserTest, MinimalRule) {
  auto unit = ParseRuleSource("collapse : UNION(SET(x)) / --> x / ;");
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_EQ(unit->rules.size(), 1u);
  const rewrite::Rule& r = unit->rules[0];
  EXPECT_EQ(r.name, "collapse");
  EXPECT_TRUE(r.constraints.empty());
  EXPECT_TRUE(r.methods.empty());
  EXPECT_TRUE(term::Equals(r.rhs, term::ParseTerm("x").value()));
}

TEST(ParserTest, ConstraintsAndMethods) {
  auto unit = ParseRuleSource(R"(
    dedup : F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE
            --> F(SET(x*)) / ;
    fold : ?F(x, y) / ISA(x, CONSTANT), ISA(y, CONSTANT)
           --> a / EVALUATE(?F(x, y), a) ;
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_EQ(unit->rules.size(), 2u);
  EXPECT_EQ(unit->rules[0].constraints.size(), 2u);
  ASSERT_EQ(unit->rules[1].methods.size(), 1u);
  EXPECT_EQ(unit->rules[1].methods[0].name, "EVALUATE");
  EXPECT_EQ(unit->rules[1].methods[0].args.size(), 2u);
}

TEST(ParserTest, ConstraintsJoinedWithAnd) {
  // Fig. 11 writes constraints joined by "and"; a single AND-ed constraint
  // term is equivalent to comma-separated ones.
  auto unit = ParseRuleSource(R"(
    r : INCLUDE(x, y) / ISA(x, SET) AND ISA(y, SET) --> INCLUDE(x, y) / ;
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->rules[0].constraints.size(), 1u);
  EXPECT_TRUE(unit->rules[0].constraints[0]->IsApply(term::kAnd, 2));
}

TEST(ParserTest, BlockAndSeq) {
  auto unit = ParseRuleSource(R"(
    a : F(x) / --> G(x) / ;
    b : G(x) / --> H(x) / ;
    block(first, {a}, inf) ;
    block(second, {a, b}, 10) ;
    seq({first, second}, 2) ;
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_EQ(unit->blocks.size(), 2u);
  EXPECT_EQ(unit->blocks[0].name, "first");
  EXPECT_EQ(unit->blocks[0].limit, rewrite::kSaturate);
  EXPECT_EQ(unit->blocks[1].limit, 10);
  EXPECT_EQ(unit->blocks[1].rule_names.size(), 2u);
  ASSERT_TRUE(unit->seq.has_value());
  EXPECT_EQ(unit->seq->limit, 2);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseRuleSource("nocolon F(x) / --> x / ;").ok());
  EXPECT_FALSE(ParseRuleSource("r : F(x) --> x / ;").ok());   // missing '/'
  EXPECT_FALSE(ParseRuleSource("r : F(x) / --> x / ").ok());  // missing ';'
  EXPECT_FALSE(ParseRuleSource("block(b, {a}, -1) ;").ok());
  EXPECT_FALSE(ParseRuleSource("seq({a}, inf) ; seq({a}, 1) ;").ok());
}

TEST(ParserTest, PaperFig6ExampleRule) {
  // "F(SET(x*, G(y, f))) / MEMBER(y, x*), f=TRUE --> F(x*) /" — §4.1's
  // syntactically-correct example (RHS written F(SET(x*)) since our F
  // keeps its SET wrapper explicit).
  auto unit = ParseRuleSource(
      "example : F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE "
      "--> F(SET(x*)) / ;");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_TRUE(
      rewrite::ValidateRule(unit->rules[0], Registry()).ok());
}

// Line and column of `offset` by a plain scan from the start of `text`.
std::pair<int, int> ScanLineColumn(const std::string& text, size_t offset) {
  int line = 1;
  int column = 1;
  for (size_t i = 0; i < offset; ++i) {
    if (text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return {line, column};
}

// Locating uses one table of line starts for the whole unit; on a large
// generated unit it must agree with a plain scan.
TEST(ParserTest, LocatesRulesInALargeUnitLikeAPlainScan) {
  constexpr int kRules = 5000;
  std::string text;
  for (int i = 0; i < kRules; ++i) {
    // Varying indentation and line counts per rule.
    text += std::string(i % 7, ' ') + "r" + std::to_string(i) +
            " : UNION(SET(x)) /" + (i % 3 == 0 ? "\n  " : " ") +
            "--> x / ;\n";
  }
  auto unit = ParseRuleSource(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_EQ(unit->rules.size(), static_cast<size_t>(kRules));
  for (int i : {0, kRules / 2, kRules - 1}) {
    const rewrite::Rule& r = unit->rules[i];
    const std::string name = "r" + std::to_string(i);
    EXPECT_EQ(r.name, name);
    const size_t offset = text.find(name + " :");
    EXPECT_EQ(r.loc.offset, offset) << name;
    auto [line, column] = ScanLineColumn(text, offset);
    EXPECT_EQ(r.loc.line, line) << name;
    EXPECT_EQ(r.loc.column, column) << name;
  }
  // Past the end: the end of the text.
  rewrite::SourceLoc end = LineIndex(text).Locate(text.size() + 10);
  EXPECT_EQ(end.line, ScanLineColumn(text, text.size()).first);
  EXPECT_EQ(end.column, 1);
}

TEST(CompilerTest, ImplicitSingleBlock) {
  auto prog = CompileRuleSource(R"(
    a : F(x) / --> G(x) / ;
    b : G(x) / --> H(x) / ;
  )",
                                Registry());
  ASSERT_TRUE(prog.ok()) << prog.status();
  ASSERT_EQ(prog->blocks.size(), 1u);
  EXPECT_EQ(prog->blocks[0].rules.size(), 2u);
  EXPECT_EQ(prog->blocks[0].limit, rewrite::kSaturate);
  EXPECT_EQ(prog->seq_limit, 1);
}

TEST(CompilerTest, BlocksResolveRuleNames) {
  auto prog = CompileRuleSource(R"(
    a : F(x) / --> G(x) / ;
    block(only_a, {a}, 5) ;
  )",
                                Registry());
  ASSERT_TRUE(prog.ok()) << prog.status();
  ASSERT_EQ(prog->blocks.size(), 1u);
  EXPECT_EQ(prog->blocks[0].limit, 5);
}

TEST(CompilerTest, SameRuleInSeveralBlocks) {
  // §4.2: "the same rule may appear in different blocks and the same block
  // may be executed several times."
  auto prog = CompileRuleSource(R"(
    a : F(x) / --> G(x) / ;
    block(b1, {a}, inf) ;
    block(b2, {a}, inf) ;
    seq({b1, b2, b1}, 3) ;
  )",
                                Registry());
  ASSERT_TRUE(prog.ok()) << prog.status();
  EXPECT_EQ(prog->blocks.size(), 3u);
  EXPECT_EQ(prog->seq_limit, 3);
}

TEST(CompilerTest, UnknownRuleInBlock) {
  auto prog = CompileRuleSource("block(b, {ghost}, 1) ;", Registry());
  EXPECT_EQ(prog.status().code(), StatusCode::kNotFound);
}

TEST(CompilerTest, UnknownMethodRejected) {
  auto prog = CompileRuleSource(
      "r : F(x) / --> y / NO_SUCH_METHOD(x, y) ;", Registry());
  EXPECT_EQ(prog.status().code(), StatusCode::kNotFound);
}

TEST(CompilerTest, UnboundRhsVariableRejected) {
  auto prog =
      CompileRuleSource("r : F(x) / --> G(y) / ;", Registry());
  EXPECT_EQ(prog.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompilerTest, UnboundConstraintVariableRejected) {
  auto prog = CompileRuleSource(
      "r : F(x) / y = TRUE --> F(x) / ;", Registry());
  EXPECT_EQ(prog.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompilerTest, MethodOutputsSatisfyRhs) {
  auto prog = CompileRuleSource(
      "r : F(x) / --> G(out) / EVALUATE(x, out) ;", Registry());
  ASSERT_TRUE(prog.ok()) << prog.status();
}

TEST(CompilerTest, TwoCollVarsInSetPatternRejected) {
  auto prog = CompileRuleSource(
      "r : F(SET(x*, y*)) / --> F(SET(x*, y*)) / ;", Registry());
  EXPECT_EQ(prog.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompilerTest, DuplicateRuleNameRejected) {
  auto prog = CompileRuleSource(R"(
    a : F(x) / --> x / ;
    a : G(x) / --> x / ;
  )",
                                Registry());
  EXPECT_EQ(prog.status().code(), StatusCode::kAlreadyExists);
}

TEST(CompilerTest, RuleToStringShowsAllSections) {
  auto unit = ParseRuleSource(
      "fold : ?F(x, y) / ISA(x, CONSTANT) --> a / EVALUATE(?F(x, y), a) ;");
  ASSERT_TRUE(unit.ok());
  std::string s = unit->rules[0].ToString();
  EXPECT_NE(s.find("fold"), std::string::npos);
  EXPECT_NE(s.find("-->"), std::string::npos);
  EXPECT_NE(s.find("EVALUATE"), std::string::npos);
}

}  // namespace
}  // namespace eds::ruledsl
