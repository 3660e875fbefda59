#include "ruledsl/parser.h"

#include <algorithm>
#include <iterator>

#include "common/strings.h"
#include "rewrite/engine.h"
#include "ruledsl/lexer.h"
#include "term/parser.h"

namespace eds::ruledsl {

using term::TokKind;
using term::Token;

namespace {

class DslParser {
 public:
  explicit DslParser(const std::vector<Token>* tokens) : tokens_(tokens) {}

  Result<CompiledUnit> ParseUnit() {
    CompiledUnit unit;
    while (Peek().kind != TokKind::kEnd) {
      const Token& t = Peek();
      if (t.kind != TokKind::kIdent) {
        return Error("expected a rule name, 'block' or 'seq'");
      }
      if (EqualsIgnoreCase(t.text, "block")) {
        EDS_ASSIGN_OR_RETURN(BlockDecl b, ParseBlock());
        unit.blocks.push_back(std::move(b));
      } else if (EqualsIgnoreCase(t.text, "seq")) {
        if (unit.seq.has_value()) {
          return Error("duplicate seq declaration");
        }
        EDS_ASSIGN_OR_RETURN(SeqDecl s, ParseSeq());
        unit.seq = std::move(s);
      } else {
        EDS_ASSIGN_OR_RETURN(rewrite::Rule r, ParseRule());
        unit.rules.push_back(std::move(r));
      }
    }
    return unit;
  }

 private:
  const Token& Peek() const {
    static const Token kEnd;
    return pos_ < tokens_->size() ? (*tokens_)[pos_] : kEnd;
  }
  void Advance() { ++pos_; }

  Status Error(const std::string& message) const {
    return Status::ParseError("at offset " + std::to_string(Peek().pos) +
                              ": " + message);
  }

  Status Expect(TokKind kind, const char* what) {
    if (Peek().kind != kind) return Error(std::string("expected ") + what);
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().kind != TokKind::kIdent) {
      return Error(std::string("expected ") + what);
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  // name : lhs / constraints --> rhs / methods ;
  Result<rewrite::Rule> ParseRule() {
    rewrite::Rule rule;
    rule.loc.offset = Peek().pos;
    EDS_ASSIGN_OR_RETURN(rule.name, ExpectIdent("rule name"));
    EDS_RETURN_IF_ERROR(ExpectColon());
    EDS_ASSIGN_OR_RETURN(rule.lhs, ParseRuleTerm());
    EDS_RETURN_IF_ERROR(Expect(TokKind::kSlash, "'/'"));
    // Constraints until '-->'.
    if (Peek().kind != TokKind::kArrow) {
      while (true) {
        EDS_ASSIGN_OR_RETURN(term::TermRef c, ParseRuleTerm());
        rule.constraints.push_back(std::move(c));
        if (Peek().kind == TokKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }
    EDS_RETURN_IF_ERROR(Expect(TokKind::kArrow, "'-->'"));
    EDS_ASSIGN_OR_RETURN(rule.rhs, ParseRuleTerm());
    EDS_RETURN_IF_ERROR(Expect(TokKind::kSlash, "'/'"));
    // Methods until ';'.
    if (Peek().kind != TokKind::kSemicolon) {
      while (true) {
        EDS_ASSIGN_OR_RETURN(rewrite::MethodCall m, ParseMethodCall());
        rule.methods.push_back(std::move(m));
        if (Peek().kind == TokKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }
    EDS_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
    return rule;
  }

  Status ExpectColon() {
    if (Peek().kind != TokKind::kColon) {
      return Error("expected ':' after rule name");
    }
    Advance();
    return Status::OK();
  }

  Result<term::TermRef> ParseRuleTerm() {
    term::TermParser tp(tokens_, pos_, /*allow_division=*/false);
    Result<term::TermRef> t = tp.ParseExpression();
    if (!t.ok()) return t.status();
    pos_ = tp.position();
    return t;
  }

  Result<rewrite::MethodCall> ParseMethodCall() {
    rewrite::MethodCall call;
    EDS_ASSIGN_OR_RETURN(call.name, ExpectIdent("method name"));
    EDS_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    if (Peek().kind != TokKind::kRParen) {
      while (true) {
        EDS_ASSIGN_OR_RETURN(term::TermRef a, ParseRuleTerm());
        call.args.push_back(std::move(a));
        if (Peek().kind == TokKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }
    EDS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    return call;
  }

  // block(name, {rule, ...}, limit) ;
  Result<BlockDecl> ParseBlock() {
    BlockDecl decl;
    decl.loc.offset = Peek().pos;
    Advance();  // 'block'
    EDS_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    EDS_ASSIGN_OR_RETURN(decl.name, ExpectIdent("block name"));
    EDS_RETURN_IF_ERROR(Expect(TokKind::kComma, "','"));
    EDS_ASSIGN_OR_RETURN(decl.rule_names, ParseNameSet());
    EDS_RETURN_IF_ERROR(Expect(TokKind::kComma, "','"));
    EDS_ASSIGN_OR_RETURN(decl.limit, ParseLimit());
    EDS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    EDS_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
    return decl;
  }

  // seq({block, ...}, limit) ;
  Result<SeqDecl> ParseSeq() {
    SeqDecl decl;
    decl.loc.offset = Peek().pos;
    Advance();  // 'seq'
    EDS_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    EDS_ASSIGN_OR_RETURN(decl.block_names, ParseNameSet());
    EDS_RETURN_IF_ERROR(Expect(TokKind::kComma, "','"));
    EDS_ASSIGN_OR_RETURN(decl.limit, ParseLimit());
    EDS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    EDS_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
    return decl;
  }

  Result<std::vector<std::string>> ParseNameSet() {
    EDS_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
    std::vector<std::string> names;
    if (Peek().kind != TokKind::kRBrace) {
      while (true) {
        EDS_ASSIGN_OR_RETURN(std::string n, ExpectIdent("name"));
        names.push_back(std::move(n));
        if (Peek().kind == TokKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
    }
    EDS_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
    return names;
  }

  Result<int64_t> ParseLimit() {
    if (Peek().kind == TokKind::kIdent &&
        (EqualsIgnoreCase(Peek().text, "inf") ||
         EqualsIgnoreCase(Peek().text, "infinite"))) {
      Advance();
      return static_cast<int64_t>(rewrite::kSaturate);
    }
    if (Peek().kind == TokKind::kInt) {
      int64_t v = Peek().int_value;
      Advance();
      if (v < 0) return Error("limit must be non-negative or INF");
      return v;
    }
    return Error("expected a limit (integer or INF)");
  }

  const std::vector<Token>* tokens_;
  size_t pos_ = 0;
};

}  // namespace

LineIndex::LineIndex(std::string_view text)
    : size_(text.size()), line_starts_{0} {
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') line_starts_.push_back(i + 1);
  }
}

rewrite::SourceLoc LineIndex::Locate(size_t offset) const {
  const size_t at = std::min(offset, size_);
  // The last line starting at or before `at`.
  auto line = std::upper_bound(line_starts_.begin(), line_starts_.end(), at);
  rewrite::SourceLoc loc;
  loc.offset = offset;
  loc.line = static_cast<int>(line - line_starts_.begin());
  loc.column = static_cast<int>(at - *std::prev(line)) + 1;
  return loc;
}

Result<CompiledUnit> ParseRuleSource(std::string_view text) {
  EDS_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeRuleSource(text));
  DslParser parser(&tokens);
  Result<CompiledUnit> unit = parser.ParseUnit();
  if (!unit.ok()) return unit;
  const LineIndex lines(text);
  for (rewrite::Rule& r : unit->rules) r.loc = lines.Locate(r.loc.offset);
  for (BlockDecl& b : unit->blocks) b.loc = lines.Locate(b.loc.offset);
  if (unit->seq.has_value()) {
    unit->seq->loc = lines.Locate(unit->seq->loc.offset);
  }
  return unit;
}

}  // namespace eds::ruledsl
