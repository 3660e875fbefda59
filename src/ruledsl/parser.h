#ifndef EDS_RULEDSL_PARSER_H_
#define EDS_RULEDSL_PARSER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rewrite/rule.h"

namespace eds::ruledsl {

// The concrete rule language of Fig. 6, with the paper's meta-rules of
// §4.2. A source unit is a sequence of statements:
//
//   # a rewriting rule:  name : lhs / constraints --> rhs / methods ;
//   union_collapse : UNION(SET(x)) /  -->  x / ;
//
//   search_merge :
//     SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a) /
//     -->
//     SEARCH(APPEND(x*, v*, z), f2 AND g, a2) /
//     MERGE_SUBST(f, x*, v*, z, b, f2), MERGE_SUBST(a, x*, v*, z, b, a2) ;
//
//   # a block of rules with an application budget (INF = saturation):
//   block(merging, {search_merge, union_collapse}, inf) ;
//
//   # the block sequence (at most one per unit):
//   seq({merging, pushing}, 2) ;
//
// Constraints are ','-separated boolean terms (AND also works within one
// constraint). '/' is reserved as the section separator: use DIV(a, b) for
// division inside rule terms.

struct BlockDecl {
  std::string name;
  std::vector<std::string> rule_names;
  int64_t limit;  // rewrite::kSaturate for INF
  rewrite::SourceLoc loc;
};

struct SeqDecl {
  std::vector<std::string> block_names;
  int64_t limit;
  rewrite::SourceLoc loc;
};

struct CompiledUnit {
  std::vector<rewrite::Rule> rules;
  std::vector<BlockDecl> blocks;
  std::optional<SeqDecl> seq;
};

// Parses a source unit. Purely syntactic: name resolution and rule
// validation happen in CompileProgram (compiler.h). Every rule, block and
// seq declaration carries a SourceLoc (1-based line:column of its first
// token) so downstream validation and lint diagnostics can point at it.
Result<CompiledUnit> ParseRuleSource(std::string_view text);

// Converts byte offsets into one text to 1-based line:column SourceLocs.
// The table of line starts is built in one pass and each Locate is a
// binary search, so locating every rule of a unit never rescans the text.
// Token positions index into the original source (comment stripping
// preserves offsets), so this also locates parse-error offsets.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text);

  // An offset past the end locates the end of the text.
  rewrite::SourceLoc Locate(size_t offset) const;

 private:
  size_t size_;
  std::vector<size_t> line_starts_;  // ascending; line_starts_[0] == 0
};

}  // namespace eds::ruledsl

#endif  // EDS_RULEDSL_PARSER_H_
