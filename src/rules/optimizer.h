#ifndef EDS_RULES_OPTIMIZER_H_
#define EDS_RULES_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "rewrite/builtins.h"
#include "rewrite/engine.h"

namespace eds::rules {

// Tuning knobs for the generated optimizer — the §4.2/§7 block-budget
// trade-off surface. The defaults reproduce the paper's recommended shape:
// syntactic blocks run to saturation; the semantic block (whose rules can
// grow qualifications) gets a finite budget.
struct OptimizerOptions {
  // Budget (condition checks) for the semantic block; rewrite::kSaturate
  // for saturation, 0 disables semantic optimization entirely ("simple
  // queries do not need sophisticated optimization: a 0 limit can then be
  // given", §7).
  int64_t semantic_limit = 512;
  // Budgets for the syntactic blocks; kSaturate by default.
  int64_t syntactic_limit = rewrite::kSaturate;
  // Passes over the whole block sequence.
  int64_t seq_limit = 2;
  // Include the Fig. 9 fixpoint-reduction (Alexander/Magic) rule.
  bool enable_magic = true;
  // Include the semantic block (catalog constraints + CLOSE_PREDICATES).
  bool enable_semantic = true;
};

// Registers every builtin the default optimizer's rules call: the standard
// set, the magic-sets methods and the semantic methods.
void InstallOptimizerBuiltins(rewrite::BuiltinRegistry* reg);

// The five built-in rule libraries (merging, permutation, fixpoint,
// simplify, semantic methods), parsed and validated against the
// InstallOptimizerBuiltins registry once per process. The paper generates
// its optimizer from fixed rule libraries; they are immutable, so every
// optimizer copies its rules from this one set instead of parsing the text
// again. Keys are upper-cased rule names. Thread-safe; an error in the
// library text is returned on every call.
using RulesByName = std::map<std::string, rewrite::Rule>;
Result<const RulesByName*> BuiltinRuleLibrary();

// The generated optimizer: owns the builtin registry, the compiled program
// and the engine. Keep it alive while rewriting (the engine holds pointers
// into it and into the catalog).
class Optimizer {
 public:
  const rewrite::Engine& engine() const { return *engine_; }
  rewrite::BuiltinRegistry& builtins() { return builtins_; }

  // Rewrites a LERA query with default options.
  Result<rewrite::RewriteOutcome> Rewrite(
      const term::TermRef& query,
      const rewrite::RewriteOptions& options = {}) const {
    return engine_->Rewrite(query, options);
  }

 private:
  friend Result<std::unique_ptr<Optimizer>> MakeDefaultOptimizer(
      const catalog::Catalog* cat, const OptimizerOptions& options);
  Optimizer() = default;

  rewrite::BuiltinRegistry builtins_;
  std::unique_ptr<rewrite::Engine> engine_;
};

// Builds the standard optimizer pipeline over `cat` (which must outlive the
// result):
//
//   seq({normalize, merge, semantic, simplify, push, merge}, seq_limit)
//
//   normalize  filter/project/join fold into SEARCH            (saturate)
//   merge      search_merge, union_merge, union_collapse       (saturate)
//   semantic   catalog constraint rules + close_predicates     (budgeted)
//   simplify   Fig. 12 rules + simplify_qual                   (saturate)
//   push       push_search_union, push_search_nest,
//              push_search_fixpoint, union_collapse            (saturate)
//
// The second merge run re-merges the searches created by pushing — the
// paper's own observation that search merging "takes advantage of being
// applied more than once ... before and after pushing selections through
// fixpoints" (§5.3).
//
// The built-in rules come from BuiltinRuleLibrary(); only the catalog's
// constraint text is parsed per call.
Result<std::unique_ptr<Optimizer>> MakeDefaultOptimizer(
    const catalog::Catalog* cat, const OptimizerOptions& options = {});

}  // namespace eds::rules

#endif  // EDS_RULES_OPTIMIZER_H_
