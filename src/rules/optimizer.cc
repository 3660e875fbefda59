#include "rules/optimizer.h"

#include <map>

#include "common/strings.h"
#include "magic/magic.h"
#include "rules/fixpoint.h"
#include "rules/merging.h"
#include "rules/permutation.h"
#include "rules/semantic.h"
#include "rules/simplify.h"
#include "ruledsl/parser.h"

namespace eds::rules {

namespace {

// Parses `source`, validates the rules, and adds them to `by_name`.
Status LoadRules(const std::string& source,
                 const rewrite::BuiltinRegistry& builtins,
                 RulesByName* by_name) {
  EDS_ASSIGN_OR_RETURN(ruledsl::CompiledUnit unit,
                       ruledsl::ParseRuleSource(source));
  for (rewrite::Rule& r : unit.rules) {
    EDS_RETURN_IF_ERROR(rewrite::ValidateRule(r, builtins));
    std::string key = ToUpperAscii(r.name);
    if (by_name->count(key) > 0) {
      return Status::AlreadyExists("duplicate rule '" + r.name +
                                   "' in optimizer sources");
    }
    by_name->emplace(std::move(key), std::move(r));
  }
  return Status::OK();
}

Result<RulesByName> LoadBuiltinLibrary() {
  rewrite::BuiltinRegistry builtins;
  InstallOptimizerBuiltins(&builtins);
  RulesByName by_name;
  for (const char* source :
       {MergingRuleSource(), PermutationRuleSource(), FixpointRuleSource(),
        SimplifyRuleSource(), SemanticMethodRuleSource()}) {
    EDS_RETURN_IF_ERROR(LoadRules(source, builtins, &by_name));
  }
  return by_name;
}

// The rules a program draws from: the built-in library, then the catalog's
// constraint rules. A constraint rule that reuses a built-in name is
// shadowed by the built-in.
struct RuleSource {
  const RulesByName& library;
  const RulesByName& constraints;

  const rewrite::Rule* Find(const std::string& name) const {
    const std::string key = ToUpperAscii(name);
    auto it = library.find(key);
    if (it != library.end()) return &it->second;
    it = constraints.find(key);
    return it != constraints.end() ? &it->second : nullptr;
  }
};

Result<rewrite::RuleBlock> PickBlock(
    const std::string& block_name, const std::vector<const char*>& rule_names,
    int64_t limit, const RuleSource& rules) {
  rewrite::RuleBlock block;
  block.name = block_name;
  block.limit = limit;
  for (const char* rn : rule_names) {
    const rewrite::Rule* rule = rules.Find(rn);
    if (rule == nullptr) {
      return Status::Internal("optimizer block '" + block_name +
                              "' references missing rule '" + rn + "'");
    }
    block.rules.push_back(*rule);
  }
  return block;
}

}  // namespace

void InstallOptimizerBuiltins(rewrite::BuiltinRegistry* reg) {
  reg->InstallStandard();
  magic::InstallMagicBuiltins(reg);
  InstallSemanticBuiltins(reg);
}

Result<const RulesByName*> BuiltinRuleLibrary() {
  // Leaked like term::Interner::Global(): its terms may outlive static
  // teardown order. The static's initialization is thread-safe.
  static const Result<RulesByName>* const library =
      new Result<RulesByName>(LoadBuiltinLibrary());
  if (!library->ok()) return library->status();
  return &library->value();
}

Result<std::unique_ptr<Optimizer>> MakeDefaultOptimizer(
    const catalog::Catalog* cat, const OptimizerOptions& options) {
  EDS_ASSIGN_OR_RETURN(const RulesByName* library, BuiltinRuleLibrary());
  auto optimizer = std::unique_ptr<Optimizer>(new Optimizer());
  InstallOptimizerBuiltins(&optimizer->builtins_);

  // The DBA's integrity constraints arrive as rule text in the catalog, so
  // they are the one part parsed per optimizer; the semantic block runs
  // them in name order.
  RulesByName constraint_rules;
  EDS_RETURN_IF_ERROR(LoadRules(ConstraintRuleSource(*cat),
                                optimizer->builtins_, &constraint_rules));
  const RuleSource rules{*library, constraint_rules};

  rewrite::RewriteProgram program;
  program.seq_limit = options.seq_limit;

  EDS_ASSIGN_OR_RETURN(
      rewrite::RuleBlock normalize,
      PickBlock("normalize",
                {"filter_to_search", "project_to_search", "join_to_search"},
                options.syntactic_limit, rules));
  program.blocks.push_back(std::move(normalize));

  EDS_ASSIGN_OR_RETURN(
      rewrite::RuleBlock merge,
      PickBlock("merge",
                {"search_merge", "union_merge", "union_collapse",
                 "dedup_dedup", "dedup_union", "union_absorbs_dedup"},
                options.syntactic_limit, rules));
  program.blocks.push_back(merge);  // copied: used again after push

  if (options.enable_semantic) {
    rewrite::RuleBlock semantic;
    semantic.name = "semantic";
    semantic.limit = options.semantic_limit;
    for (const auto& [key, rule] : constraint_rules) {
      semantic.rules.push_back(*rules.Find(rule.name));
    }
    semantic.rules.push_back(*rules.Find("close_predicates"));
    // Folding rules run inside the block so that added constraints collapse
    // immediately (consistent ones to TRUE, inconsistent ones to FALSE);
    // together with the engine's cycle guard this keeps constraint addition
    // self-limiting instead of burning the whole budget (§7).
    for (const char* rn :
         {"eval_fold_1", "eval_fold_2", "and_true_r", "and_true_l",
          "and_false_r", "and_false_l"}) {
      semantic.rules.push_back(*rules.Find(rn));
    }
    program.blocks.push_back(std::move(semantic));
  }

  EDS_ASSIGN_OR_RETURN(
      rewrite::RuleBlock simplify,
      PickBlock("simplify",
                {"and_true_r", "and_true_l", "and_false_r", "and_false_l",
                 "or_true_r", "or_true_l", "or_false_r", "or_false_l",
                 "not_true", "not_false", "not_not", "and_idem", "or_idem",
                 "eq_self", "ne_self", "lt_self", "le_self", "gt_self",
                 "ge_self", "contra_gt_le", "contra_le_gt", "contra_lt_ge",
                 "contra_ge_lt", "contra_eq_ne", "contra_ne_eq", "sub_zero",
                 "eval_fold_1", "eval_fold_2", "simplify_qual"},
                options.syntactic_limit, rules));
  program.blocks.push_back(std::move(simplify));

  std::vector<const char*> push_rules = {"push_search_union",
                                         "push_search_nest", "union_collapse"};
  if (options.enable_magic) push_rules.push_back("push_search_fixpoint");
  EDS_ASSIGN_OR_RETURN(rewrite::RuleBlock push,
                       PickBlock("push", push_rules, options.syntactic_limit,
                                 rules));
  program.blocks.push_back(std::move(push));

  rewrite::RuleBlock merge_again = merge;
  merge_again.name = "merge_again";
  program.blocks.push_back(std::move(merge_again));

  optimizer->engine_ = std::make_unique<rewrite::Engine>(
      cat, &optimizer->builtins_, std::move(program));
  EDS_RETURN_IF_ERROR(optimizer->engine_->ValidateProgram());
  return optimizer;
}

}  // namespace eds::rules
