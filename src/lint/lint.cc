#include "lint/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/strings.h"
#include "lint/analysis.h"
#include "value/collection_lib.h"

namespace eds::lint {

namespace {

using rewrite::Rule;
using term::TermRef;

// A block as the analysis passes see it: a name, a budget and the rules
// that run in it, in order. Built leniently (unknown names skipped) so the
// linter keeps going on programs the compiler would reject.
struct BlockView {
  std::string name;
  int64_t limit = rewrite::kSaturate;
  std::vector<const Rule*> rules;
};

std::vector<BlockView> ViewsFromUnit(const ruledsl::CompiledUnit& unit,
                                     const std::set<const Rule*>& excluded) {
  std::vector<BlockView> views;
  if (unit.blocks.empty()) {
    BlockView all;
    all.name = "default";
    all.limit = rewrite::kSaturate;
    for (const Rule& r : unit.rules) {
      if (excluded.count(&r) == 0) all.rules.push_back(&r);
    }
    views.push_back(std::move(all));
    return views;
  }
  std::map<std::string, const Rule*> by_name;
  for (const Rule& r : unit.rules) {
    if (excluded.count(&r) == 0) by_name.emplace(ToUpperAscii(r.name), &r);
  }
  for (const ruledsl::BlockDecl& decl : unit.blocks) {
    BlockView view;
    view.name = decl.name;
    view.limit = decl.limit;
    for (const std::string& rule_name : decl.rule_names) {
      auto it = by_name.find(ToUpperAscii(rule_name));
      if (it != by_name.end()) view.rules.push_back(it->second);
    }
    views.push_back(std::move(view));
  }
  return views;
}

std::vector<BlockView> ViewsFromProgram(const rewrite::RewriteProgram& program) {
  std::vector<BlockView> views;
  for (const rewrite::RuleBlock& block : program.blocks) {
    BlockView view;
    view.name = block.name;
    view.limit = block.limit;
    for (const Rule& r : block.rules) view.rules.push_back(&r);
    views.push_back(std::move(view));
  }
  return views;
}

// Rules deduplicated by (upper-cased) name — the same rule may appear in
// several blocks; per-rule passes should fire once.
std::map<std::string, const Rule*> UniqueRules(
    const std::vector<BlockView>& views) {
  std::map<std::string, const Rule*> out;
  for (const BlockView& view : views) {
    for (const Rule* r : view.rules) out.emplace(ToUpperAscii(r->name), r);
  }
  return out;
}

std::string JoinNames(const std::vector<const Rule*>& rules) {
  std::string out;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) out += ", ";
    out += "'" + rules[i]->name + "'";
  }
  return out;
}

// ---- pass 1: divergence -----------------------------------------------

// Rule-interaction graph per saturation block: edge i -> j when rule i's
// instantiated right term may contain a subterm rule j's left term matches.
// Any strongly connected knot (including self-loops) with no provably
// size-decreasing member can ping-pong forever under an INF limit.
void CheckDivergence(const std::vector<BlockView>& views,
                     const rewrite::BuiltinRegistry& builtins,
                     LintReport* report) {
  // One memo across every block: verdicts depend only on the node pair and
  // the (fixed) registry, and hash-consing shares subtrees across rules, so
  // the n² interaction loops below mostly replay already-decided pairs.
  UnifyMemo memo;
  for (const BlockView& block : views) {
    if (block.limit != rewrite::kSaturate || block.rules.empty()) continue;
    const size_t n = block.rules.size();
    std::vector<std::vector<int>> adj(n);
    std::vector<bool> self_loop(n, false);
    for (size_t i = 0; i < n; ++i) {
      if (block.rules[i]->rhs == nullptr) continue;
      for (size_t j = 0; j < n; ++j) {
        if (block.rules[j]->lhs == nullptr) continue;
        if (ProducesMatchFor(block.rules[i]->rhs, block.rules[j]->lhs,
                             builtins, &memo)) {
          adj[i].push_back(static_cast<int>(j));
          if (i == j) self_loop[i] = true;
        }
      }
    }
    for (const std::vector<int>& scc : StronglyConnectedComponents(adj)) {
      if (scc.size() < 2 && !self_loop[static_cast<size_t>(scc[0])]) continue;
      std::vector<const Rule*> cycle;
      for (int idx : scc) cycle.push_back(block.rules[static_cast<size_t>(idx)]);
      if (std::any_of(cycle.begin(), cycle.end(), [&](const Rule* r) {
            return IsSizeDecreasing(*r, builtins);
          })) {
        continue;
      }
      const bool all_guarded =
          std::all_of(cycle.begin(), cycle.end(), [](const Rule* r) {
            return !r->constraints.empty() || !r->methods.empty();
          });
      std::string message;
      if (cycle.size() == 1) {
        message = "may rewrite its own output forever under saturation: the "
                  "right term can again match the left term and no "
                  "application provably shrinks the query";
      } else {
        message = "possible divergence under saturation: rules " +
                  JoinNames(cycle) +
                  " can each rewrite into a term the next one matches, and "
                  "none provably shrinks the query";
      }
      if (all_guarded) {
        message += "; every rule in the cycle is guarded by constraints or "
                   "methods, which may still bound it";
      }
      message += ". Consider a finite block limit.";
      report->Add(Severity::kWarning, kLintDivergence, cycle.front(),
                  block.name, std::move(message));
    }
  }
}

// ---- pass 2: dead / unreachable rules ---------------------------------

void CollectFunctors(const TermRef& t, std::set<std::string>* out) {
  if (!t->is_apply()) return;
  out->insert(t->functor());
  for (const TermRef& a : t->args()) CollectFunctors(a, out);
}

bool IsFunctorVar(const TermRef& t) {
  return t->is_apply() && !t->functor().empty() && t->functor().front() == '?';
}

void CheckDeadRules(const std::vector<BlockView>& views,
                    const LintOptions& opts, LintReport* report) {
  // The producible-functor universe: anything a LERA query term can contain
  // (operators, scalar functions) plus anything some rule's right term
  // builds, plus caller-declared custom operators.
  std::set<std::string> producible;
  for (const std::string& f : QueryConstructors()) producible.insert(f);
  for (const std::string& f : value::FunctionLibrary::Default().Names()) {
    producible.insert(ToUpperAscii(f));
  }
  if (opts.catalog != nullptr) {
    for (const std::string& f : opts.catalog->functions().Names()) {
      producible.insert(ToUpperAscii(f));
    }
  }
  for (const std::string& f : opts.extra_constructors) {
    producible.insert(ToUpperAscii(f));
  }
  for (const BlockView& view : views) {
    for (const Rule* r : view.rules) {
      if (r->rhs != nullptr) CollectFunctors(r->rhs, &producible);
    }
  }

  std::set<std::string> reported;
  for (const BlockView& view : views) {
    for (const Rule* r : view.rules) {
      if (r->lhs == nullptr || !r->lhs->is_apply() || IsFunctorVar(r->lhs)) {
        continue;
      }
      const std::string& root = r->lhs->functor();
      if (producible.count(root) > 0) continue;
      if (!reported.insert(ToUpperAscii(r->name)).second) continue;
      report->Add(Severity::kWarning, kLintUnreachableFunctor, r, view.name,
                  "left term's root functor '" + root +
                      "' is never produced: no LERA constructor, scalar "
                      "function, or rule right term builds it, so the rule "
                      "can never fire");
    }
  }
}

// ---- pattern arity checks (EDS-L013 / L032 / L033) --------------------

void CheckPatternArity(const Rule& rule, const TermRef& t, bool is_lhs,
                       const LintOptions& opts, LintReport* report) {
  if (t == nullptr || !t->is_apply()) return;
  for (const TermRef& a : t->args()) {
    CheckPatternArity(rule, a, is_lhs, opts, report);
  }
  if (IsFunctorVar(t)) return;
  std::optional<size_t> arity = KnownConstructorArity(t->functor());
  if (!arity.has_value()) return;
  size_t fixed = 0, coll = 0;
  for (const TermRef& a : t->args()) {
    a->is_collection_variable() ? ++coll : ++fixed;
  }
  if (is_lhs) {
    if ((coll == 0 && fixed != *arity) || fixed > *arity) {
      if (opts.check_dead_rules) {
        report->Add(Severity::kError, kLintImpossiblePattern, &rule, "",
                    "pattern '" + t->ToString() + "' can never match: '" +
                        t->functor() + "' always has " +
                        std::to_string(*arity) + " argument(s)");
      }
    } else if (coll > 0 && fixed == *arity) {
      if (opts.check_hygiene) {
        report->Add(Severity::kWarning, kLintEmptyCollectionVar, &rule, "",
                    "collection variable(s) in pattern '" + t->ToString() +
                        "' can only match the empty sequence: the " +
                        std::to_string(*arity) + " fixed argument(s) of '" +
                        t->functor() + "' are already taken");
      }
    }
  } else if (coll == 0 && fixed != *arity && opts.check_hygiene) {
    report->Add(Severity::kWarning, kLintMalformedConstructor, &rule, "",
                "right term builds '" + t->functor() + "' with " +
                    std::to_string(fixed) + " argument(s); query terms use " +
                    std::to_string(*arity));
  }
}

// ---- pass 3: shadowing -------------------------------------------------

void CheckShadowing(const std::vector<BlockView>& views, LintReport* report) {
  for (const BlockView& view : views) {
    for (size_t j = 1; j < view.rules.size(); ++j) {
      const Rule* b = view.rules[j];
      if (b->lhs == nullptr) continue;
      for (size_t i = 0; i < j; ++i) {
        const Rule* a = view.rules[i];
        if (a->lhs == nullptr) continue;
        // Only an unconditional rule is guaranteed to fire first; a guarded
        // one can decline the match and let later rules try.
        if (!a->constraints.empty() || !a->methods.empty()) continue;
        if (!Subsumes(a->lhs, b->lhs)) continue;
        std::string message =
            ToUpperAscii(a->name) == ToUpperAscii(b->name)
                ? "appears more than once in block '" + view.name +
                      "'; the later occurrence never fires"
                : "never fires: " + a->Describe() + " earlier in block '" +
                      view.name +
                      "' matches every term this rule matches and rewrites "
                      "it unconditionally first";
        report->Add(Severity::kWarning, kLintShadowedRule, b, view.name,
                    std::move(message));
        break;  // one shadowing report per rule is enough
      }
    }
  }
}

// ---- pass 4: constraint / method hygiene ------------------------------

const std::set<std::string>& DisjointCollectionKinds() {
  static const std::set<std::string>* kKinds =
      new std::set<std::string>{"SET", "BAG", "LIST", "ARRAY"};
  return *kKinds;
}

bool IsPseudoTypeName(const std::string& upper) {
  return DisjointCollectionKinds().count(upper) > 0 ||
         upper == "COLLECTION" || upper == "CONSTANT";
}

bool OnSupertypeChain(types::TypeRef t, const types::TypeRef& ancestor) {
  while (t != nullptr) {
    if (t == ancestor) return true;
    t = t->supertype();
  }
  return false;
}

bool TypesCompatible(const types::TypeRef& a, const types::TypeRef& b) {
  if (a == nullptr || b == nullptr) return true;
  if (a->kind() == types::TypeKind::kAny || b->kind() == types::TypeKind::kAny)
    return true;
  if (OnSupertypeChain(a, b) || OnSupertypeChain(b, a)) return true;
  auto numeric_pair = [](const types::TypeRef& x, const types::TypeRef& y) {
    return x->kind() == types::TypeKind::kNumeric &&
           (y->kind() == types::TypeKind::kInt ||
            y->kind() == types::TypeKind::kReal);
  };
  return numeric_pair(a, b) || numeric_pair(b, a);
}

void CheckConstraints(const Rule& rule, const LintOptions& opts,
                      LintReport* report) {
  // ISA type names asserted per subject term (key: printed form), in
  // first-seen order so diagnostics are deterministic.
  std::map<std::string, std::vector<std::string>> isa_by_subject;
  for (const TermRef& c : rule.constraints) {
    for (const TermRef& conj : term::Conjuncts(c)) {
      if (conj->is_constant() &&
          conj->constant().kind() == value::ValueKind::kBool &&
          !conj->constant().AsBool()) {
        report->Add(Severity::kError, kLintUnsatisfiableConstraint, &rule, "",
                    "constraint is literally FALSE; the rule can never fire");
        continue;
      }
      if (!conj->IsApply("ISA", 2)) continue;
      const TermRef& ty = conj->arg(1);
      std::string name;
      if (ty->is_variable()) {
        name = ty->var_name();
      } else if (ty->is_constant() &&
                 ty->constant().kind() == value::ValueKind::kString) {
        name = ty->constant().AsString();
      } else {
        report->Add(Severity::kError, kLintUnsatisfiableConstraint, &rule, "",
                    "ISA's second argument must name a type, got '" +
                        ty->ToString() + "'");
        continue;
      }
      const std::string upper = ToUpperAscii(name);
      isa_by_subject[conj->arg(0)->ToString()].push_back(upper);
      if (opts.catalog != nullptr && !IsPseudoTypeName(upper) &&
          !opts.catalog->types().Contains(name)) {
        report->Add(Severity::kError, kLintUnsatisfiableConstraint, &rule, "",
                    "ISA(" + conj->arg(0)->ToString() + ", '" + name +
                        "'): type '" + name +
                        "' is not known to the catalog, so the constraint "
                        "can never hold");
      }
    }
  }
  for (const auto& [subject, names] : isa_by_subject) {
    // Distinct collection kinds are pairwise disjoint: a value has one kind.
    std::set<std::string> kinds;
    for (const std::string& n : names) {
      if (DisjointCollectionKinds().count(n) > 0) kinds.insert(n);
    }
    if (kinds.size() > 1) {
      std::string list;
      for (const std::string& k : kinds) {
        if (!list.empty()) list += ", ";
        list += k;
      }
      report->Add(Severity::kError, kLintUnsatisfiableConstraint, &rule, "",
                  "ISA constraints require '" + subject +
                      "' to be of disjoint collection kinds {" + list +
                      "} simultaneously; the rule can never fire");
      continue;
    }
    if (opts.catalog == nullptr) continue;
    // Concrete catalog types: unrelated pairs can never both hold.
    std::vector<std::pair<std::string, types::TypeRef>> resolved;
    for (const std::string& n : names) {
      if (IsPseudoTypeName(n)) continue;
      Result<types::TypeRef> t = opts.catalog->types().Find(n);
      if (t.ok()) resolved.emplace_back(n, *t);
    }
    for (size_t i = 0; i < resolved.size(); ++i) {
      for (size_t k = i + 1; k < resolved.size(); ++k) {
        if (resolved[i].second == resolved[k].second) continue;
        if (TypesCompatible(resolved[i].second, resolved[k].second)) continue;
        report->Add(Severity::kError, kLintUnsatisfiableConstraint, &rule, "",
                    "ISA constraints require '" + subject +
                        "' to be both '" + resolved[i].first + "' and '" +
                        resolved[k].first +
                        "', which are incompatible catalog types");
      }
    }
  }
}

void CheckMethodOutputs(const Rule& rule, LintReport* report) {
  std::vector<std::string> bound, bound_coll;
  if (rule.lhs != nullptr) {
    term::CollectVariables(rule.lhs, &bound, &bound_coll);
  }
  std::map<std::string, size_t> rhs_vars, rhs_coll;
  if (rule.rhs != nullptr) {
    CountVarOccurrences(rule.rhs, &rhs_vars, &rhs_coll);
  }
  auto contains = [](const std::vector<std::string>& xs,
                     const std::string& x) {
    return std::find(xs.begin(), xs.end(), x) != xs.end();
  };
  for (size_t i = 0; i < rule.methods.size(); ++i) {
    std::vector<std::string> vars, coll_vars;
    for (const TermRef& a : rule.methods[i].args) {
      term::CollectVariables(a, &vars, &coll_vars);
    }
    auto check_output = [&](const std::string& v, bool is_coll) {
      // Used if the right term reads it, or a later method call takes it
      // as an input.
      if (is_coll ? rhs_coll.count(v) > 0 : rhs_vars.count(v) > 0) return;
      for (size_t j = i + 1; j < rule.methods.size(); ++j) {
        std::vector<std::string> lv, lcv;
        for (const TermRef& a : rule.methods[j].args) {
          term::CollectVariables(a, &lv, &lcv);
        }
        if (contains(is_coll ? lcv : lv, v)) return;
      }
      report->Add(Severity::kWarning, kLintUnusedMethodOutput, &rule, "",
                  "method '" + rule.methods[i].name + "' binds '" + v +
                      (is_coll ? "*" : "") +
                      "' but neither the right term nor a later method "
                      "uses it");
    };
    for (const std::string& v : vars) {
      if (!contains(bound, v)) {
        check_output(v, /*is_coll=*/false);
        bound.push_back(v);
      }
    }
    for (const std::string& v : coll_vars) {
      if (!contains(bound_coll, v)) {
        check_output(v, /*is_coll=*/true);
        bound_coll.push_back(v);
      }
    }
  }
}

// ---- shared driver ----------------------------------------------------

void AnalyzeCore(const std::vector<BlockView>& views,
                 const std::map<std::string, const Rule*>& hygiene_rules,
                 const rewrite::BuiltinRegistry& builtins,
                 const LintOptions& opts, LintReport* report) {
  if (opts.check_divergence) CheckDivergence(views, builtins, report);
  if (opts.check_dead_rules) CheckDeadRules(views, opts, report);
  if (opts.check_shadowing) CheckShadowing(views, report);
  for (const auto& [name, rule] : hygiene_rules) {
    (void)name;
    if (opts.check_dead_rules || opts.check_hygiene) {
      CheckPatternArity(*rule, rule->lhs, /*is_lhs=*/true, opts, report);
      CheckPatternArity(*rule, rule->rhs, /*is_lhs=*/false, opts, report);
    }
    if (opts.check_hygiene) {
      CheckConstraints(*rule, opts, report);
      CheckMethodOutputs(*rule, report);
    }
  }
}

}  // namespace

void ReportUnreferencedRules(const ruledsl::CompiledUnit& unit,
                             LintReport* report) {
  if (unit.blocks.empty()) return;  // implicit default block runs them all
  std::set<std::string> referenced;
  for (const ruledsl::BlockDecl& decl : unit.blocks) {
    for (const std::string& n : decl.rule_names) {
      referenced.insert(ToUpperAscii(n));
    }
  }
  for (const Rule& r : unit.rules) {
    if (referenced.count(ToUpperAscii(r.name)) > 0) continue;
    report->Add(Severity::kWarning, kLintUnreferencedRule, &r, "",
                "no declared block references this rule, so the compiler "
                "drops it silently; add it to a block or delete it");
  }
}

void AnalyzeUnit(const ruledsl::CompiledUnit& unit,
                 const rewrite::BuiltinRegistry& builtins,
                 const LintOptions& opts, LintReport* report) {
  std::vector<BlockView> views = ViewsFromUnit(unit, /*excluded=*/{});
  // Hygiene covers every rule in the unit, referenced or not: unreferenced
  // rules are usually destined for another program and deserve checking.
  std::map<std::string, const Rule*> hygiene;
  for (const Rule& r : unit.rules) hygiene.emplace(ToUpperAscii(r.name), &r);
  AnalyzeCore(views, hygiene, builtins, opts, report);
}

void AnalyzeProgram(const rewrite::RewriteProgram& program,
                    const rewrite::BuiltinRegistry& builtins,
                    const LintOptions& opts, LintReport* report) {
  std::vector<BlockView> views = ViewsFromProgram(program);
  AnalyzeCore(views, UniqueRules(views), builtins, opts, report);
}

LintReport LintUnit(const ruledsl::CompiledUnit& unit,
                    const rewrite::BuiltinRegistry& builtins,
                    const LintOptions& opts) {
  LintReport report;
  std::set<const Rule*> invalid;
  std::set<std::string> seen;
  for (const Rule& r : unit.rules) {
    Status status = rewrite::ValidateRule(r, builtins);
    if (!status.ok()) {
      invalid.insert(&r);
      // ValidateRule prefixes its message with the rule description; the
      // diagnostic already carries rule + location, so strip it.
      std::string message = status.message();
      const std::string prefix = r.Describe() + ": ";
      if (message.rfind(prefix, 0) == 0) message = message.substr(prefix.size());
      report.Add(Severity::kError, kLintInvalidRule, &r, "",
                 std::move(message));
    }
    if (!seen.insert(ToUpperAscii(r.name)).second) {
      invalid.insert(&r);
      report.Add(Severity::kError, kLintDuplicateName, &r, "",
                 "duplicate rule name; an earlier rule already uses it");
    }
  }

  std::set<std::string> rule_names = std::move(seen);
  std::set<std::string> block_names;
  for (const ruledsl::BlockDecl& decl : unit.blocks) {
    if (!block_names.insert(ToUpperAscii(decl.name)).second) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.id = kLintDuplicateName;
      d.block = decl.name;
      d.loc = decl.loc;
      d.message = "duplicate block name";
      report.Add(std::move(d));
    }
    for (const std::string& rn : decl.rule_names) {
      if (rule_names.count(ToUpperAscii(rn)) > 0) continue;
      Diagnostic d;
      d.severity = Severity::kError;
      d.id = kLintUnknownReference;
      d.block = decl.name;
      d.loc = decl.loc;
      d.message = "references unknown rule '" + rn + "'";
      report.Add(std::move(d));
    }
  }
  if (unit.seq.has_value()) {
    if (unit.blocks.empty()) {
      Diagnostic d;
      d.severity = Severity::kError;
      d.id = kLintUnknownReference;
      d.loc = unit.seq->loc;
      d.message = "seq declared without any blocks";
      report.Add(std::move(d));
    }
    for (const std::string& bn : unit.seq->block_names) {
      if (block_names.count(ToUpperAscii(bn)) > 0) continue;
      Diagnostic d;
      d.severity = Severity::kError;
      d.id = kLintUnknownReference;
      d.loc = unit.seq->loc;
      d.message = "seq references unknown block '" + bn + "'";
      report.Add(std::move(d));
    }
  }

  ReportUnreferencedRules(unit, &report);

  std::vector<BlockView> views = ViewsFromUnit(unit, invalid);
  std::map<std::string, const Rule*> hygiene;
  for (const Rule& r : unit.rules) {
    if (invalid.count(&r) == 0) hygiene.emplace(ToUpperAscii(r.name), &r);
  }
  AnalyzeCore(views, hygiene, builtins, opts, &report);

  report.SortByLocation();
  return report;
}

LintReport LintSource(std::string_view text,
                      const rewrite::BuiltinRegistry& builtins,
                      const LintOptions& opts) {
  Result<ruledsl::CompiledUnit> unit = ruledsl::ParseRuleSource(text);
  if (!unit.ok()) {
    LintReport report;
    Diagnostic d;
    d.severity = Severity::kError;
    d.id = kLintParseError;
    d.message = unit.status().message();
    // Parser errors carry "at offset N: ..." — recover a line:column.
    const std::string& m = unit.status().message();
    const std::string prefix = "at offset ";
    if (m.rfind(prefix, 0) == 0) {
      size_t offset = 0;
      size_t i = prefix.size();
      while (i < m.size() && m[i] >= '0' && m[i] <= '9') {
        offset = offset * 10 + static_cast<size_t>(m[i] - '0');
        ++i;
      }
      d.loc = ruledsl::LineIndex(text).Locate(offset);
    }
    report.Add(std::move(d));
    return report;
  }
  return LintUnit(*unit, builtins, opts);
}

}  // namespace eds::lint
