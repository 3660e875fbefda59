#include "reference/reference.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/strings.h"
#include "exec/vec/vec_eval.h"
#include "lera/lera.h"
#include "magic/magic.h"

namespace eds::reference {

using exec::Row;
using exec::Rows;
using term::TermList;
using term::TermRef;
using value::Value;

namespace {

bool RowLess(const Row& a, const Row& b) {
  return exec::CompareRows(a, b) < 0;
}

// Sorted, keeping the first row of each Compare-equal group.
Rows Distinct(Rows rows) {
  std::stable_sort(rows.begin(), rows.end(), RowLess);
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const Row& a, const Row& b) {
                           return exec::CompareRows(a, b) == 0;
                         }),
             rows.end());
  return rows;
}

Status Ragged(size_t width, size_t held) {
  return Status::InvalidArgument(
      "ragged rows: a row of width " + std::to_string(width) +
      " among rows of width " + std::to_string(held));
}

// The conjuncts of `qual` bucketed by the highest of the `n` inputs each
// references: level k runs once inputs 1..k are bound, level 0 once.
Result<std::vector<TermList>> ConjunctsByLevel(const TermRef& qual,
                                               size_t n) {
  std::vector<TermList> conjuncts_at(n + 1);
  for (const TermRef& c : term::Conjuncts(qual)) {
    std::vector<lera::AttrRef> attrs;
    lera::CollectAttrs(c, &attrs);
    int64_t level = 0;
    for (const lera::AttrRef& a : attrs) level = std::max(level, a.input);
    if (level < 0 || static_cast<size_t>(level) > n) {
      return Status::RuntimeError("qualification references input beyond " +
                                  std::to_string(n));
    }
    conjuncts_at[static_cast<size_t>(level)].push_back(c);
  }
  return conjuncts_at;
}

// The recursive branches of a FIX body that semi-naive evaluation runs
// per delta, as the executor finds them: empty unless the body is a UNION
// whose every branch referencing `rel` is a SEARCH reading it directly.
Result<TermList> RecursiveBranches(const TermRef& body,
                                   const std::string& rel) {
  if (!lera::IsUnion(body)) return TermList{};
  EDS_ASSIGN_OR_RETURN(TermList branches, lera::UnionInputs(body));
  TermList recursive;
  for (const TermRef& b : branches) {
    if (!magic::ReferencesRelation(b, rel)) continue;
    if (!lera::IsSearch(b)) return TermList{};
    EDS_ASSIGN_OR_RETURN(TermList inputs, lera::SearchInputs(b));
    for (const TermRef& in : inputs) {
      if (magic::ReferencesRelation(in, rel) && !lera::IsRelation(in)) {
        return TermList{};
      }
    }
    recursive.push_back(b);
  }
  return recursive;
}

}  // namespace

Reference::Reference(const catalog::Catalog* cat, const exec::Database* db,
                     exec::ExecOptions options)
    : catalog_(cat), db_(db), options_(options) {}

exec::EvalContext Reference::Context(size_t inputs) const {
  exec::EvalContext ctx;
  ctx.db = db_;
  ctx.library = &catalog_->functions();
  ctx.current.assign(inputs, nullptr);
  return ctx;
}

Result<Rows> Reference::Execute(const TermRef& plan) {
  Result<Rows> out = Eval(plan, FixEnv{});
  if (out.ok()) stats_.rows_output += out->size();
  return out;
}

Result<Rows> Reference::Eval(const TermRef& t, const FixEnv& env) {
  if (lera::IsRelation(t)) {
    EDS_ASSIGN_OR_RETURN(std::string name, lera::RelationName(t));
    auto it = env.find(ToUpperAscii(name));
    if (it != env.end()) return *it->second;
    if (db_->HasTable(name)) {
      EDS_ASSIGN_OR_RETURN(const exec::Table* table, db_->GetTable(name));
      stats_.rows_scanned += table->size();
      return table->batch().ToRows();
    }
    if (catalog_->HasView(name)) {
      EDS_ASSIGN_OR_RETURN(const catalog::ViewDef* view,
                           catalog_->FindView(name));
      return Eval(view->definition, env);
    }
    return Status::NotFound("relation '" + name + "' has no storage, view "
                            "definition or fixpoint binding");
  }
  if (!t->is_apply()) {
    return Status::InvalidArgument("not a relational term: " + t->ToString());
  }
  const std::string& f = t->functor();
  if (f == lera::kSearch || f == lera::kFilter || f == lera::kProject ||
      f == lera::kJoin) {
    return Search(t, env);
  }
  if (f == lera::kUnion || f == lera::kDifference || f == lera::kIntersect ||
      f == lera::kDedup) {
    return SetOp(t, env);
  }
  if (f == lera::kNest) return Nest(t, env);
  if (f == lera::kUnnest) return Unnest(t, env);
  if (f == lera::kFix) return Fix(t, env);
  return Status::Unsupported("executor does not implement operator " + f);
}

Result<const Rows*> Reference::Input(const TermRef& t, const FixEnv& env,
                                     std::list<Rows>* owned,
                                     size_t* scanned) {
  if (lera::IsRelation(t)) {
    EDS_ASSIGN_OR_RETURN(std::string name, lera::RelationName(t));
    auto it = env.find(ToUpperAscii(name));
    if (it != env.end()) return it->second;
    if (db_->HasTable(name)) {
      EDS_ASSIGN_OR_RETURN(const exec::Table* table, db_->GetTable(name));
      *scanned += table->size();
      return &owned->emplace_back(table->batch().ToRows());
    }
  }
  EDS_ASSIGN_OR_RETURN(Rows rows, Eval(t, env));
  return &owned->emplace_back(std::move(rows));
}

Result<Rows> Reference::Search(const TermRef& t, const FixEnv& env) {
  TermList input_terms;
  TermRef qual;
  TermList projections;
  const std::string& f = t->functor();
  if (f == lera::kSearch) {
    EDS_ASSIGN_OR_RETURN(input_terms, lera::SearchInputs(t));
    EDS_ASSIGN_OR_RETURN(qual, lera::SearchQual(t));
    EDS_ASSIGN_OR_RETURN(projections, lera::SearchProjections(t));
  } else if (f == lera::kProject) {
    if (t->args().size() != 2 || !t->arg(1)->IsApply(term::kList)) {
      return Status::InvalidArgument("malformed PROJECT");
    }
    input_terms = {t->arg(0)};
    qual = term::Term::True();
    projections = t->arg(1)->args();
  } else {
    if (t->args().size() != (f == lera::kFilter ? 2u : 3u)) {
      return Status::InvalidArgument("malformed " + f);
    }
    input_terms.assign(t->args().begin(), t->args().end() - 1);
    qual = t->args().back();
  }
  if (qual->is_constant() &&
      qual->constant().kind() == value::ValueKind::kBool &&
      !qual->constant().AsBool()) {
    return Rows{};
  }
  std::list<Rows> owned;
  std::vector<const Rows*> inputs;
  size_t scanned = 0;
  for (const TermRef& in : input_terms) {
    EDS_ASSIGN_OR_RETURN(const Rows* rows,
                         Input(in, env, &owned, &scanned));
    inputs.push_back(rows);
  }
  if (f == lera::kFilter || f == lera::kJoin) {
    // The identity projection; an empty input projects nothing.
    for (size_t i = 0; i < inputs.size(); ++i) {
      const size_t width = inputs[i]->empty() ? 0 : inputs[i]->front().size();
      for (size_t c = 1; c <= width; ++c) {
        projections.push_back(lera::Attr(static_cast<int64_t>(i + 1),
                                         static_cast<int64_t>(c)));
      }
    }
  }
  return SearchWithInputs(qual, projections, inputs, scanned);
}

Result<Rows> Reference::SearchWithInputs(
    const TermRef& qual, const TermList& projections,
    const std::vector<const Rows*>& inputs, size_t scanned) {
  const size_t n = inputs.size();
  EDS_ASSIGN_OR_RETURN(std::vector<TermList> conjuncts_at,
                       ConjunctsByLevel(qual, n));
  exec::EvalContext ctx = Context(n);
  for (const TermRef& c : conjuncts_at[0]) {
    ++stats_.qual_evaluations;
    EDS_ASSIGN_OR_RETURN(bool ok, exec::EvalPredicate(c, &ctx));
    if (!ok) return Rows{};
  }
  for (const Rows* in : inputs) {
    if (in->empty()) return Rows{};
  }
  stats_.rows_scanned += scanned;

  // Tuple-substitution nested loops: each conjunct runs as soon as every
  // input it references is bound, in the order written, and the first
  // that is not TRUE drops the combination.
  Rows out;
  std::function<Status(size_t)> recurse = [&](size_t depth) -> Status {
    if (depth == n) {
      Row row;
      for (const TermRef& p : projections) {
        EDS_ASSIGN_OR_RETURN(Value v, exec::EvalExpr(p, &ctx));
        row.push_back(std::move(v));
      }
      out.push_back(std::move(row));
      return Status::OK();
    }
    for (const Row& candidate : *inputs[depth]) {
      ctx.current[depth] = &candidate;
      bool kept = true;
      for (const TermRef& c : conjuncts_at[depth + 1]) {
        EDS_ASSIGN_OR_RETURN(kept, exec::EvalPredicate(c, &ctx));
        if (!kept) break;
      }
      if (kept) EDS_RETURN_IF_ERROR(recurse(depth + 1));
    }
    ctx.current[depth] = nullptr;
    return Status::OK();
  };
  EDS_RETURN_IF_ERROR(recurse(0));
  ChargeQualifications(conjuncts_at, inputs);
  return out;
}

void Reference::ChargeQualifications(
    const std::vector<TermList>& conjuncts_at,
    const std::vector<const Rows*>& inputs) {
  const size_t n = inputs.size();
  if (n == 0) return;
  exec::EvalContext ctx = Context(n);
  // Runs `conjuncts` on the combination bound in ctx, each one charged,
  // until one is not TRUE.
  auto holds = [&](const TermList& conjuncts, bool charge) {
    for (const TermRef& c : conjuncts) {
      if (charge) ++stats_.qual_evaluations;
      Result<bool> ok = exec::EvalPredicate(c, &ctx);
      if (!ok.ok() || !*ok) return false;
    }
    return true;
  };
  std::vector<uint32_t> offsets{0};
  for (const Rows* in : inputs) {
    offsets.push_back(offsets.back() +
                      static_cast<uint32_t>(in->front().size()));
  }
  // Level k >= 2 once a combination of inputs 1..k-1 reaches it: its
  // plan, its keys as equalities, the rows of input k that the
  // before-join conjuncts keep (charged once per level) and the number of
  // combinations that reach it (each key is charged for every pairing).
  struct Level {
    bool planned = false;
    exec::vec::LevelPlan plan;
    TermList keys;
    std::vector<const Row*> right;
    size_t reached = 0;
  };
  std::vector<Level> levels(n + 1);
  std::function<void(size_t)> reach = [&](size_t k) {
    if (k > n) return;
    Level& level = levels[k];
    if (!level.planned) {
      level.planned = true;
      level.plan = exec::vec::PlanLevel(
          conjuncts_at[k],
          std::vector<uint32_t>(offsets.begin(), offsets.begin() + k + 1));
      for (const auto& [prev_side, cur_side] : level.plan.equi) {
        level.keys.push_back(
            term::Term::Apply(term::kEq, {prev_side, cur_side}));
      }
      for (const Row& r : *inputs[k - 1]) {
        ctx.current[k - 1] = &r;
        if (holds(level.plan.before, true)) level.right.push_back(&r);
      }
    }
    ++level.reached;
    for (const Row* r : level.right) {
      ctx.current[k - 1] = r;
      if (holds(level.keys, false) && holds(level.plan.after, true)) {
        reach(k + 1);
      }
    }
    ctx.current[k - 1] = nullptr;
  };
  for (const Row& r : *inputs[0]) {
    ctx.current[0] = &r;
    if (holds(conjuncts_at[1], true)) reach(2);
  }
  for (const Level& level : levels) {
    stats_.qual_evaluations +=
        level.plan.equi.size() * level.reached * level.right.size();
  }
}

Result<Rows> Reference::SetOp(const TermRef& t, const FixEnv& env) {
  const std::string& f = t->functor();
  const bool binary = f == lera::kDifference || f == lera::kIntersect;
  TermList input_terms;
  if (f == lera::kUnion) {
    EDS_ASSIGN_OR_RETURN(input_terms, lera::UnionInputs(t));
  } else if (t->args().size() == (binary ? 2u : 1u)) {
    input_terms = t->args();
  } else {
    return Status::InvalidArgument("malformed " + f);
  }
  std::vector<Rows> inputs;
  for (const TermRef& in : input_terms) {
    EDS_ASSIGN_OR_RETURN(Rows rows, Eval(in, env));
    for (const Rows& other : inputs) {
      if (!rows.empty() && !other.empty() &&
          rows[0].size() != other[0].size()) {
        return Status::InvalidArgument(
            f + " over inputs of widths " + std::to_string(other[0].size()) +
            " and " + std::to_string(rows[0].size()));
      }
    }
    inputs.push_back(std::move(rows));
  }
  if (!binary) {
    Rows all;
    for (Rows& in : inputs) {
      all.insert(all.end(), std::make_move_iterator(in.begin()),
                 std::make_move_iterator(in.end()));
    }
    return Distinct(std::move(all));
  }
  const Rows a = Distinct(std::move(inputs[0]));
  const Rows b = Distinct(std::move(inputs[1]));
  Rows out;
  for (const Row& row : a) {
    if (std::binary_search(b.begin(), b.end(), row, RowLess) !=
        (f == lera::kDifference)) {
      out.push_back(row);
    }
  }
  return out;
}

Result<Rows> Reference::Nest(const TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(Rows input, Eval(t->arg(0), env));
  if (!t->arg(1)->IsApply(term::kList)) {
    return Status::InvalidArgument("malformed NEST");
  }
  std::vector<size_t> nested;
  for (const TermRef& c : t->arg(1)->args()) {
    if (!c->is_constant() ||
        c->constant().kind() != value::ValueKind::kInt) {
      return Status::InvalidArgument("NEST column must be an integer");
    }
    nested.push_back(static_cast<size_t>(c->constant().AsInt()));
  }
  // Groups by the other columns, in first-seen order.
  std::map<Row, size_t, bool (*)(const Row&, const Row&)> group_of(RowLess);
  Rows keys;
  std::vector<std::vector<Value>> members;
  for (const Row& row : input) {
    Row key;
    std::vector<Value> collected;
    for (size_t i = 0; i < row.size(); ++i) {
      const bool is_nested =
          std::find(nested.begin(), nested.end(), i + 1) != nested.end();
      (is_nested ? collected : key).push_back(row[i]);
    }
    auto [it, inserted] = group_of.emplace(key, keys.size());
    if (inserted) {
      keys.push_back(std::move(key));
      members.emplace_back();
    }
    members[it->second].push_back(collected.size() == 1
                                      ? collected[0]
                                      : Value::Tuple(std::move(collected)));
  }
  Rows out;
  for (size_t g = 0; g < keys.size(); ++g) {
    out.push_back(keys[g]);
    out.back().push_back(Value::Set(std::move(members[g])));
  }
  return out;
}

Result<Rows> Reference::Unnest(const TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(Rows input, Eval(t->arg(0), env));
  if (!t->arg(1)->is_constant() ||
      t->arg(1)->constant().kind() != value::ValueKind::kInt) {
    return Status::InvalidArgument("malformed UNNEST");
  }
  const size_t col = static_cast<size_t>(t->arg(1)->constant().AsInt());
  Rows out;
  for (const Row& row : input) {
    if (col < 1 || col > row.size()) {
      return Status::RuntimeError("UNNEST column out of range");
    }
    const Value& coll = row[col - 1];
    if (!coll.is_collection()) {
      return Status::TypeError("UNNEST over non-collection value " +
                               coll.ToString());
    }
    for (const Value& elem : coll.elements()) {
      Row expanded;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i + 1 != col) {
          expanded.push_back(row[i]);
        } else if (elem.kind() == value::ValueKind::kTuple) {
          for (const Value& v : elem.tuple().values) expanded.push_back(v);
        } else {
          expanded.push_back(elem);
        }
      }
      if (!out.empty() && expanded.size() != out[0].size()) {
        return Ragged(expanded.size(), out[0].size());
      }
      out.push_back(std::move(expanded));
    }
  }
  return out;
}

Result<Rows> Reference::Fix(const TermRef& t, const FixEnv& env) {
  EDS_ASSIGN_OR_RETURN(std::string rel_name, lera::FixRelationName(t));
  EDS_ASSIGN_OR_RETURN(TermRef body, lera::FixBody(t));
  TermList recursive;
  if (options_.seminaive) {
    EDS_ASSIGN_OR_RETURN(recursive, RecursiveBranches(body, rel_name));
  }
  // The total in the order its rows were first derived, and its index.
  Rows total;
  std::set<Row, bool (*)(const Row&, const Row&)> held(RowLess);
  Rows delta;
  FixEnv inner = env;
  inner[ToUpperAscii(rel_name)] = &total;
  struct Pass {
    TermRef qual;
    TermList projections;
    std::vector<const Rows*> inputs;
  };
  std::vector<Pass> passes;
  std::list<Rows> owned;
  for (size_t round = 0;; ++round) {
    if (round >= options_.max_fix_iterations) {
      return Status::ResourceExhausted("fixpoint " + rel_name +
                                       " exceeded max iterations");
    }
    ++stats_.fix_iterations;
    // Every pass reads the total as the round found it.
    std::vector<Rows> produced;
    if (round == 0 || recursive.empty()) {
      EDS_ASSIGN_OR_RETURN(produced.emplace_back(), Eval(body, inner));
    } else {
      if (round == 1) {
        size_t scanned = 0;
        for (const TermRef& branch : recursive) {
          EDS_ASSIGN_OR_RETURN(TermList input_terms,
                               lera::SearchInputs(branch));
          Pass pass;
          EDS_ASSIGN_OR_RETURN(pass.qual, lera::SearchQual(branch));
          EDS_ASSIGN_OR_RETURN(pass.projections,
                               lera::SearchProjections(branch));
          for (const TermRef& in : input_terms) {
            EDS_ASSIGN_OR_RETURN(const Rows* rows,
                                 Input(in, inner, &owned, &scanned));
            pass.inputs.push_back(rows);
          }
          for (size_t i = 0; i < input_terms.size(); ++i) {
            if (pass.inputs[i] != &total) continue;
            Pass occurrence = pass;
            occurrence.inputs[i] = &delta;
            passes.push_back(std::move(occurrence));
          }
        }
        stats_.rows_scanned += scanned;
      }
      for (const Pass& pass : passes) {
        EDS_ASSIGN_OR_RETURN(
            produced.emplace_back(),
            SearchWithInputs(pass.qual, pass.projections, pass.inputs, 0));
      }
    }
    const size_t before = total.size();
    for (Rows& rows : produced) {
      if (rows.empty()) continue;
      if (!total.empty() && rows[0].size() != total[0].size()) {
        return Ragged(rows[0].size(), total[0].size());
      }
      for (Row& row : rows) {
        if (held.insert(row).second) total.push_back(std::move(row));
      }
    }
    const size_t fresh = total.size() - before;
    stats_.fix_tuples += fresh;
    if (fresh == 0) break;
    delta.assign(total.begin() + static_cast<std::ptrdiff_t>(before),
                 total.end());
  }
  Rows out = total;
  std::sort(out.begin(), out.end(), RowLess);
  return out;
}

}  // namespace eds::reference
