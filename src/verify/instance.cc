#include "verify/instance.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "gov/failpoint.h"
#include "lera/lera.h"
#include "lera/schema.h"
#include "term/parser.h"
#include "term/substitution.h"
#include "types/type.h"
#include "value/value.h"

namespace eds::verify {

using term::TermRef;
using value::Value;

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// VerifyEnv
// ---------------------------------------------------------------------------

Result<std::unique_ptr<VerifyEnv>> VerifyEnv::Create(uint64_t seed,
                                                     size_t random_databases) {
  auto env = std::unique_ptr<VerifyEnv>(new VerifyEnv());
  EDS_ASSIGN_OR_RETURN(types::TypeRef num,
                       env->catalog_.types().Find("NUMERIC"));
  EDS_ASSIGN_OR_RETURN(types::TypeRef chr, env->catalog_.types().Find("CHAR"));

  auto add_table = [&](const std::string& name,
                       std::vector<types::Field> cols) -> Status {
    size_t arity = cols.size();
    EDS_RETURN_IF_ERROR(env->catalog_.CreateTable({name, std::move(cols)}));
    env->table_arity_.emplace_back(name, arity);
    return Status::OK();
  };
  EDS_RETURN_IF_ERROR(add_table("V0", {{"A", num}, {"B", num}}));
  EDS_RETURN_IF_ERROR(add_table("V1", {{"A", num}, {"B", num}}));
  EDS_RETURN_IF_ERROR(add_table("V2", {{"A", num}, {"B", num}}));
  EDS_RETURN_IF_ERROR(add_table("VE", {{"A", num}, {"B", num}}));
  EDS_RETURN_IF_ERROR(add_table("VS", {{"S", chr}, {"N", num}}));
  EDS_RETURN_IF_ERROR(add_table("VEDGE", {{"SRC", num}, {"DST", num}}));
  EDS_RETURN_IF_ERROR(add_table("CLO", {{"SRC", num}, {"DST", num}}));

  using TableRows = std::vector<std::pair<std::string, exec::Rows>>;
  auto make_instance = [&](const std::string& name,
                           const TableRows& rows) -> Status {
    Instance inst;
    inst.name = name;
    inst.db = std::make_unique<exec::Database>();
    for (const auto& [tname, arity] : env->table_arity_) {
      EDS_RETURN_IF_ERROR(inst.db->CreateTable(tname, arity));
    }
    for (const auto& [tname, trows] : rows) {
      EDS_ASSIGN_OR_RETURN(exec::Table * t, inst.db->GetTable(tname));
      for (const exec::Row& r : trows) {
        EDS_RETURN_IF_ERROR(t->Insert(r));
      }
    }
    env->instances_.push_back(std::move(inst));
    return Status::OK();
  };
  auto I = [](int64_t v) { return Value::Int(v); };
  auto S = [](const char* v) { return Value::String(v); };
  auto N = []() { return Value::Null(); };

  // VE and CLO stay empty in every instance by construction.
  EDS_RETURN_IF_ERROR(make_instance(
      "base", {{"V0", {{I(1), I(2)}, {I(2), I(3)}, {I(3), I(1)}}},
               {"V1", {{I(1), I(1)}, {I(2), I(2)}}},
               {"V2", {{I(0), I(1)}, {I(2), I(5)}}},
               {"VS", {{S("a"), I(1)}, {S("b"), I(2)}}},
               {"VEDGE", {{I(1), I(2)}, {I(2), I(3)}, {I(3), I(4)}}}}));
  EDS_RETURN_IF_ERROR(make_instance(
      "dups",
      {{"V0", {{I(1), I(2)}, {I(1), I(2)}, {I(2), I(3)}, {I(3), I(1)}}},
       {"V1", {{I(1), I(1)}, {I(1), I(1)}, {I(2), I(2)}}},
       {"V2", {{I(0), I(1)}, {I(0), I(1)}, {I(2), I(5)}}},
       {"VS", {{S("a"), I(1)}, {S("a"), I(1)}, {S("b"), I(2)}}},
       {"VEDGE", {{I(1), I(2)}, {I(1), I(2)}, {I(2), I(3)}}}}));
  EDS_RETURN_IF_ERROR(make_instance(
      "nulls", {{"V0", {{I(1), N()}, {N(), I(2)}, {I(3), I(1)}}},
                {"V1", {{I(1), N()}, {I(2), I(2)}}},
                {"V2", {{N(), N()}, {I(2), I(5)}}},
                {"VS", {{N(), I(1)}, {S("b"), N()}}},
                {"VEDGE", {{I(1), I(2)}, {I(2), N()}}}}));
  EDS_RETURN_IF_ERROR(make_instance("empty", {}));

  for (size_t r = 0; r < random_databases; ++r) {
    uint64_t state = seed ^ (0xabcdef12345ULL + 77 * r);
    TableRows rows;
    for (const auto& [tname, arity] : env->table_arity_) {
      if (tname == "VE" || tname == "CLO") continue;
      size_t nrows = SplitMix64(&state) % 5;
      exec::Rows trows;
      for (size_t i = 0; i < nrows; ++i) {
        exec::Row row;
        for (size_t c = 0; c < arity; ++c) {
          bool is_null = SplitMix64(&state) % 8 == 0;
          if (is_null) {
            row.push_back(N());
          } else if (tname == "VS" && c == 0) {
            static const char* kStrs[] = {"a", "b", "c", ""};
            row.push_back(S(kStrs[SplitMix64(&state) % 4]));
          } else {
            row.push_back(I(static_cast<int64_t>(SplitMix64(&state) % 5) - 1));
          }
        }
        trows.push_back(std::move(row));
      }
      rows.emplace_back(tname, std::move(trows));
    }
    EDS_RETURN_IF_ERROR(make_instance("rand" + std::to_string(r), rows));
  }
  return env;
}

VerifyEnv::Snapshot VerifyEnv::SnapshotOf(size_t instance_index) const {
  Snapshot snap;
  if (instance_index >= instances_.size()) return snap;
  const Instance& inst = instances_[instance_index];
  for (const auto& [tname, arity] : table_arity_) {
    (void)arity;
    auto t = inst.db->GetTable(tname);
    snap.tables.emplace_back(tname,
                             t.ok() ? (*t)->batch().ToRows() : exec::Rows{});
  }
  return snap;
}

Result<std::unique_ptr<exec::Database>> VerifyEnv::Materialize(
    const Snapshot& snap) const {
  auto db = std::make_unique<exec::Database>();
  for (const auto& [tname, arity] : table_arity_) {
    EDS_RETURN_IF_ERROR(db->CreateTable(tname, arity));
  }
  for (const auto& [tname, trows] : snap.tables) {
    EDS_ASSIGN_OR_RETURN(exec::Table * t, db->GetTable(tname));
    for (const exec::Row& r : trows) {
      EDS_RETURN_IF_ERROR(t->Insert(r));
    }
  }
  return db;
}

std::string VerifyEnv::Describe(const Snapshot& snap,
                                size_t max_rows_per_table) {
  std::ostringstream out;
  bool first_table = true;
  for (const auto& [tname, trows] : snap.tables) {
    if (trows.empty()) continue;
    if (!first_table) out << "\n";
    first_table = false;
    out << tname << ":";
    size_t shown = std::min(trows.size(), max_rows_per_table);
    for (size_t i = 0; i < shown; ++i) {
      out << (i == 0 ? " " : ", ") << "(";
      for (size_t j = 0; j < trows[i].size(); ++j) {
        if (j > 0) out << ", ";
        out << trows[i][j].ToString();
      }
      out << ")";
    }
    if (trows.size() > shown) {
      out << " +" << (trows.size() - shown) << " more";
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Strict plan type checking
// ---------------------------------------------------------------------------

namespace {

// The coarse value-kind lattice the executor's function library enforces.
enum class EKind { kBool, kNum, kStr, kOther, kAny };

EKind KindOfType(const types::TypeRef& t) {
  switch (t->kind()) {
    case types::TypeKind::kBool: return EKind::kBool;
    case types::TypeKind::kInt:
    case types::TypeKind::kReal:
    case types::TypeKind::kNumeric: return EKind::kNum;
    case types::TypeKind::kChar:
    case types::TypeKind::kEnumeration: return EKind::kStr;
    case types::TypeKind::kAny: return EKind::kAny;
    default: return EKind::kOther;
  }
}

bool IsLogical(const std::string& f) {
  return f == term::kAnd || f == term::kOr || f == term::kNot;
}

bool IsComparison(const std::string& f) {
  return f == term::kEq || f == term::kNe || f == term::kLt ||
         f == term::kLe || f == term::kGt || f == term::kGe;
}

bool IsArithmetic(const std::string& f) {
  return f == "ADD" || f == "SUB" || f == "MUL" || f == "DIV" || f == "MOD" ||
         f == "NEG" || f == "ABS";
}

Result<EKind> StrictExprKind(const TermRef& e,
                             const std::vector<lera::Schema>& schemas) {
  if (e->is_constant()) {
    const Value& v = e->constant();
    if (v.is_null()) return EKind::kAny;
    switch (v.kind()) {
      case value::ValueKind::kBool: return EKind::kBool;
      case value::ValueKind::kInt:
      case value::ValueKind::kReal: return EKind::kNum;
      case value::ValueKind::kString: return EKind::kStr;
      default: return EKind::kOther;
    }
  }
  if (e->is_variable() || e->is_collection_variable()) {
    return Status::TypeError("unbound rule variable in concrete plan: " +
                             e->ToString());
  }
  const std::string& f = e->functor();
  if (lera::IsAttr(e)) {
    EDS_ASSIGN_OR_RETURN(lera::AttrRef a, lera::GetAttr(e));
    if (a.input < 1 || static_cast<size_t>(a.input) > schemas.size()) {
      return Status::TypeError("ATTR input out of range: " + e->ToString());
    }
    const lera::Schema& s = schemas[a.input - 1];
    if (a.column < 1 || static_cast<size_t>(a.column) > s.size()) {
      return Status::TypeError("ATTR column out of range: " + e->ToString());
    }
    return KindOfType(s[a.column - 1].type);
  }
  auto require = [&](EKind want, const char* what) -> Status {
    for (const TermRef& a : e->args()) {
      EDS_ASSIGN_OR_RETURN(EKind k, StrictExprKind(a, schemas));
      if (k != want && k != EKind::kAny) {
        return Status::TypeError(std::string(f) + ": " + what +
                                 " operand required: " + e->ToString());
      }
    }
    return Status::OK();
  };
  if (IsLogical(f)) {
    EDS_RETURN_IF_ERROR(require(EKind::kBool, "boolean"));
    return EKind::kBool;
  }
  if (IsComparison(f)) {
    // Compare is total over values; only the operands must themselves type.
    for (const TermRef& a : e->args()) {
      EDS_RETURN_IF_ERROR(StrictExprKind(a, schemas).status());
    }
    return EKind::kBool;
  }
  if (IsArithmetic(f)) {
    EDS_RETURN_IF_ERROR(require(EKind::kNum, "numeric"));
    return EKind::kNum;
  }
  if (f == "CONCAT" || f == "UPPER" || f == "LOWER") {
    EDS_RETURN_IF_ERROR(require(EKind::kStr, "string"));
    return EKind::kStr;
  }
  if (f == "LENGTH" && e->arity() == 1) {
    EDS_ASSIGN_OR_RETURN(EKind k, StrictExprKind(e->arg(0), schemas));
    if (k != EKind::kStr && k != EKind::kOther && k != EKind::kAny) {
      return Status::TypeError("LENGTH: string or collection required: " +
                               e->ToString());
    }
    return EKind::kNum;
  }
  if (f == "MEMBER" || f == "INCLUDE" || f == "ISEMPTY") {
    for (const TermRef& a : e->args()) {
      EDS_RETURN_IF_ERROR(StrictExprKind(a, schemas).status());
    }
    return EKind::kBool;
  }
  if (f == term::kList || f == term::kSet || f == "BAG" || f == term::kTuple) {
    for (const TermRef& a : e->args()) {
      EDS_RETURN_IF_ERROR(StrictExprKind(a, schemas).status());
    }
    return EKind::kOther;
  }
  // Unknown function: operands must at least be self-consistent; the result
  // kind is unknown.
  for (const TermRef& a : e->args()) {
    EDS_RETURN_IF_ERROR(StrictExprKind(a, schemas).status());
  }
  return EKind::kAny;
}

Status CheckExpr(const TermRef& expr, const std::vector<lera::Schema>& schemas,
                 const catalog::Catalog& cat, const lera::SchemaEnv* env,
                 bool require_bool) {
  // InferExprType first: it knows FIELD/VALUE/quantifiers and the catalog's
  // ADT functions, and rejects out-of-range ATTRs with good messages.
  EDS_RETURN_IF_ERROR(
      lera::InferExprType(expr, schemas, cat, nullptr, env).status());
  EDS_ASSIGN_OR_RETURN(EKind k, StrictExprKind(expr, schemas));
  if (require_bool && k != EKind::kBool && k != EKind::kAny) {
    return Status::TypeError("qualification is not boolean: " +
                             expr->ToString());
  }
  return Status::OK();
}

// `env` binds FIX relation names met on the way down: rewrite passes invent
// fresh closure names (ALEXANDER's CLO#M, say) that no catalog knows, so
// schema lookups inside a FIX body only resolve through this environment.
// Results are env-dependent, hence no SchemaMemo on this path — the plans
// are a few nodes deep.
Status CheckPlanExprs(const TermRef& t, const catalog::Catalog& cat,
                      const lera::SchemaEnv* env) {
  if (!t->is_apply()) return Status::OK();
  const std::string& f = t->functor();
  auto schema_of = [&](const TermRef& r) {
    return lera::InferSchema(r, cat, env);
  };
  if (f == lera::kSearch && t->arity() == 3 && t->arg(0)->is_apply() &&
      t->arg(0)->functor() == term::kList) {
    std::vector<lera::Schema> ss;
    for (const TermRef& in : t->arg(0)->args()) {
      EDS_ASSIGN_OR_RETURN(lera::Schema s, schema_of(in));
      ss.push_back(std::move(s));
    }
    EDS_RETURN_IF_ERROR(
        CheckExpr(t->arg(1), ss, cat, env, /*require_bool=*/true));
    if (t->arg(2)->is_apply() && t->arg(2)->functor() == term::kList) {
      for (const TermRef& p : t->arg(2)->args()) {
        EDS_RETURN_IF_ERROR(CheckExpr(p, ss, cat, env, /*require_bool=*/false));
      }
    }
    for (const TermRef& in : t->arg(0)->args()) {
      EDS_RETURN_IF_ERROR(CheckPlanExprs(in, cat, env));
    }
    return Status::OK();
  }
  if (f == lera::kFilter && t->arity() == 2) {
    EDS_ASSIGN_OR_RETURN(lera::Schema s, schema_of(t->arg(0)));
    EDS_RETURN_IF_ERROR(
        CheckExpr(t->arg(1), {s}, cat, env, /*require_bool=*/true));
    return CheckPlanExprs(t->arg(0), cat, env);
  }
  if (f == lera::kProject && t->arity() == 2 && t->arg(1)->is_apply() &&
      t->arg(1)->functor() == term::kList) {
    EDS_ASSIGN_OR_RETURN(lera::Schema s, schema_of(t->arg(0)));
    for (const TermRef& p : t->arg(1)->args()) {
      EDS_RETURN_IF_ERROR(CheckExpr(p, {s}, cat, env, /*require_bool=*/false));
    }
    return CheckPlanExprs(t->arg(0), cat, env);
  }
  if (f == lera::kJoin && t->arity() == 3) {
    EDS_ASSIGN_OR_RETURN(lera::Schema s0, schema_of(t->arg(0)));
    EDS_ASSIGN_OR_RETURN(lera::Schema s1, schema_of(t->arg(1)));
    EDS_RETURN_IF_ERROR(
        CheckExpr(t->arg(2), {s0, s1}, cat, env, /*require_bool=*/true));
    EDS_RETURN_IF_ERROR(CheckPlanExprs(t->arg(0), cat, env));
    return CheckPlanExprs(t->arg(1), cat, env);
  }
  if (f == lera::kFix && t->arity() == 2) {
    EDS_ASSIGN_OR_RETURN(std::string name, lera::FixRelationName(t));
    EDS_ASSIGN_OR_RETURN(lera::Schema s, schema_of(t));
    lera::SchemaEnv extended = env != nullptr ? *env : lera::SchemaEnv{};
    extended[ToUpperAscii(name)] = std::move(s);
    return CheckPlanExprs(t->arg(1), cat, &extended);
  }
  for (const TermRef& a : t->args()) {
    EDS_RETURN_IF_ERROR(CheckPlanExprs(a, cat, env));
  }
  return Status::OK();
}

}  // namespace

Status TypeCheckPlan(const TermRef& plan, const catalog::Catalog& cat) {
  EDS_RETURN_IF_ERROR(lera::Validate(plan));
  EDS_RETURN_IF_ERROR(lera::InferSchema(plan, cat).status());
  return CheckPlanExprs(plan, cat, nullptr);
}

// ---------------------------------------------------------------------------
// Instantiator
// ---------------------------------------------------------------------------

namespace {

// Grammatical category of a variable position in a rule pattern.
enum class Sort {
  kRel,            // a relational operand
  kRelListWhole,   // a whole LIST(...) of relational inputs
  kRelSetWhole,    // a whole SET(...) of UNION branches
  kQual,           // a boolean qualification
  kScalar,         // a projection / scalar expression
  kStr,            // a string scalar
  kInt,            // a small integer (column indexes etc.)
  kName,           // a relation / column name constant
  kProjListWhole,  // a whole projection LIST(...)
  kNestColsWhole,  // a whole NEST column-index LIST(...)
  kFixRel,         // the RELATION(...) head of a FIX
  kFixBody,        // the recursive body of a FIX
};

struct SortMap {
  std::unordered_map<std::string, Sort> vars;
  std::unordered_map<std::string, Sort> coll_vars;  // element sort
};

enum class RootClass { kRelational, kQual, kScalar };

struct FnChoice {
  const char* name;
  Sort arg_sort;
  bool boolean_result;
};

using FnMap = std::unordered_map<std::string, FnChoice>;

void CollectFunctorVars(const TermRef& t,
                        std::vector<std::pair<std::string, size_t>>* out,
                        std::unordered_set<std::string>* seen) {
  if (!t->is_apply()) return;
  const std::string& f = t->functor();
  if (!f.empty() && f[0] == '?' && seen->insert(f).second) {
    out->emplace_back(f, t->arity());
  }
  for (const TermRef& a : t->args()) CollectFunctorVars(a, out, seen);
}

void AssignSorts(const TermRef& t, Sort self, const FnMap& fns, SortMap* out);

// Pre-pass: pin the sorts of variables appearing directly under a functor
// variable before the general walk, so `?P(x) AND (x = y)` gives x (and,
// through comparison unification, y) the sort ?P's chosen function expects
// regardless of which conjunct the walk reaches first.
void AssignFunctorArgSorts(const TermRef& t, const FnMap& fns, SortMap* out) {
  if (!t->is_apply()) return;
  const std::string& f = t->functor();
  if (!f.empty() && f[0] == '?') {
    auto it = fns.find(f);
    Sort as = it != fns.end() ? it->second.arg_sort : Sort::kScalar;
    for (const TermRef& a : t->args()) {
      if (a->is_variable()) out->vars.emplace(a->functor(), as);
    }
  }
  for (const TermRef& a : t->args()) AssignFunctorArgSorts(a, fns, out);
}

void RecordListChildren(const TermRef& t, Sort elem, Sort whole,
                        const FnMap& fns, SortMap* out) {
  if (t->is_variable()) {
    out->vars.emplace(t->functor(), whole);
    return;
  }
  if (t->is_apply() &&
      (t->functor() == term::kList || t->functor() == term::kSet)) {
    for (const TermRef& c : t->args()) {
      if (c->is_collection_variable()) {
        out->coll_vars.emplace(c->functor(), elem);
      } else {
        AssignSorts(c, elem, fns, out);
      }
    }
    return;
  }
  AssignSorts(t, elem, fns, out);
}

void AssignSorts(const TermRef& t, Sort self, const FnMap& fns,
                 SortMap* out) {
  if (t->is_variable()) {
    out->vars.emplace(t->functor(), self);  // first occurrence wins
    return;
  }
  if (t->is_collection_variable()) {
    out->coll_vars.emplace(t->functor(), self);
    return;
  }
  if (!t->is_apply()) return;
  const std::string& f = t->functor();
  auto walk = [&](size_t i, Sort s) { AssignSorts(t->arg(i), s, fns, out); };
  if (!f.empty() && f[0] == '?') {
    auto it = fns.find(f);
    Sort as = it != fns.end() ? it->second.arg_sort : Sort::kScalar;
    for (const TermRef& a : t->args()) AssignSorts(a, as, fns, out);
    return;
  }
  if (f == lera::kSearch && t->arity() == 3) {
    RecordListChildren(t->arg(0), Sort::kRel, Sort::kRelListWhole, fns, out);
    walk(1, Sort::kQual);
    RecordListChildren(t->arg(2), Sort::kScalar, Sort::kProjListWhole, fns,
                       out);
    return;
  }
  if (f == lera::kFilter && t->arity() == 2) {
    walk(0, Sort::kRel);
    walk(1, Sort::kQual);
    return;
  }
  if (f == lera::kProject && t->arity() == 2) {
    walk(0, Sort::kRel);
    RecordListChildren(t->arg(1), Sort::kScalar, Sort::kProjListWhole, fns,
                       out);
    return;
  }
  if (f == lera::kJoin && t->arity() == 3) {
    walk(0, Sort::kRel);
    walk(1, Sort::kRel);
    walk(2, Sort::kQual);
    return;
  }
  if (f == lera::kUnion && t->arity() == 1) {
    RecordListChildren(t->arg(0), Sort::kRel, Sort::kRelSetWhole, fns, out);
    return;
  }
  if ((f == lera::kDifference || f == lera::kIntersect) && t->arity() == 2) {
    walk(0, Sort::kRel);
    walk(1, Sort::kRel);
    return;
  }
  if (f == lera::kDedup && t->arity() == 1) {
    walk(0, Sort::kRel);
    return;
  }
  if (f == lera::kFix && t->arity() == 2) {
    if (t->arg(0)->is_variable()) {
      out->vars.emplace(t->arg(0)->functor(), Sort::kFixRel);
    } else {
      walk(0, Sort::kRel);
    }
    if (t->arg(1)->is_variable()) {
      out->vars.emplace(t->arg(1)->functor(), Sort::kFixBody);
    } else {
      walk(1, Sort::kRel);
    }
    return;
  }
  if (f == term::kRelation && t->arity() == 1) {
    if (t->arg(0)->is_variable()) {
      out->vars.emplace(t->arg(0)->functor(), Sort::kName);
    }
    return;
  }
  if (f == lera::kNest && t->arity() == 3) {
    walk(0, Sort::kRel);
    RecordListChildren(t->arg(1), Sort::kInt, Sort::kNestColsWhole, fns, out);
    if (t->arg(2)->is_variable()) {
      out->vars.emplace(t->arg(2)->functor(), Sort::kName);
    }
    return;
  }
  if (f == lera::kUnnest && t->arity() == 2) {
    walk(0, Sort::kRel);
    walk(1, Sort::kInt);
    return;
  }
  if (lera::IsAttr(t)) return;
  if (IsLogical(f)) {
    for (const TermRef& a : t->args()) AssignSorts(a, Sort::kQual, fns, out);
    return;
  }
  if (IsComparison(f)) {
    // Two bare variables compared for equality must instantiate at the same
    // kind: reuse whichever sort is already pinned (typically by the
    // functor-variable pre-pass) for the other side.
    if (t->arity() == 2 && t->arg(0)->is_variable() &&
        t->arg(1)->is_variable()) {
      Sort s = Sort::kScalar;
      auto i0 = out->vars.find(t->arg(0)->functor());
      auto i1 = out->vars.find(t->arg(1)->functor());
      if (i0 != out->vars.end()) {
        s = i0->second;
      } else if (i1 != out->vars.end()) {
        s = i1->second;
      }
      out->vars.emplace(t->arg(0)->functor(), s);
      out->vars.emplace(t->arg(1)->functor(), s);
      return;
    }
    for (const TermRef& a : t->args()) AssignSorts(a, Sort::kScalar, fns, out);
    return;
  }
  if (IsArithmetic(f)) {
    for (const TermRef& a : t->args()) AssignSorts(a, Sort::kScalar, fns, out);
    return;
  }
  if (f == "CONCAT" || f == "UPPER" || f == "LOWER" || f == "LENGTH") {
    for (const TermRef& a : t->args()) AssignSorts(a, Sort::kStr, fns, out);
    return;
  }
  // MEMBER/INCLUDE, collection literals, unknown functions: scalars.
  for (const TermRef& a : t->args()) {
    if (a->is_collection_variable()) {
      out->coll_vars.emplace(a->functor(), Sort::kScalar);
    } else {
      AssignSorts(a, Sort::kScalar, fns, out);
    }
  }
}

RootClass ClassifyRoot(const TermRef& lhs, const FnMap& fns, SortMap* sorts) {
  if (lhs->is_variable()) {
    sorts->vars.emplace(lhs->functor(), Sort::kRel);
    return RootClass::kRelational;
  }
  if (lhs->is_constant()) {
    return lhs->constant().kind() == value::ValueKind::kBool
               ? RootClass::kQual
               : RootClass::kScalar;
  }
  if (!lhs->is_apply()) return RootClass::kScalar;
  const std::string& f = lhs->functor();
  if (!f.empty() && f[0] == '?') {
    auto it = fns.find(f);
    return (it != fns.end() && it->second.boolean_result) ? RootClass::kQual
                                                          : RootClass::kScalar;
  }
  if (lera::IsRelationalOp(lhs)) return RootClass::kRelational;
  if (IsLogical(f) || IsComparison(f) || f == "MEMBER" || f == "INCLUDE" ||
      f == "ISEMPTY" || f == "EXISTS" || f == "FORALL") {
    return RootClass::kQual;
  }
  return RootClass::kScalar;
}

TermRef WrapSubject(const TermRef& subject, RootClass rc) {
  using term::Term;
  switch (rc) {
    case RootClass::kRelational:
      return subject;
    case RootClass::kQual:
      return Term::Apply(
          lera::kSearch,
          {Term::List({Term::Relation("V0")}), subject,
           Term::List({Term::Attr(1, 1), Term::Attr(1, 2)})});
    case RootClass::kScalar:
      return Term::Apply(lera::kSearch,
                         {Term::List({Term::Relation("V0")}), Term::True(),
                          Term::List({subject, Term::Attr(1, 1)})});
  }
  return subject;
}

}  // namespace

// The ground pool terms each sort draws from. Order matters: the
// deterministic sweep starts at the front, so the most selective /
// discriminating entries go first and degenerate ones (TRUE, empty) last.
struct Instantiator::Pools {
  std::vector<TermRef> rel, rel_list, rel_set, qual, scalar, str, ints, name,
      proj_list, nest_cols, fix_rel, fix_body;
  std::vector<FnChoice> unary, binary;

  const std::vector<TermRef>& For(Sort s) const {
    switch (s) {
      case Sort::kRel: return rel;
      case Sort::kRelListWhole: return rel_list;
      case Sort::kRelSetWhole: return rel_set;
      case Sort::kQual: return qual;
      case Sort::kScalar: return scalar;
      case Sort::kStr: return str;
      case Sort::kInt: return ints;
      case Sort::kName: return name;
      case Sort::kProjListWhole: return proj_list;
      case Sort::kNestColsWhole: return nest_cols;
      case Sort::kFixRel: return fix_rel;
      case Sort::kFixBody: return fix_body;
    }
    return scalar;
  }
};

Instantiator::Instantiator(const VerifyEnv* env, uint64_t seed)
    : env_(env), seed_(seed) {
  auto pools = std::make_shared<Pools>();
  auto parse_into = [](std::vector<TermRef>* out,
                       std::initializer_list<const char*> texts) {
    for (const char* text : texts) {
      auto t = term::ParseTerm(text);
      if (t.ok()) out->push_back(*t);
    }
  };
  // Transitive closure of VEDGE: the canonical FIX instance. CLO is declared
  // in the catalog (stored empty) so the recursive reference schema-checks.
  static const char* kClosureBody =
      "UNION(SET(RELATION('VEDGE'), "
      "SEARCH(LIST(RELATION('CLO'), RELATION('VEDGE')), ($1.2 = $2.1), "
      "LIST($1.1, $2.2))))";
  static const std::string kClosure =
      std::string("FIX(RELATION('CLO'), ") + kClosureBody + ")";
  parse_into(&pools->rel,
             {"RELATION('V0')", "RELATION('V1')", "RELATION('V2')",
              "SEARCH(LIST(RELATION('V0')), ($1.1 < 2), LIST($1.1, $1.2))",
              "PROJECT(RELATION('V0'), LIST($1.2, $1.1))",
              "UNION(SET(RELATION('V0'), RELATION('V1')))",
              "DEDUP(RELATION('V1'))", "RELATION('VE')",
              "SEARCH(LIST(RELATION('V0'), RELATION('V1')), ($1.1 = $2.1), "
              "LIST($1.2, $2.2))",
              kClosure.c_str()});
  parse_into(&pools->rel_list,
             {"LIST(RELATION('V0'))", "LIST(RELATION('V0'), RELATION('V1'))",
              "LIST(RELATION('V2'))"});
  parse_into(&pools->rel_set,
             {"SET(RELATION('V0'), RELATION('V1'))", "SET(RELATION('V2'))"});
  parse_into(&pools->qual,
             {"($1.1 = 1)", "($1.1 < $1.2)", "($1.1 = $1.2)",
              // Duplicate and constant-foldable conjuncts: the shapes
              // SIMPLIFY_QUAL-style semantic methods act on. Kept early so
              // the deterministic sweep reaches them before the instance cap.
              "(($1.1 = 1) AND ($1.1 = 1))", "((1 = 1) AND ($1.2 > 0))",
              "(($1.1 = $1.2) AND ($1.2 = 1))", "(($1.1 = 1) OR ($1.2 = 2))",
              "NOT ($1.1 = $1.2)", "(($1.1 < 2) AND ($1.2 > 0))",
              "(($1.1 = $1.1) AND ($1.2 > 0))", "($1.2 >= 1)", "TRUE"});
  parse_into(&pools->scalar, {"$1.1", "$1.2", "1", "0", "($1.1 + $1.2)",
                              "($1.1 - 1)", "TRUE", "2"});
  parse_into(&pools->str, {"'a'", "'b'", "''"});
  parse_into(&pools->ints, {"1", "2"});
  parse_into(&pools->name, {"'V0'", "'V1'"});
  parse_into(&pools->proj_list,
             {"LIST($1.1, $1.2)", "LIST($1.2, $1.1)", "LIST($1.1)",
              "LIST($1.1, $1.1)", "LIST(($1.1 + $1.2))"});
  parse_into(&pools->nest_cols, {"LIST(2)", "LIST(1)"});
  parse_into(&pools->fix_rel, {"RELATION('CLO')"});
  parse_into(&pools->fix_body, {kClosureBody});
  pools->unary = {{"NEG", Sort::kScalar, false},
                  {"ABS", Sort::kScalar, false},
                  {"NOT", Sort::kQual, true},
                  {"LENGTH", Sort::kStr, false}};
  pools->binary = {{"ADD", Sort::kScalar, false},
                   {"SUB", Sort::kScalar, false},
                   {"MUL", Sort::kScalar, false},
                   {"EQ", Sort::kScalar, true},
                   {"LT", Sort::kScalar, true},
                   {"LE", Sort::kScalar, true},
                   {"CONCAT", Sort::kStr, false}};
  pools_ = std::move(pools);
}

Status Instantiator::Generate(const rewrite::Rule& rule, size_t max_instances,
                              std::vector<RuleInstance>* out) {
  EDS_FAIL_POINT("verify.instance");
  const TermRef& lhs = rule.lhs;
  if (lhs == nullptr) {
    return Status::InvalidArgument("rule has no left-hand side");
  }
  std::vector<std::pair<std::string, size_t>> fn_vars;
  {
    std::unordered_set<std::string> seen_fns;
    CollectFunctorVars(lhs, &fn_vars, &seen_fns);
  }
  for (const auto& [name, arity] : fn_vars) {
    (void)name;
    if (arity < 1 || arity > 2) return Status::OK();  // no pool to draw from
  }
  std::vector<std::string> vars, coll_vars;
  term::CollectVariables(lhs, &vars, &coll_vars);

  std::unordered_set<uint64_t> seen;
  const size_t kDeterministicAttempts = 32;
  size_t attempt_budget = kDeterministicAttempts + max_instances * 6;
  for (size_t attempt = 0;
       attempt < attempt_budget && out->size() < max_instances; ++attempt) {
    bool random_phase = attempt >= kDeterministicAttempts;
    uint64_t rng =
        seed_ ^ Fnv1a(rule.name) ^ (0x9e3779b97f4a7c15ULL * (attempt + 1));
    uint64_t det = attempt;
    auto draw = [&](size_t radix) -> size_t {
      if (radix <= 1) return 0;
      if (random_phase) return SplitMix64(&rng) % radix;
      size_t d = det % radix;
      det /= radix;
      return d;
    };

    FnMap fns;
    for (const auto& [name, arity] : fn_vars) {
      const auto& pool = arity == 1 ? pools_->unary : pools_->binary;
      fns[name] = pool[draw(pool.size())];
    }
    SortMap sorts;
    RootClass rc = ClassifyRoot(lhs, fns, &sorts);
    AssignFunctorArgSorts(lhs, fns, &sorts);
    AssignSorts(lhs, Sort::kRel, fns, &sorts);

    term::Bindings env;
    for (const auto& [name, fn] : fns) {
      env.SetVar(name, term::Term::Str(fn.name));
    }
    bool viable = true;
    for (const std::string& v : vars) {
      // '?'-prefixed names are functor variables: already bound to a
      // function name above, never to a pool term.
      if (!v.empty() && v[0] == '?') continue;
      auto it = sorts.vars.find(v);
      Sort s = it != sorts.vars.end() ? it->second : Sort::kScalar;
      const auto& pool = pools_->For(s);
      if (pool.empty()) {
        viable = false;
        break;
      }
      env.SetVar(v, pool[draw(pool.size())]);
    }
    if (!viable) continue;
    for (const std::string& cv : coll_vars) {
      auto it = sorts.coll_vars.find(cv);
      Sort s = it != sorts.coll_vars.end() ? it->second : Sort::kScalar;
      const auto& pool = pools_->For(s);
      if (pool.empty()) {
        viable = false;
        break;
      }
      size_t len = draw(3);  // 0, 1 or 2 spliced elements
      size_t start = draw(pool.size());
      term::TermList elems;
      for (size_t j = 0; j < len; ++j) {
        elems.push_back(pool[(start + j) % pool.size()]);
      }
      env.SetCollVar(cv, std::move(elems));
    }
    if (!viable) continue;

    auto subst = term::ApplySubstitution(lhs, env);
    if (!subst.ok()) continue;
    TermRef subject = *subst;
    if (!term::IsGround(subject)) continue;
    TermRef plan = WrapSubject(subject, rc);
    if (!seen.insert(term::Hash(plan)).second) continue;
    if (!TypeCheckPlan(plan, env_->catalog()).ok()) continue;
    out->push_back({subject, plan, env.ToString()});
  }
  return Status::OK();
}

}  // namespace eds::verify
