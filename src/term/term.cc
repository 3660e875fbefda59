#include "term/term.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/strings.h"
#include "term/interner.h"

namespace eds::term {

namespace {

// Maps canonical functors to their infix spelling for printing.
const std::map<std::string, std::string>& InfixOps() {
  static const auto* ops = new std::map<std::string, std::string>{
      {kEq, "="},   {kNe, "<>"},  {kLt, "<"},  {kLe, "<="},
      {kGt, ">"},   {kGe, ">="},  {kAnd, "AND"}, {kOr, "OR"},
      {"ADD", "+"}, {"SUB", "-"}, {"MUL", "*"},  {"DIV", "/"},
  };
  return *ops;
}

}  // namespace

TermRef Term::Constant(value::Value v) {
  return Interner::Global().Intern(TermKind::kConstant, std::move(v), {}, {});
}

TermRef Term::Int(int64_t i) { return Constant(value::Value::Int(i)); }
TermRef Term::Real(double d) { return Constant(value::Value::Real(d)); }
TermRef Term::Str(std::string s) {
  return Constant(value::Value::String(std::move(s)));
}
TermRef Term::Bool(bool b) { return Constant(value::Value::Bool(b)); }

TermRef Term::Var(std::string name) {
  return Interner::Global().Intern(TermKind::kVariable, {}, std::move(name),
                                   {});
}

TermRef Term::CollVar(std::string name) {
  return Interner::Global().Intern(TermKind::kCollectionVariable, {},
                                   std::move(name), {});
}

TermRef Term::Apply(std::string functor, TermList args) {
  return Interner::Global().Intern(TermKind::kApply, {},
                                   ToUpperAscii(std::move(functor)),
                                   std::move(args));
}

TermRef Term::And(TermRef a, TermRef b) {
  return Apply(kAnd, {std::move(a), std::move(b)});
}
TermRef Term::Or(TermRef a, TermRef b) {
  return Apply(kOr, {std::move(a), std::move(b)});
}
TermRef Term::Not(TermRef a) { return Apply(kNot, {std::move(a)}); }
TermRef Term::Eq(TermRef a, TermRef b) {
  return Apply(kEq, {std::move(a), std::move(b)});
}
TermRef Term::Attr(int64_t rel, int64_t attr) {
  return Apply(kAttr, {Int(rel), Int(attr)});
}
TermRef Term::Relation(std::string name) {
  return Apply(kRelation, {Str(std::move(name))});
}

bool Equals(const TermRef& a, const TermRef& b) {
  if (a.get() == b.get()) return true;
  if (a == nullptr || b == nullptr) return false;
  // Hash-consing makes the pointer compare above the common success path
  // and the cached-hash compare the common failure path. Distinct nodes
  // with equal hashes (value-equivalent constants such as 2 vs 2.0, which
  // intern separately by exact payload, or true collisions) still need the
  // structural walk.
  if (a->structural_hash() != b->structural_hash()) return false;
  return DeepEquals(a, b);
}

bool DeepEquals(const TermRef& a, const TermRef& b) {
  if (a.get() == b.get()) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case TermKind::kConstant:
      return value::Compare(a->constant(), b->constant()) == 0;
    case TermKind::kVariable:
    case TermKind::kCollectionVariable:
      return a->var_name() == b->var_name();
    case TermKind::kApply: {
      if (a->functor() != b->functor() || a->arity() != b->arity()) {
        return false;
      }
      for (size_t i = 0; i < a->arity(); ++i) {
        if (!Equals(a->arg(i), b->arg(i))) return false;
      }
      return true;
    }
  }
  return false;
}

int Compare(const TermRef& a, const TermRef& b) {
  if (a.get() == b.get()) return 0;
  if (a == nullptr || b == nullptr) return a == nullptr ? -1 : 1;
  if (a->kind() != b->kind()) {
    return static_cast<int>(a->kind()) < static_cast<int>(b->kind()) ? -1 : 1;
  }
  switch (a->kind()) {
    case TermKind::kConstant:
      return value::Compare(a->constant(), b->constant());
    case TermKind::kVariable:
    case TermKind::kCollectionVariable: {
      int c = a->var_name().compare(b->var_name());
      return c < 0 ? -1 : (c == 0 ? 0 : 1);
    }
    case TermKind::kApply: {
      int c = a->functor().compare(b->functor());
      if (c != 0) return c < 0 ? -1 : 1;
      size_t n = std::min(a->arity(), b->arity());
      for (size_t i = 0; i < n; ++i) {
        int ci = Compare(a->arg(i), b->arg(i));
        if (ci != 0) return ci;
      }
      if (a->arity() != b->arity()) return a->arity() < b->arity() ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

inline void Mix(uint64_t* h, uint64_t x) {
  *h ^= x;
  *h *= kFnvPrime;
}

// Mix for a whole hash word (a child's or an element's hash). FNV is a
// byte-wise hash: fed words whose differences are structured, such as the
// hashes of ATTR($1.1) and ATTR($1.2), its xor-multiply step lets those
// differences cancel, and lists of seven such children already collided.
// The splitmix64 finalizer spreads each word over all 64 bits first.
inline void MixWord(uint64_t* h, uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  Mix(h, x);
}

}  // namespace

namespace internal {

// Hashes a constant payload consistently with value::Compare's equivalence
// classes: kInt and kReal both hash through the widened double (so 2 and
// 2.0 collide, as Compare demands), -0.0 collapses to +0.0, and tuple
// field names are ignored (Compare orders tuples by values alone).
uint64_t HashConstantValue(const value::Value& v) {
  uint64_t h = kFnvOffset;
  using value::ValueKind;
  switch (v.kind()) {
    case ValueKind::kNull:
      Mix(&h, 1);
      break;
    case ValueKind::kBool:
      Mix(&h, 2);
      Mix(&h, v.AsBool() ? 1 : 0);
      break;
    case ValueKind::kInt:
    case ValueKind::kReal: {
      Mix(&h, 3);
      double d = v.AsReal();
      if (d == 0) d = 0;  // fold -0.0 into +0.0
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      Mix(&h, bits);
      break;
    }
    case ValueKind::kString:
      Mix(&h, 4);
      for (char c : v.AsString()) Mix(&h, static_cast<uint8_t>(c));
      break;
    case ValueKind::kTuple:
      Mix(&h, 5);
      for (const value::Value& f : v.tuple().values) {
        MixWord(&h, HashConstantValue(f));
      }
      break;
    case ValueKind::kSet:
    case ValueKind::kBag:
    case ValueKind::kList:
    case ValueKind::kArray:
      Mix(&h, 6 + static_cast<uint64_t>(v.kind()) -
                  static_cast<uint64_t>(ValueKind::kSet));
      for (const value::Value& e : v.elements()) {
        MixWord(&h, HashConstantValue(e));
      }
      break;
    case ValueKind::kObjectRef:
      Mix(&h, 10);
      Mix(&h, v.AsObjectRef());
      break;
  }
  return h;
}

uint64_t HashNode(TermKind kind, const std::string& name,
                  const value::Value& v, const uint64_t* child_hashes,
                  size_t n) {
  uint64_t h = kFnvOffset;
  Mix(&h, static_cast<uint64_t>(kind));
  switch (kind) {
    case TermKind::kConstant:
      MixWord(&h, HashConstantValue(v));
      break;
    case TermKind::kVariable:
    case TermKind::kCollectionVariable:
      for (char c : name) Mix(&h, static_cast<uint8_t>(c));
      break;
    case TermKind::kApply:
      for (char c : name) Mix(&h, static_cast<uint8_t>(c));
      for (size_t i = 0; i < n; ++i) MixWord(&h, child_hashes[i]);
      break;
  }
  return h;
}

}  // namespace internal

uint64_t Hash(const TermRef& t) {
  return t == nullptr ? kFnvOffset : t->structural_hash();
}

uint64_t DeepHash(const TermRef& t) {
  if (t == nullptr) return kFnvOffset;
  std::vector<uint64_t> child_hashes;
  if (t->is_apply()) {
    child_hashes.reserve(t->arity());
    for (const TermRef& a : t->args()) child_hashes.push_back(DeepHash(a));
  }
  return internal::HashNode(t->kind(),
                            t->is_apply() ? t->functor() : t->var_name(),
                            t->constant(), child_hashes.data(),
                            child_hashes.size());
}

bool IsGround(const TermRef& t) { return t->ground(); }

bool DeepIsGround(const TermRef& t) {
  if (t->is_variable() || t->is_collection_variable()) return false;
  if (t->is_apply()) {
    for (const TermRef& a : t->args()) {
      if (!DeepIsGround(a)) return false;
    }
  }
  return true;
}

namespace {

void CollectVarsRec(const TermRef& t, std::vector<std::string>* vars,
                    std::vector<std::string>* coll_vars) {
  auto add = [](std::vector<std::string>* out, const std::string& name) {
    if (out != nullptr &&
        std::find(out->begin(), out->end(), name) == out->end()) {
      out->push_back(name);
    }
  };
  switch (t->kind()) {
    case TermKind::kVariable:
      add(vars, t->var_name());
      break;
    case TermKind::kCollectionVariable:
      add(coll_vars, t->var_name());
      break;
    case TermKind::kApply:
      // Functor variables (?F) count as ordinary variables for binding
      // analysis.
      if (!t->functor().empty() && t->functor().front() == '?') {
        add(vars, t->functor());
      }
      for (const TermRef& a : t->args()) CollectVarsRec(a, vars, coll_vars);
      break;
    case TermKind::kConstant:
      break;
  }
}

}  // namespace

void CollectVariables(const TermRef& t, std::vector<std::string>* vars,
                      std::vector<std::string>* coll_vars) {
  CollectVarsRec(t, vars, coll_vars);
}

size_t CountNodes(const TermRef& t) { return t->node_count(); }

size_t DeepCountNodes(const TermRef& t) {
  size_t n = 1;
  if (t->is_apply()) {
    for (const TermRef& a : t->args()) n += DeepCountNodes(a);
  }
  return n;
}

namespace testing {

TermRef CloneWithHashForTesting(const TermRef& t, uint64_t forced_hash) {
  return Interner::CloneWithHashForTesting(t, forced_hash);
}

}  // namespace testing

TermRef WithArgs(const TermRef& t, TermList args) {
  bool same = args.size() == t->arity();
  if (same) {
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i].get() != t->arg(i).get()) {
        same = false;
        break;
      }
    }
  }
  if (same) return t;
  return Term::Apply(t->functor(), std::move(args));
}

TermList Conjuncts(const TermRef& t) {
  TermList out;
  if (t->IsApply(kAnd, 2)) {
    TermList left = Conjuncts(t->arg(0));
    TermList right = Conjuncts(t->arg(1));
    out.insert(out.end(), left.begin(), left.end());
    out.insert(out.end(), right.begin(), right.end());
  } else {
    out.push_back(t);
  }
  return out;
}

TermRef MakeConjunction(const TermList& conjuncts) {
  if (conjuncts.empty()) return Term::True();
  TermRef acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Term::And(acc, conjuncts[i]);
  }
  return acc;
}

namespace {

// Term-constant printing diverges from value::operator<< in two ways so
// that printed terms re-parse to the identical interned node (the
// serialization contract the persistent plan cache depends on):
//   * string quotes are escaped by '' doubling, matching the lexer;
//   * reals print with shortest round-trip precision in fixed notation
//     (the lexer reads no exponents), with a ".0" suffix on whole values
//     so they come back as reals, not ints.
// Other value kinds (collections, objects) never survive a round-trip and
// keep the plain value rendering.
void PrintConstant(std::ostream& os, const value::Value& v) {
  switch (v.kind()) {
    case value::ValueKind::kString: {
      os << '\'';
      for (char c : v.AsString()) {
        if (c == '\'') os << '\'';
        os << c;
      }
      os << '\'';
      return;
    }
    case value::ValueKind::kReal: {
      const double d = v.AsReal();
      if (!std::isfinite(d)) {
        os << v;  // nan/inf cannot round-trip; keep the legacy rendering
        return;
      }
      // Shortest fixed-notation digits that parse back to exactly d. Every
      // finite double has a finite decimal expansion, so this terminates.
      char buf[384];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d,
                                     std::chars_format::fixed);
      if (ec != std::errc()) {
        os << v;
        return;
      }
      std::string_view s(buf, static_cast<size_t>(end - buf));
      os << s;
      if (s.find('.') == std::string_view::npos) os << ".0";
      return;
    }
    default:
      os << v;
      return;
  }
}

void Print(std::ostream& os, const Term& t) {
  switch (t.kind()) {
    case TermKind::kConstant:
      PrintConstant(os, t.constant());
      return;
    case TermKind::kVariable:
      os << t.var_name();
      return;
    case TermKind::kCollectionVariable:
      os << t.var_name() << '*';
      return;
    case TermKind::kApply:
      break;
  }
  const std::string& f = t.functor();
  // ATTR(i, j) prints as $i.j ('$'-prefixed so the parser can reread it;
  // the paper writes the same references as i.j). Only for non-negative
  // integer indices — the lexer reads nothing else after '$', so malformed
  // ATTRs fall through to the functor form, which always re-parses.
  auto attr_index = [](const TermRef& a) {
    return a->is_constant() &&
           a->constant().kind() == value::ValueKind::kInt &&
           a->constant().AsInt() >= 0;
  };
  if (f == kAttr && t.arity() == 2 && attr_index(t.arg(0)) &&
      attr_index(t.arg(1))) {
    os << '$' << t.arg(0)->constant() << '.' << t.arg(1)->constant();
    return;
  }
  auto infix = InfixOps().find(f);
  if (infix != InfixOps().end() && t.arity() == 2) {
    os << '(';
    Print(os, *t.arg(0));
    os << ' ' << infix->second << ' ';
    Print(os, *t.arg(1));
    os << ')';
    return;
  }
  os << f << '(';
  for (size_t i = 0; i < t.arity(); ++i) {
    if (i > 0) os << ", ";
    Print(os, *t.arg(i));
  }
  os << ')';
}

}  // namespace

std::string Term::ToString() const {
  std::ostringstream os;
  Print(os, *this);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TermRef& t) {
  if (t == nullptr) return os << "<null>";
  Print(os, *t);
  return os;
}

}  // namespace eds::term
