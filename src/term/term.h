#ifndef EDS_TERM_TERM_H_
#define EDS_TERM_TERM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "value/value.h"

namespace eds::term {

class Term;

// Owning handle to an immutable Term node. The reference count lives in
// the node (intrusive), so a node is one allocation with no separate
// control block, and copying a TermRef is one atomic increment. The
// surface is the shared_ptr subset the engine uses: get/->/*, bool,
// pointer ==, reset. Only the hash-cons table (term/interner.h) makes a
// TermRef from a raw node.
class TermRef {
 public:
  constexpr TermRef() noexcept = default;
  // Implicit, like shared_ptr's, so `return nullptr;` reads as before.
  constexpr TermRef(std::nullptr_t) noexcept {}  // NOLINT
  TermRef(const TermRef& other) noexcept;
  TermRef(TermRef&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)) {}
  TermRef& operator=(const TermRef& other) noexcept {
    TermRef(other).swap(*this);
    return *this;
  }
  TermRef& operator=(TermRef&& other) noexcept {
    TermRef(std::move(other)).swap(*this);
    return *this;
  }
  ~TermRef();

  const Term* get() const noexcept { return node_; }
  const Term& operator*() const noexcept { return *node_; }
  const Term* operator->() const noexcept { return node_; }
  explicit operator bool() const noexcept { return node_ != nullptr; }

  void reset() noexcept { TermRef().swap(*this); }
  void swap(TermRef& other) noexcept { std::swap(node_, other.node_); }

  friend bool operator==(const TermRef& a, const TermRef& b) noexcept {
    return a.node_ == b.node_;
  }
  friend bool operator==(const TermRef& a, std::nullptr_t) noexcept {
    return a.node_ == nullptr;
  }

 private:
  friend class Interner;
  // Takes over a reference already counted for the caller.
  static TermRef Adopt(const Term* node) noexcept {
    TermRef ref;
    ref.node_ = node;
    return ref;
  }

  const Term* node_ = nullptr;
};

using TermList = std::vector<TermRef>;

// The paper's central idea is a *uniform* term formalism: LERA operators,
// qualifications, ADT function calls and constants are all terms, so one
// rewriting machinery covers syntactic and semantic optimization alike.
//
//   kConstant            literal value ('Quinn', 10000, TRUE)
//   kVariable            rule variable (x, f, qual) — binds to one term
//   kCollectionVariable  rule collection variable (x*) — binds to a
//                        subsequence of a LIST/SET argument list
//   kApply               F(t1, ..., tn); LIST, SET, TUPLE, AND, EQ, SEARCH,
//                        FIX, ... are ordinary functors
enum class TermKind {
  kConstant,
  kVariable,
  kCollectionVariable,
  kApply,
};

// Well-known functor names. Functor names are canonicalized to upper case at
// construction, so recognizers compare against these directly.
inline constexpr const char* kList = "LIST";
inline constexpr const char* kSet = "SET";
inline constexpr const char* kTuple = "TUPLE";
inline constexpr const char* kAnd = "AND";
inline constexpr const char* kOr = "OR";
inline constexpr const char* kNot = "NOT";
inline constexpr const char* kEq = "EQ";
inline constexpr const char* kNe = "NE";
inline constexpr const char* kLt = "LT";
inline constexpr const char* kLe = "LE";
inline constexpr const char* kGt = "GT";
inline constexpr const char* kGe = "GE";
inline constexpr const char* kAttr = "ATTR";      // ATTR(i, j) prints as i.j
inline constexpr const char* kRelation = "RELATION";  // RELATION('FILM')

// An immutable node of a term tree. Construct through the factories; nodes
// are shared via TermRef and never mutated, so rewritten terms share
// untouched subtrees with their originals. A node lives exactly as long as
// some TermRef holds it: the last release unlinks it from the hash-cons
// table and frees it.
//
// The factories canonicalize through the hash-cons table in
// term/interner.h: structurally equal terms built while an equal term is
// alive come back as the *same* node. Every node also carries its
// structural hash, node count, and variable-freeness, computed once from
// its children at construction, so Hash/CountNodes/IsGround/Equals are
// O(1) field reads instead of tree walks.
class Term {
 public:
  TermKind kind() const { return static_cast<TermKind>(kind_); }

  bool is_constant() const { return kind() == TermKind::kConstant; }
  bool is_variable() const { return kind() == TermKind::kVariable; }
  bool is_collection_variable() const {
    return kind() == TermKind::kCollectionVariable;
  }
  bool is_apply() const { return kind() == TermKind::kApply; }

  // kConstant payload.
  const value::Value& constant() const { return value_; }

  // kVariable / kCollectionVariable: the variable name (without the '*').
  const std::string& var_name() const { return name_; }

  // kApply: upper-cased functor and arguments.
  const std::string& functor() const { return name_; }
  const TermList& args() const { return args_; }
  size_t arity() const { return args_.size(); }
  const TermRef& arg(size_t i) const { return args_[i]; }

  // True if the functor equals `name` (which must be upper case).
  bool IsApply(const std::string& name) const {
    return is_apply() && name_ == name;
  }
  bool IsApply(const std::string& name, size_t n) const {
    return IsApply(name) && args_.size() == n;
  }

  // ---- cached structural facts (filled at construction) ----
  // Structural hash consistent with Equals: equal terms hash equal.
  uint64_t structural_hash() const { return hash_; }
  // Number of nodes in this tree.
  size_t node_count() const { return node_count_; }
  // No variables or collection variables below this node.
  bool ground() const { return ground_ != 0; }
  // Ground *and* no '?'-prefixed functor variables either, i.e. applying
  // any substitution to this term is the identity. IsGround alone is not
  // enough: functor variables live in the functor name, not in a
  // kVariable node.
  bool pattern_free() const { return pattern_free_ != 0; }
  // Built by the hash-cons table. False only for testing clones; interned
  // structurally equal terms built while this node is alive are this node.
  bool interned() const { return interned_ != 0; }

  // Pretty form: infix for boolean/comparison/arithmetic functors, `i.j`
  // for ATTR, `'lit'` for strings, `F(a, b)` otherwise.
  std::string ToString() const;

  // ---- factories ----
  static TermRef Constant(value::Value v);
  static TermRef Int(int64_t i);
  static TermRef Real(double d);
  static TermRef Str(std::string s);
  static TermRef Bool(bool b);
  static TermRef True() { return Bool(true); }
  static TermRef False() { return Bool(false); }

  static TermRef Var(std::string name);
  static TermRef CollVar(std::string name);

  static TermRef Apply(std::string functor, TermList args);
  static TermRef List(TermList args) { return Apply(kList, std::move(args)); }
  static TermRef MakeSet(TermList args) {
    return Apply(kSet, std::move(args));
  }
  static TermRef MakeTuple(TermList args) {
    return Apply(kTuple, std::move(args));
  }

  // Binary/unary convenience constructors.
  static TermRef And(TermRef a, TermRef b);
  static TermRef Or(TermRef a, TermRef b);
  static TermRef Not(TermRef a);
  static TermRef Eq(TermRef a, TermRef b);
  static TermRef Attr(int64_t rel, int64_t attr);
  static TermRef Relation(std::string name);

 private:
  friend class Interner;
  friend class TermRef;

  // Construction goes through the factories, which allocate in the
  // hash-cons table.
  Term() = default;

  // Drops one reference; the last one hands the node to the interner.
  void Release() const noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) Destroy(this);
  }
  // Unlinks a dead node from the hash-cons table (if it is in one), then
  // frees it; its children are released after the table lock is dropped.
  static void Destroy(const Term* node) noexcept;

  static constexpr uint32_t kMaxNodeCount = (1u << 26) - 1;

  // The count starts at the one reference the creating factory returns.
  mutable std::atomic<uint32_t> refs_{1};
  // The kind and the cached subtree facts fill the word beside the count:
  // node counts are clamped to 26 bits (67 million nodes dwarfs any real
  // plan) so the flags ride along without growing the node — executors
  // walk terms by the million, and every extra cache line is paid per row.
  // `degenerate_` records that the node was placed while the test-only
  // one-bucket mode was on, so its release looks for it there.
  uint32_t kind_ : 2 = static_cast<uint32_t>(TermKind::kConstant);
  uint32_t node_count_ : 26 = 1;
  uint32_t ground_ : 1 = 1;
  uint32_t pattern_free_ : 1 = 1;
  uint32_t interned_ : 1 = 0;
  uint32_t degenerate_ : 1 = 0;
  value::Value value_;
  std::string name_;
  TermList args_;
  uint64_t hash_ = 0;
};

static_assert(sizeof(Term) <= 88,
              "a term node is its count and flags, a Value, a name, its "
              "arguments and its hash");

inline TermRef::TermRef(const TermRef& other) noexcept : node_(other.node_) {
  if (node_ != nullptr) node_->refs_.fetch_add(1, std::memory_order_relaxed);
}

inline TermRef::~TermRef() {
  if (node_ != nullptr) node_->Release();
}

// Structural equality. Canonical construction makes this O(1) in practice:
// pointer-identical terms are equal, terms with different cached hashes are
// unequal, and only hash-equal distinct nodes (value-equivalent constants
// like 2 vs 2.0 interned separately by exact payload, or genuine 64-bit
// collisions) fall back to the deep walk.
bool Equals(const TermRef& a, const TermRef& b);

// Total structural order (kind, then payload, then args lexicographically).
int Compare(const TermRef& a, const TermRef& b);

// Structural hash, consistent with Equals. O(1): reads the cached hash.
uint64_t Hash(const TermRef& t);

// True if `t` contains no variables or collection variables. O(1).
bool IsGround(const TermRef& t);

// Collects the names of variables (`vars`) and collection variables
// (`coll_vars`) occurring in `t`, in first-occurrence order, deduplicated.
// Either output may be null.
void CollectVariables(const TermRef& t, std::vector<std::string>* vars,
                      std::vector<std::string>* coll_vars);

// Number of nodes in the tree (the paper's termination argument counts
// terms; the engine uses this for size-decreasing diagnostics). O(1).
size_t CountNodes(const TermRef& t);

// Deep (tree-walking) counterparts of the cached O(1) reads above. These
// recompute from scratch and exist as the ground truth the caches are
// verified against in tests, and as the fallback Equals uses on hash-equal
// distinct nodes.
bool DeepEquals(const TermRef& a, const TermRef& b);
uint64_t DeepHash(const TermRef& t);
bool DeepIsGround(const TermRef& t);
size_t DeepCountNodes(const TermRef& t);

namespace internal {
// Shared by the interner and DeepHash so cached and recomputed hashes
// agree. HashConstantValue is consistent with value::Compare equivalence
// (Int(2) and Real(2.0) hash equal; tuple field names are ignored).
uint64_t HashConstantValue(const value::Value& v);
uint64_t HashNode(TermKind kind, const std::string& name,
                  const value::Value& v, const uint64_t* child_hashes,
                  size_t n);
}  // namespace internal

namespace testing {
// Returns an *uninterned* shallow clone of `t` whose cached hash is forced
// to `forced_hash` (children are shared). This deliberately violates the
// hash/Equals consistency invariant; it exists solely so tests can
// manufacture hash collisions and prove collision-immunity of consumers.
TermRef CloneWithHashForTesting(const TermRef& t, uint64_t forced_hash);
}  // namespace testing

// Rebuilds an apply node with new arguments, reusing the original node when
// nothing changed. Precondition: t->is_apply().
TermRef WithArgs(const TermRef& t, TermList args);

// Flattens nested AND into a conjunct list (a non-AND term yields itself).
TermList Conjuncts(const TermRef& t);
// AND-combines conjuncts; empty list yields TRUE.
TermRef MakeConjunction(const TermList& conjuncts);

std::ostream& operator<<(std::ostream& os, const TermRef& t);

}  // namespace eds::term

#endif  // EDS_TERM_TERM_H_
