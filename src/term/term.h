// Hash-consed two-sorted terms (paper Definitions 1-3, Section 5).
//
// The store interns every term once, so term equality is TermId
// equality, and ground set terms are kept in a canonical form (element
// ids sorted, duplicates removed). This makes the special predicates of
// Definition 3 trivial:
//   =a  and  =s   are id comparison,
//   u in U*       is binary search in the canonical element array.
//
// Terms are allowed to nest sets arbitrarily (the ELPS universe of
// Definition 13); the LPS restriction to one level of nesting is
// enforced separately by lang/validate.h, not by the store.
#ifndef LPS_TERM_TERM_H_
#define LPS_TERM_TERM_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "term/symbol.h"

namespace lps {

using TermId = uint32_t;
inline constexpr TermId kInvalidTerm = UINT32_MAX;

enum class TermKind : uint8_t {
  kConstant,  // c_i, sort a                      (Definition 1.3)
  kInt,       // integer constant, sort a         (arithmetic substrate)
  kVariable,  // x^beta_i, declared sort          (Definition 1.4)
  kFunction,  // f(t1,...,tk), sort a             (Definition 2.3)
  kSet,       // {t1,...,tn} = {_n(t1,...,tn), sort s
};

/// Sort of a term or variable (Definition 1). kAny is used only for
/// ELPS variables, which are untyped (Section 5).
enum class Sort : uint8_t { kAtom, kSet, kAny };

const char* SortToString(Sort sort);

/// One interned term node. Nodes are immutable once created.
struct TermNode {
  TermKind kind;
  Sort sort;        // kAtom or kSet for non-variables
  bool ground;      // contains no variables
  uint16_t depth;   // set-nesting depth: atoms 0, {} is 1, {{}} is 2 ...
  Symbol symbol;    // constant / variable / function name
  int64_t int_value;
  uint32_t args_begin;  // into TermStore::args_ (function args / elements)
  uint32_t args_end;
};

/// Arena + interner for terms. Not thread-safe; one store per engine.
class TermStore {
 public:
  TermStore();
  TermStore(const TermStore&) = delete;
  TermStore& operator=(const TermStore&) = delete;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  // ---- Construction (all hash-consed) -------------------------------

  TermId MakeConstant(Symbol name);
  TermId MakeConstant(std::string_view name);
  TermId MakeInt(int64_t value);
  TermId MakeVariable(Symbol name, Sort sort);
  TermId MakeVariable(std::string_view name, Sort sort);
  /// A variable with a globally fresh name.
  TermId MakeFreshVariable(std::string_view base, Sort sort);
  TermId MakeFunction(Symbol name, std::vector<TermId> args);
  TermId MakeFunction(std::string_view name, std::vector<TermId> args);
  /// {t1,...,tn}: sorts and dedups element ids (canonical for ground
  /// sets; still semantically sound for non-ground ones since
  /// {x,x} = {x} in every LPS model).
  TermId MakeSet(std::vector<TermId> elements);
  /// Same, from a borrowed span: elements are copied into an internal
  /// scratch buffer before canonicalization, so steady-state calls
  /// allocate nothing and `elements` may alias this store's own
  /// element arena (e.g. `args(some_set)`).
  TermId MakeSet(std::span<const TermId> elements);
  TermId MakeSet(std::initializer_list<TermId> elements) {
    return MakeSet(std::span<const TermId>(elements.begin(),
                                           elements.size()));
  }
  /// Interns an element sequence that is already canonical (strictly
  /// ascending TermIds). This is the zero-copy fast path for callers
  /// that produce canonical sequences by construction (sorted merges
  /// in set_algebra.cc, SetBuilder); a non-canonical input asserts in
  /// debug builds and mis-interns in release, so when in doubt call
  /// MakeSet. The span may alias the store's element arena.
  TermId InternCanonicalSet(std::span<const TermId> elements);
  TermId EmptySet() const { return empty_set_; }

  // ---- Snapshot cloning (serve/snapshot.h) ---------------------------

  /// Deep copy for snapshot publication. The clone owns identical
  /// nodes, symbol table and intern tables, so every TermId and Symbol
  /// valid in this store at clone time denotes the same term in the
  /// clone - and because both arenas are append-only, ids interned
  /// into either store *after* the clone are >= size()-at-clone and can
  /// never collide with a shared-prefix id. Cross-store TermId
  /// comparison between a store and its clone is therefore sound
  /// whenever at least one side's id predates the clone.
  std::unique_ptr<TermStore> Clone() const;

  // ---- Const lookup (read path for concurrent serving) ---------------
  // Pure probes of the intern tables: no interning, no table growth,
  // not even the instrumentation counters move, so any number of
  // threads may call them concurrently on a frozen store. kInvalidTerm
  // means the term was never interned here - for a ground term that
  // guarantees it occurs in no stored tuple of any database over this
  // store (the serve-path miss => empty-answer fast path).

  TermId TryLookupConstant(std::string_view name) const;
  TermId TryLookupInt(int64_t value) const;
  TermId TryLookupFunction(Symbol name,
                           std::vector<TermId> args) const;
  /// `elements` must be canonical (strictly ascending), as for
  /// InternCanonicalSet.
  TermId TryLookupCanonicalSet(std::span<const TermId> elements) const;

  // ---- Set-intern instrumentation (EvalStats / .stats) ---------------

  /// Canonical-set intern requests so far (every MakeSet /
  /// InternCanonicalSet call lands here exactly once).
  size_t set_interns() const { return set_interns_; }
  /// Requests satisfied by the intern table without creating a node.
  size_t set_intern_hits() const { return set_intern_hits_; }

  // ---- Accessors -----------------------------------------------------

  const TermNode& node(TermId id) const { return nodes_[id]; }
  TermKind kind(TermId id) const { return nodes_[id].kind; }
  Sort sort(TermId id) const { return nodes_[id].sort; }
  bool is_ground(TermId id) const { return nodes_[id].ground; }
  uint16_t depth(TermId id) const { return nodes_[id].depth; }
  Symbol symbol(TermId id) const { return nodes_[id].symbol; }
  int64_t int_value(TermId id) const { return nodes_[id].int_value; }
  bool IsVariable(TermId id) const {
    return kind(id) == TermKind::kVariable;
  }

  /// Function arguments or canonical set elements.
  std::span<const TermId> args(TermId id) const {
    const TermNode& n = nodes_[id];
    return {args_.data() + n.args_begin, args_.data() + n.args_end};
  }

  size_t size() const { return nodes_.size(); }

  /// Pre-grows the node arena, intern index and symbol table for up to
  /// `additional_terms` upcoming interns (an upper bound is fine).
  /// Capacity only - no ids are minted - so a bulk load pays one
  /// rehash per table up front instead of log-many doublings.
  void Reserve(size_t additional_terms) {
    nodes_.reserve(nodes_.size() + additional_terms);
    index_.reserve(index_.size() + additional_terms);
    symbols_.Reserve(additional_terms);
  }

  /// Collects the distinct variables occurring in `id` (first-occurrence
  /// order) into `out`; duplicates are skipped.
  void CollectVariables(TermId id, std::vector<TermId>* out) const;

  /// True if the variable `var` occurs in `id`.
  bool ContainsVariable(TermId id, TermId var) const;

 private:
  /// Uninitialized shell for Clone(), which copies every member; the
  /// public constructor would intern {} into the still-empty tables.
  struct CloneTag {};
  explicit TermStore(CloneTag) {}

  struct Key {
    TermKind kind;
    Sort sort;  // distinguishes variables of different sorts
    Symbol symbol;
    int64_t int_value;
    std::vector<TermId> args;
    bool operator==(const Key& o) const {
      return kind == o.kind && sort == o.sort && symbol == o.symbol &&
             int_value == o.int_value && args == o.args;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  TermId Intern(Key key);

  /// Canonical-set intern table: open-addressed, Mix64-hashed slots of
  /// TermId + 1 (0 = empty), hashing and comparing element spans
  /// straight against args_ - kSet terms never touch the generic
  /// Key-based index_, so a set intern costs zero heap allocations on
  /// a hit and only the arena append on a miss.
  void GrowSetTable();
  static size_t HashElementSpan(std::span<const TermId> elems);

  SymbolTable symbols_;
  std::vector<TermNode> nodes_;
  std::vector<TermId> args_;
  std::unordered_map<Key, TermId, KeyHash> index_;
  /// Constant terms keyed by their Symbol (kInvalidTerm = none yet):
  /// the authoritative intern table for kConstant, which never touches
  /// the Key-based index_. Symbols are dense, so this is a flat array.
  std::vector<TermId> constants_by_symbol_;
  std::vector<uint32_t> set_slots_;  // TermId + 1; 0 = empty
  size_t set_count_ = 0;
  std::vector<TermId> set_scratch_;  // MakeSet(span) canonicalization
  size_t set_interns_ = 0;
  size_t set_intern_hits_ = 0;
  TermId empty_set_ = kInvalidTerm;
};

/// Reusable accumulator for building canonical sets without per-call
/// allocations: collect elements in any order (duplicates fine), then
/// Build() sorts, dedups, interns and clears - the internal buffer's
/// capacity is retained, so steady-state Build() cycles allocate
/// nothing. One builder per (single-threaded) construction site; the
/// grouping executor keeps one per evaluator.
class SetBuilder {
 public:
  void Clear() { elems_.clear(); }
  void Add(TermId t) { elems_.push_back(t); }
  size_t size() const { return elems_.size(); }

  /// Canonicalizes and interns the collected elements; the builder is
  /// cleared and immediately reusable.
  TermId Build(TermStore* store);

 private:
  std::vector<TermId> elems_;
};

}  // namespace lps

#endif  // LPS_TERM_TERM_H_
