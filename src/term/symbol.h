// String interning. Every predicate, function, constant and variable
// name is interned once in a SymbolTable and referred to by a dense
// 32-bit Symbol id thereafter.
#ifndef LPS_TERM_SYMBOL_H_
#define LPS_TERM_SYMBOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/id_table.h"

namespace lps {

using Symbol = uint32_t;

inline constexpr Symbol kInvalidSymbol = UINT32_MAX;

/// Interns strings to dense ids. Ids are stable for the table lifetime.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id for `name`, interning it on first use.
  Symbol Intern(std::string_view name);

  /// Returns the id for `name` or kInvalidSymbol if never interned.
  Symbol Lookup(std::string_view name) const;

  /// Cache hint for an upcoming Intern(name) or Lookup(name): prefetches
  /// the index slot its probe starts at.
  void Prefetch(std::string_view name) const {
    if (table_.capacity() != 0) table_.Prefetch(table_.Home(Hash(name)));
  }

  /// The string for an interned id. `id` must be valid.
  const std::string& Name(Symbol id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

  /// Interns a name of the form `<base><counter>` that has not been
  /// interned before. Used by transforms to create fresh predicate and
  /// variable names (Theorem 6 auxiliary predicates etc.).
  Symbol Fresh(std::string_view base);

  /// Makes this table an exact copy of `other`: same ids, same fresh
  /// counter. The table stays deliberately non-copyable (a Symbol is
  /// only meaningful against the table that interned it); this is the
  /// one sanctioned duplication path, used by TermStore::Clone() to
  /// freeze a store for concurrent serving.
  void CopyFrom(const SymbolTable& other);

  /// Pre-grows the index for `additional` upcoming interns, so a bulk
  /// load pays one rehash up front instead of log-many doublings.
  void Reserve(size_t additional);

 private:
  static size_t Hash(std::string_view s) {
    return std::hash<std::string_view>{}(s);
  }

  std::vector<std::string> names_;
  // Name -> Symbol. Probes compare against names_ directly, so
  // interning a new name costs its one string and no hash node.
  IdTable table_;
  uint64_t fresh_counter_ = 0;
};

}  // namespace lps

#endif  // LPS_TERM_SYMBOL_H_
