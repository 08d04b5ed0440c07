#include "term/symbol.h"

namespace lps {

void SymbolTable::Reserve(size_t additional) {
  names_.reserve(names_.size() + additional);
  table_.Reserve(additional, [&](Symbol s) { return Hash(names_[s]); });
}

Symbol SymbolTable::Intern(std::string_view name) {
  const Symbol fresh = static_cast<Symbol>(names_.size());
  const Symbol id = table_.FindOrInsert(
      Hash(name), fresh, [&](Symbol s) { return names_[s] == name; },
      [&](Symbol s) { return Hash(names_[s]); });
  if (id == fresh) names_.emplace_back(name);
  return id;
}

Symbol SymbolTable::Lookup(std::string_view name) const {
  const Symbol id =
      table_.Find(Hash(name), [&](Symbol s) { return names_[s] == name; });
  return id == IdTable::kNone ? kInvalidSymbol : id;
}

Symbol SymbolTable::Fresh(std::string_view base) {
  for (;;) {
    std::string candidate =
        std::string(base) + "#" + std::to_string(fresh_counter_++);
    if (Lookup(candidate) == kInvalidSymbol) return Intern(candidate);
  }
}

void SymbolTable::CopyFrom(const SymbolTable& other) {
  names_ = other.names_;
  table_ = other.table_;
  fresh_counter_ = other.fresh_counter_;
}

}  // namespace lps
