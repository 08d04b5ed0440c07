#include "term/symbol.h"

namespace lps {

size_t SymbolTable::FindSlot(std::string_view name, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t v = slots_[slot];
    if (v == 0 || names_[v - 1] == name) return slot;
  }
}

void SymbolTable::Rehash(size_t slot_count) {
  slots_.assign(slot_count, 0);
  for (size_t i = 0; i < names_.size(); ++i) {
    slots_[FindSlot(names_[i], Hash(names_[i]))] =
        static_cast<uint32_t>(i + 1);
  }
}

void SymbolTable::Reserve(size_t additional) {
  const size_t want = names_.size() + additional;
  names_.reserve(want);
  size_t slot_count = slots_.empty() ? 16 : slots_.size();
  while (slot_count < 2 * want) slot_count *= 2;
  if (slot_count != slots_.size()) Rehash(slot_count);
}

Symbol SymbolTable::Intern(std::string_view name) {
  if (2 * (names_.size() + 1) > slots_.size()) {
    Rehash(slots_.empty() ? 16 : 2 * slots_.size());
  }
  const size_t slot = FindSlot(name, Hash(name));
  if (slots_[slot] != 0) return slots_[slot] - 1;
  const Symbol id = static_cast<Symbol>(names_.size());
  names_.emplace_back(name);
  slots_[slot] = id + 1;
  return id;
}

Symbol SymbolTable::Lookup(std::string_view name) const {
  if (slots_.empty()) return kInvalidSymbol;
  const uint32_t v = slots_[FindSlot(name, Hash(name))];
  return v == 0 ? kInvalidSymbol : v - 1;
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
  slots_ = other.slots_;
  fresh_counter_ = other.fresh_counter_;
}

}  // namespace lps
