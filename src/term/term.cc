#include "term/term.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "base/hash.h"

namespace lps {

const char* SortToString(Sort sort) {
  switch (sort) {
    case Sort::kAtom:
      return "atom";
    case Sort::kSet:
      return "set";
    case Sort::kAny:
      return "any";
  }
  return "?";
}

namespace {

// The fields of a term's identity besides its arguments. Intern
// derives the rest of the node.
TermNode Identity(TermKind kind, Sort sort, Symbol symbol,
                  int64_t int_value) {
  TermNode key{};
  key.kind = kind;
  key.sort = sort;
  key.symbol = symbol;
  key.int_value = int_value;
  return key;
}

}  // namespace

TermStore::TermStore() {
  empty_set_ = MakeSet({});
}

size_t TermStore::Hash(const TermNode& key, std::span<const TermId> args) {
  // The sort stays out: a name's atom and set variables share a home
  // slot, so Identifies' sort test tells them apart on every probe.
  size_t seed = HashRange(args);
  HashCombine(&seed, static_cast<size_t>(key.kind));
  HashCombine(&seed, static_cast<size_t>(key.symbol));
  HashCombine(&seed, std::hash<int64_t>{}(key.int_value));
  return seed;
}

bool TermStore::Identifies(TermId id, const TermNode& key,
                           std::span<const TermId> key_args) const {
  const TermNode& n = nodes_[id];
  const std::span<const TermId> a = args(id);
  return n.kind == key.kind && n.sort == key.sort &&
         n.symbol == key.symbol && n.int_value == key.int_value &&
         std::equal(a.begin(), a.end(), key_args.begin(), key_args.end());
}

TermId TermStore::Find(const TermNode& key,
                       std::span<const TermId> key_args) const {
  const TermId id = table_.Find(Hash(key, key_args), [&](TermId t) {
    return Identifies(t, key, key_args);
  });
  return id == IdTable::kNone ? kInvalidTerm : id;
}

TermId TermStore::Intern(const TermNode& key,
                         std::span<const TermId> key_args) {
  const TermId fresh = static_cast<TermId>(nodes_.size());
  const TermId id = table_.FindOrInsert(
      Hash(key, key_args), fresh,
      [&](TermId t) { return Identifies(t, key, key_args); },
      [&](TermId t) { return Hash(nodes_[t], args(t)); });
  return id == fresh ? NewNode(key, key_args) : id;
}

TermId TermStore::NewNode(const TermNode& key,
                          std::span<const TermId> key_args) {
  TermNode node = key;
  node.ground = key.kind != TermKind::kVariable;
  uint16_t max_child = 0;
  for (TermId a : key_args) {
    node.ground = node.ground && nodes_[a].ground;
    max_child = std::max(max_child, nodes_[a].depth);
  }
  // Set-nesting depth: a set is one deeper than its deepest element, a
  // set variable stands for depth 1, and atoms (function ranges
  // included, Def. 1.2, §5) are 0.
  if (key.kind == TermKind::kSet) {
    node.depth = static_cast<uint16_t>(max_child + 1);
  } else {
    node.depth =
        key.kind == TermKind::kVariable && key.sort == Sort::kSet ? 1 : 0;
  }

  // `key_args` may view this store's own arena (e.g. an args() span of
  // an existing set): append element-wise through indices then, since
  // a self-range insert is UB even with capacity reserved. std::less
  // gives the total pointer order the aliasing test needs.
  node.args_begin = static_cast<uint32_t>(args_.size());
  const TermId* data = key_args.data();
  std::less<const TermId*> before;
  const bool aliases = !before(data, args_.data()) &&
                       before(data, args_.data() + args_.size());
  if (aliases) {
    size_t offset = static_cast<size_t>(data - args_.data());
    args_.reserve(args_.size() + key_args.size());
    for (size_t i = 0; i < key_args.size(); ++i) {
      args_.push_back(args_[offset + i]);
    }
  } else {
    args_.insert(args_.end(), data, data + key_args.size());
  }
  node.args_end = static_cast<uint32_t>(args_.size());
  const TermId id = static_cast<TermId>(nodes_.size());
  nodes_.push_back(node);
  return id;
}

TermId TermStore::MakeConstant(Symbol name) {
  // Constants are keyed by their (dense) Symbol alone, so they
  // hash-cons through a flat side table instead of the term table: a
  // hit is one vector load, a miss appends a node with no table insert.
  // Bulk loading interns millions of fresh constants through here.
  if (name < constants_by_symbol_.size() &&
      constants_by_symbol_[name] != kInvalidTerm) {
    return constants_by_symbol_[name];
  }
  const TermId id =
      NewNode(Identity(TermKind::kConstant, Sort::kAtom, name, 0), {});
  if (name >= constants_by_symbol_.size()) {
    constants_by_symbol_.resize(static_cast<size_t>(name) + 1,
                                kInvalidTerm);
  }
  constants_by_symbol_[name] = id;
  return id;
}

TermId TermStore::MakeConstant(std::string_view name) {
  return MakeConstant(symbols_.Intern(name));
}

TermId TermStore::MakeInt(int64_t value) {
  return Intern(Identity(TermKind::kInt, Sort::kAtom, kInvalidSymbol, value),
                {});
}

TermId TermStore::MakeVariable(Symbol name, Sort sort) {
  return Intern(Identity(TermKind::kVariable, sort, name, 0), {});
}

TermId TermStore::MakeVariable(std::string_view name, Sort sort) {
  return MakeVariable(symbols_.Intern(name), sort);
}

TermId TermStore::MakeFreshVariable(std::string_view base, Sort sort) {
  return MakeVariable(symbols_.Fresh(base), sort);
}

TermId TermStore::MakeFunction(Symbol name, std::vector<TermId> args) {
  return Intern(Identity(TermKind::kFunction, Sort::kAtom, name, 0), args);
}

TermId TermStore::MakeFunction(std::string_view name,
                               std::vector<TermId> args) {
  return MakeFunction(symbols_.Intern(name), std::move(args));
}

TermId TermStore::MakeSet(std::vector<TermId> elements) {
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  return InternCanonicalSet(elements);
}

TermId TermStore::MakeSet(std::span<const TermId> elements) {
  set_scratch_.assign(elements.begin(), elements.end());
  std::sort(set_scratch_.begin(), set_scratch_.end());
  set_scratch_.erase(
      std::unique(set_scratch_.begin(), set_scratch_.end()),
      set_scratch_.end());
  return InternCanonicalSet(set_scratch_);
}

TermId TermStore::InternCanonicalSet(std::span<const TermId> elements) {
  assert(std::is_sorted(elements.begin(), elements.end()) &&
         std::adjacent_find(elements.begin(), elements.end()) ==
             elements.end() &&
         "InternCanonicalSet requires strictly ascending elements");
  ++set_interns_;
  const size_t before = nodes_.size();
  const TermId id = Intern(
      Identity(TermKind::kSet, Sort::kSet, kInvalidSymbol, 0), elements);
  if (id < before) ++set_intern_hits_;
  return id;
}

std::unique_ptr<TermStore> TermStore::Clone() const {
  auto clone = std::unique_ptr<TermStore>(new TermStore(CloneTag{}));
  clone->symbols_.CopyFrom(symbols_);
  clone->nodes_ = nodes_;
  clone->args_ = args_;
  clone->table_ = table_;
  clone->constants_by_symbol_ = constants_by_symbol_;
  clone->set_interns_ = set_interns_;
  clone->set_intern_hits_ = set_intern_hits_;
  clone->empty_set_ = empty_set_;
  return clone;
}

TermId TermStore::TryLookupConstant(std::string_view name) const {
  Symbol sym = symbols_.Lookup(name);
  if (sym == kInvalidSymbol) return kInvalidTerm;
  return sym < constants_by_symbol_.size() ? constants_by_symbol_[sym]
                                           : kInvalidTerm;
}

TermId TermStore::TryLookupInt(int64_t value) const {
  return Find(Identity(TermKind::kInt, Sort::kAtom, kInvalidSymbol, value),
              {});
}

TermId TermStore::TryLookupFunction(Symbol name,
                                    std::span<const TermId> args) const {
  return Find(Identity(TermKind::kFunction, Sort::kAtom, name, 0), args);
}

TermId TermStore::TryLookupCanonicalSet(
    std::span<const TermId> elements) const {
  assert(std::is_sorted(elements.begin(), elements.end()) &&
         std::adjacent_find(elements.begin(), elements.end()) ==
             elements.end() &&
         "TryLookupCanonicalSet requires strictly ascending elements");
  return Find(Identity(TermKind::kSet, Sort::kSet, kInvalidSymbol, 0),
              elements);
}

TermId SetBuilder::Build(TermStore* store) {
  std::sort(elems_.begin(), elems_.end());
  elems_.erase(std::unique(elems_.begin(), elems_.end()), elems_.end());
  TermId id = store->InternCanonicalSet(elems_);
  elems_.clear();
  return id;
}

void TermStore::CollectVariables(TermId id,
                                 std::vector<TermId>* out) const {
  const TermNode& n = nodes_[id];
  if (n.ground) return;
  if (n.kind == TermKind::kVariable) {
    if (std::find(out->begin(), out->end(), id) == out->end()) {
      out->push_back(id);
    }
    return;
  }
  for (TermId a : args(id)) CollectVariables(a, out);
}

bool TermStore::ContainsVariable(TermId id, TermId var) const {
  if (id == var) return true;
  const TermNode& n = nodes_[id];
  if (n.ground) return false;
  for (TermId a : args(id)) {
    if (ContainsVariable(a, var)) return true;
  }
  return false;
}

}  // namespace lps
