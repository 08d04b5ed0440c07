#include "ground/herbrand.h"

#include <algorithm>

namespace lps {

namespace {

void AddUnique(std::vector<TermId>* v, TermId t) {
  if (std::find(v->begin(), v->end(), t) == v->end()) v->push_back(t);
}

void CollectFromTerm(const TermStore& store, TermId t,
                     std::vector<TermId>* atoms,
                     std::vector<TermId>* sets) {
  if (!store.is_ground(t)) {
    // Recurse into non-ground structure for its ground subterms.
    for (TermId a : store.args(t)) {
      CollectFromTerm(store, a, atoms, sets);
    }
    return;
  }
  if (store.sort(t) == Sort::kSet) {
    AddUnique(sets, t);
    for (TermId e : store.args(t)) {
      CollectFromTerm(store, e, atoms, sets);
    }
  } else {
    AddUnique(atoms, t);
    for (TermId a : store.args(t)) {
      CollectFromTerm(store, a, atoms, sets);
    }
  }
}

void CollectFromLiteral(const TermStore& store, const Literal& lit,
                        std::vector<TermId>* atoms,
                        std::vector<TermId>* sets) {
  for (TermId t : lit.args) CollectFromTerm(store, t, atoms, sets);
}

// Collects the constants (0-depth ground atoms without args, plus ints)
// and function symbols used anywhere in the program.
void CollectSignatureParts(const Program& program, const Database& db,
                           std::vector<TermId>* constants,
                           std::vector<std::pair<Symbol, size_t>>* funcs) {
  const TermStore& store = *program.store();
  std::vector<TermId> atoms, sets;
  CollectGroundTerms(program, db, &atoms, &sets);
  for (TermId a : atoms) {
    switch (store.kind(a)) {
      case TermKind::kConstant:
      case TermKind::kInt:
        AddUnique(constants, a);
        break;
      case TermKind::kFunction: {
        auto key = std::make_pair(store.symbol(a), store.args(a).size());
        if (std::find(funcs->begin(), funcs->end(), key) == funcs->end()) {
          funcs->push_back(key);
        }
        break;
      }
      default:
        break;
    }
  }
  // Function symbols can also occur in non-ground clause terms.
  std::vector<TermId> pending;
  auto scan_term = [&](TermId t, auto&& self) -> void {
    if (store.kind(t) == TermKind::kFunction) {
      auto key = std::make_pair(store.symbol(t), store.args(t).size());
      if (std::find(funcs->begin(), funcs->end(), key) == funcs->end()) {
        funcs->push_back(key);
      }
    }
    for (TermId a : store.args(t)) self(a, self);
  };
  for (const Clause& c : program.clauses()) {
    for (TermId t : c.head.args) scan_term(t, scan_term);
    for (const Literal& l : c.body) {
      for (TermId t : l.args) scan_term(t, scan_term);
    }
  }
  (void)pending;
}

}  // namespace

void CollectGroundTerms(const Program& program, const Database& db,
                        std::vector<TermId>* atoms,
                        std::vector<TermId>* sets) {
  const TermStore& store = *program.store();
  db.ForEachFact([&](const Database::Fact& f) {
    for (TermId t : f.args) CollectFromTerm(store, t, atoms, sets);
  });
  for (const Clause& c : program.clauses()) {
    CollectFromLiteral(store, c.head, atoms, sets);
    for (const Quantifier& q : c.quantifiers) {
      CollectFromTerm(store, q.range, atoms, sets);
    }
    for (const Literal& l : c.body) {
      CollectFromLiteral(store, l, atoms, sets);
    }
  }
}

Result<HerbrandUniverse> HerbrandUniverse::Build(
    const Program& program, const Database& db,
    const HerbrandOptions& options) {
  std::vector<TermId> constants;
  std::vector<std::pair<Symbol, size_t>> funcs;
  CollectSignatureParts(program, db, &constants, &funcs);
  return BuildFromAtoms(program.store(), std::move(constants),
                        std::move(funcs), options);
}

Result<HerbrandUniverse> HerbrandUniverse::BuildFromAtoms(
    TermStore* store, std::vector<TermId> constants,
    std::vector<std::pair<Symbol, size_t>> function_symbols,
    const HerbrandOptions& options) {
  HerbrandUniverse u;
  u.atoms_ = std::move(constants);
  std::sort(u.atoms_.begin(), u.atoms_.end());
  u.atoms_.erase(std::unique(u.atoms_.begin(), u.atoms_.end()),
                 u.atoms_.end());

  // Close U_a under function application up to the depth bound
  // (Definition 7.1b).
  std::vector<TermId> frontier = u.atoms_;
  for (size_t depth = 0; depth < options.max_function_depth; ++depth) {
    std::vector<TermId> next;
    for (const auto& [sym, arity] : function_symbols) {
      // All argument tuples drawn from the current universe where at
      // least one argument is in the frontier (avoids duplicates).
      std::vector<size_t> idx(arity, 0);
      if (arity == 0) continue;
      const std::vector<TermId>& pool = u.atoms_;
      if (pool.empty()) continue;
      for (;;) {
        std::vector<TermId> args(arity);
        bool uses_frontier = false;
        for (size_t i = 0; i < arity; ++i) {
          args[i] = pool[idx[i]];
          if (std::find(frontier.begin(), frontier.end(), args[i]) !=
              frontier.end()) {
            uses_frontier = true;
          }
        }
        if (uses_frontier || depth == 0) {
          TermId t = store->MakeFunction(sym, args);
          if (std::find(u.atoms_.begin(), u.atoms_.end(), t) ==
                  u.atoms_.end() &&
              std::find(next.begin(), next.end(), t) == next.end()) {
            next.push_back(t);
          }
        }
        // Advance the odometer.
        size_t i = 0;
        while (i < arity && ++idx[i] == pool.size()) {
          idx[i] = 0;
          ++i;
        }
        if (i == arity) break;
      }
    }
    for (TermId t : next) u.atoms_.push_back(t);
    if (u.atoms_.size() > options.max_atoms) {
      return Status::ResourceExhausted(
          "Herbrand atom universe exceeds limit " +
          std::to_string(options.max_atoms));
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }

  // U_s: all subsets of U_a up to the cardinality bound (Definition 7.2),
  // iterated for nested sets up to the depth bound (Definition 13).
  std::vector<TermId> pool = u.atoms_;
  for (size_t d = 0; d < options.max_set_depth; ++d) {
    // Enumerate subsets of `pool` with cardinality <= bound.
    std::vector<TermId> new_sets;
    std::vector<TermId> current;
    size_t k = std::min(options.max_set_cardinality, pool.size());
    // Combinations by recursive lambda.
    auto rec = [&](auto&& self, size_t start, size_t remaining) -> bool {
      // Span overload: `current` is reused across the recursion, so
      // the store canonicalizes a scratch copy instead of a fresh one.
      new_sets.push_back(
          store->MakeSet(std::span<const TermId>(current)));
      if (new_sets.size() + u.sets_.size() > options.max_sets) {
        return false;
      }
      if (remaining == 0) return true;
      for (size_t i = start; i < pool.size(); ++i) {
        current.push_back(pool[i]);
        bool ok = self(self, i + 1, remaining - 1);
        current.pop_back();
        if (!ok) return false;
      }
      return true;
    };
    if (!rec(rec, 0, k)) {
      return Status::ResourceExhausted(
          "Herbrand set universe exceeds limit " +
          std::to_string(options.max_sets));
    }
    for (TermId s : new_sets) AddUnique(&u.sets_, s);
    // Next nesting level draws elements from atoms and sets alike.
    pool = u.atoms_;
    pool.insert(pool.end(), u.sets_.begin(), u.sets_.end());
  }
  std::sort(u.sets_.begin(), u.sets_.end());
  u.sets_.erase(std::unique(u.sets_.begin(), u.sets_.end()),
                u.sets_.end());
  return u;
}

}  // namespace lps
