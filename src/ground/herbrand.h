// Bounded enumeration of the Herbrand universe (Definitions 7 and 13)
// and Herbrand base (Definition 8).
//
// The true universe U_a is infinite as soon as a function symbol exists
// and U_s = P_fin(U_a) is always infinite, so enumeration is bounded by
// function-nesting depth, set cardinality, and set-nesting depth. Within
// those bounds the enumeration is exhaustive, which is what the
// model-theory tests (Theorem 3, Lemma 2) rely on.
#ifndef LPS_GROUND_HERBRAND_H_
#define LPS_GROUND_HERBRAND_H_

#include <vector>

#include "eval/database.h"
#include "lang/program.h"

namespace lps {

struct HerbrandOptions {
  size_t max_function_depth = 1;  // 0 = constants only
  size_t max_set_cardinality = 2;
  size_t max_set_depth = 1;       // 1 = LPS; >1 = ELPS nesting
  size_t max_atoms = 2000;
  size_t max_sets = 100000;
};

/// The bounded universe: U_a (atoms) and U_s (finite sets).
class HerbrandUniverse {
 public:
  /// Builds the bounded universe from the constants and function symbols
  /// occurring in `program`'s clauses and `db`'s facts. Errors if the
  /// bounds overflow.
  static Result<HerbrandUniverse> Build(const Program& program,
                                        const Database& db,
                                        const HerbrandOptions& options);

  /// Builds from explicit seed constants (useful in tests).
  static Result<HerbrandUniverse> BuildFromAtoms(
      TermStore* store, std::vector<TermId> constants,
      std::vector<std::pair<Symbol, size_t>> function_symbols,
      const HerbrandOptions& options);

  const std::vector<TermId>& atoms() const { return atoms_; }
  const std::vector<TermId>& sets() const { return sets_; }

 private:
  std::vector<TermId> atoms_;
  std::vector<TermId> sets_;
};

/// Collects every ground subterm occurring in `db`'s facts and the
/// program's clauses, split by sort. The result seeds active domains.
void CollectGroundTerms(const Program& program, const Database& db,
                        std::vector<TermId>* atoms,
                        std::vector<TermId>* sets);

}  // namespace lps

#endif  // LPS_GROUND_HERBRAND_H_
