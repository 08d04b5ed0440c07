// Structural validation of programs against the language definitions:
//
//  * Definition 5  - clause heads must be non-special atomic formulas;
//  * Definitions 1-2 - sort discipline: argument sorts match predicate
//    sort strings, function arguments are atoms, quantified variables
//    are atom-sorted and ranges set-sorted;
//  * LPS mode      - at most one level of set nesting (Section 2);
//  * ELPS mode     - arbitrary nesting (Section 5);
//  * LDL mode      - ELPS plus grouping heads (Definition 14, Section 6).
//
// Negated body literals are accepted in every mode (the Section 4.2
// extension); use ProgramUsesNegation to detect them when minimal-model
// semantics is required.
#ifndef LPS_LANG_VALIDATE_H_
#define LPS_LANG_VALIDATE_H_

#include <span>

#include "lang/program.h"

namespace lps {

enum class LanguageMode {
  kLPS,   // one level of set nesting
  kELPS,  // arbitrary finite nesting
  kLDL,   // ELPS + grouping clauses
};

/// Validates a single clause. `mode` selects the language restrictions.
Status ValidateClause(const TermStore& store, const Signature& sig,
                      const Clause& clause, LanguageMode mode);

/// The checks every ground fact p(args) passes before it is stored or
/// staged (Definition 5 holds for facts too): p is not special, args
/// match p's arity, and every arg is ground.
Status CheckFact(const TermStore& store, const Signature& sig,
                 PredicateId pred, std::span<const TermId> args);

/// Validates a single (possibly non-ground) query goal: arity and
/// argument sorts must match the predicate's declaration and set
/// nesting must respect the language mode. Goals may name special
/// predicates (unlike clause heads).
Status ValidateGoal(const TermStore& store, const Signature& sig,
                    const Literal& goal, LanguageMode mode);

/// True if any clause has a negated body literal.
bool ProgramUsesNegation(const Program& program);

/// True if any clause has a grouping head.
bool ProgramUsesGrouping(const Program& program);

}  // namespace lps

#endif  // LPS_LANG_VALIDATE_H_
