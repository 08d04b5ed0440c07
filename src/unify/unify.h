// Two-sorted unification with set terms.
//
// Section 3.2 of the paper notes that the procedural semantics of LPS
// needs *arbitrary* unifiers rather than a single mgu: two set terms can
// be unified in several incomparable ways ({x, a} and {a, b} unify with
// x/b but also - because set elements may collapse - {x, y} and {a}
// unify with x/a, y/a). This module enumerates the complete finite set
// of unifiers using the classical three-way branching rule for bounded
// set terms (no "rest" patterns, so the enumeration always terminates).
#ifndef LPS_UNIFY_UNIFY_H_
#define LPS_UNIFY_UNIFY_H_

#include <optional>
#include <span>
#include <vector>

#include "base/status.h"
#include "term/substitution.h"
#include "term/term.h"

namespace lps {

struct UnifyOptions {
  /// Abort enumeration beyond this many unifiers.
  size_t max_unifiers = 100000;
  /// Guard against pathological branching.
  size_t max_branches = 1000000;
};

/// Enumerates unifiers of the term pair (a, b).
class Unifier {
 public:
  explicit Unifier(TermStore* store, UnifyOptions options = {})
      : store_(store), options_(options) {}

  /// Appends to `out` a complete set of unifiers of `a` and `b`:
  /// for every substitution sigma with a.sigma == b.sigma there is a
  /// theta in `out` and a rho with sigma == rho after theta (on the
  /// variables of a and b). Duplicate unifiers are removed.
  Status Enumerate(TermId a, TermId b, std::vector<Substitution>* out);

  /// Tuple version: unifies argument lists position-wise (used for
  /// literal-vs-literal unification in resolution and for matching
  /// patterns against stored tuples).
  Status EnumerateTuples(std::span<const TermId> a,
                         std::span<const TermId> b,
                         std::vector<Substitution>* out);

  /// First unifier or nullopt. Convenience for the common non-branching
  /// cases.
  std::optional<Substitution> First(TermId a, TermId b);

 private:
  struct Frame;

  TermStore* store_;
  UnifyOptions options_;
  size_t branches_ = 0;
};

/// True if `var` (given its sort) may be bound to `term`.
bool SortAllowsBinding(const TermStore& store, TermId var, TermId term);

}  // namespace lps

#endif  // LPS_UNIFY_UNIFY_H_
