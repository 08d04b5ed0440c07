// Read-safe resolution of ground query-parameter text against a
// frozen TermStore.
//
// Client threads arrive with parameter values as text ("n17", "42",
// "{a, b}", "f(a, 1)"). Interning them through the parser would
// mutate the shared store, so the serve read path resolves them with
// the const TermStore::TryLookup* probes instead. A miss is
// information, not failure:
//
//  * a missing plain *constant* can never be derived by evaluation
//    (builtins produce only ints and sets; rules only combine existing
//    terms), so any goal bound to it has a trivially empty answer -
//    the point-query fast path for EDB-derived predicates;
//  * a missing int / set / function term could still be *derived* by
//    the demand evaluation (arithmetic, grouping), so the caller
//    interns it into a private scratch store (InternGroundTerm on a
//    worker's TermStore clone) and evaluates normally. On a pure
//    relation scan even these misses mean an empty answer: stored
//    rows only ever contain store-resident ids.
#ifndef LPS_SERVE_RESOLVE_H_
#define LPS_SERVE_RESOLVE_H_

#include <string>

#include "term/term.h"

namespace lps::serve {

enum class MissKind : uint8_t {
  kNone,      // resolved; Resolution::id is valid
  kConstant,  // a plain constant in the text was never interned:
              // underivable, the answer is empty on every path
  kOther,     // an int / set / function subterm is absent: empty on a
              // scan, but a demand evaluation could still derive it -
              // intern into a scratch store and evaluate
};

struct Resolution {
  TermId id = kInvalidTerm;  // valid iff missing == kNone
  MissKind missing = MissKind::kNone;
};

/// Resolves `text` (a ground term of the parser's `term` production,
/// parse/parser.h: constant, integer, function term or set literal)
/// against `store` without mutating it. Status errors are reserved for
/// malformed text (kParseError) and variables (kInvalidArgument); an
/// absent term is a Resolution with missing != kNone.
Result<Resolution> TryResolveGroundTerm(const TermStore& store,
                                        const std::string& text);

/// Same grammar, interning: builds the term in `store` (a worker's
/// private clone on the serve path - never the shared snapshot store).
Result<TermId> InternGroundTerm(TermStore* store, const std::string& text);

}  // namespace lps::serve

#endif  // LPS_SERVE_RESOLVE_H_
