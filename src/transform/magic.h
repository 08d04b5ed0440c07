// Magic-set demand transformation [Bancilhon, Maier, Sagiv, Ullman,
// PODS 1986; Beeri & Ramakrishnan, PODS 1987]: rewrites a program so
// that bottom-up evaluation derives only the tuples a specific goal
// binding pattern can reach, instead of the full least model.
//
// Given a goal p(t1..tn) with a binding pattern ("adornment": each
// argument bound or free at execution time), the rewrite produces
//  * adorned answer predicates p_bf(...) - one per (predicate, pattern)
//    reached while propagating bindings left-to-right through rule
//    bodies;
//  * magic predicates m_p_bf(...) over the bound argument positions,
//    whose tuples are the subgoals actually demanded; every adorned
//    rule is guarded by a magic literal, and one guard rule per IDB
//    body occurrence feeds demand downward through the positive prefix
//    of the body;
//  * a seed: the caller inserts the goal's ground bound arguments into
//    the magic predicate of the goal's own adornment before evaluating.
//
// The fragment covered is the flat fragment with stratified negation
// and grouping: rules without quantifiers whose user-literal and head
// arguments are all ground terms or plain variables. Ground set and
// function constants count as ground - a set constant in a goal or a
// rule is a bound position like any other, since hash-consing makes it
// a single interned id. Grouping heads (Definition 14) are admitted
// with their key (non-grouped) positions demandable: the adorned copy
// keeps its GroupSpec, so each demanded key's group is computed from
// the complete witness set and equals the full-fixpoint group; the
// grouped set position itself is never demanded (a group's content
// depends on every body solution for the key) - a binding there stays
// a filter on the answer scan, and a goal binding *only* grouped
// positions falls back. Negated and all-free body predicates are not
// demand-restricted; their rules (and everything they reach) are
// copied unchanged so they evaluate to exactly their full relations.
// A rewrite that fails to stratify (magic guard edges can close a
// cycle through a grouping/negation boundary) falls back too, so the
// rewritten goal answer set is always identical to the full-fixpoint
// answer set. Anything outside the fragment (quantifiers, non-ground
// set/function-term arguments, active-domain enumeration) makes the
// rewrite report a fallback with a machine-readable reason instead of
// producing a program.
#ifndef LPS_TRANSFORM_MAGIC_H_
#define LPS_TRANSFORM_MAGIC_H_

#include <memory>
#include <string>
#include <vector>

#include "lang/program.h"

namespace lps {

class PlannerStats;

/// A goal-directed rewrite of a program: evaluate `program` after
/// seeding `seed_pred` with the goal's bound arguments, then read the
/// answers of the original goal from `goal` (the adorned answer
/// predicate with the original argument terms).
struct MagicProgram {
  Program program;
  /// The original goal re-targeted at its adorned answer predicate.
  Literal goal;
  /// Magic predicate to seed with the goal's bound argument values.
  PredicateId seed_pred = kInvalidPredicate;
  /// Goal argument positions (ascending) whose values seed `seed_pred`.
  std::vector<size_t> seed_positions;
  /// Every magic predicate the rewrite introduced (for stats).
  std::vector<PredicateId> magic_preds;
  /// Adorned answer predicates introduced (for stats / tests).
  std::vector<PredicateId> adorned_preds;
};

/// Result of attempting the rewrite: either a rewritten program or a
/// fallback with the reason demand evaluation is not applicable. A
/// fallback is not an error - the caller evaluates the full fixpoint
/// instead; Status is reserved for malformed inputs.
struct MagicRewriteResult {
  bool applied = false;
  std::string fallback_reason;  // set iff !applied
  std::unique_ptr<MagicProgram> rewrite;  // set iff applied
};

/// Attempts the magic rewrite of `in` for `goal`, where `bound[i]`
/// says goal argument i will be ground when the query executes
/// (`bound.size()` must equal the goal arity). A goal of more than 32
/// columns falls back whatever `bound` says. Free-standing and pure:
/// the returned program shares `in`'s TermStore but owns a signature
/// copy, so repeated rewrites never pollute the session signature.
/// The rewrite depends only on `in`'s *rules* (a Program holds no
/// facts; fact-import guard rules are emitted unconditionally for every
/// adorned predicate), so callers may cache it across fact mutations -
/// the caller seeds the evaluation database with the current facts
/// before running the rewritten program (Database::SeedFacts;
/// Session::rule_epoch() is the cache key).
/// `stats` (optional) lets a rule's sideways-information-passing order
/// follow the cost-based join order (eval/plan.h, DESIGN.md section
/// 17) when that order leaves fewer IDB body literals without demand
/// (evaluated in full) than source order does, so a selective literal
/// binds them first; otherwise the rule keeps source order. nullptr keeps source order everywhere,
/// byte-exact to the legacy rewrite.
/// Any valid SIP order yields the same answer set; only the size of
/// the intermediate magic/adorned relations changes.
Result<MagicRewriteResult> MagicRewrite(
    const Program& in, const Literal& goal, const std::vector<bool>& bound,
    const PlannerStats* stats = nullptr);

/// "bf"-style rendering of a binding pattern (b = bound, f = free).
std::string AdornmentString(const std::vector<bool>& bound);

}  // namespace lps

#endif  // LPS_TRANSFORM_MAGIC_H_
