// Incremental view maintenance (DESIGN.md section 16): re-converges an
// already-evaluated database after a batch of EDB fact mutations
// without a from-scratch fixpoint.
//
//  * Inserts run a delta semi-naive pass seeded from only the new EDB
//    rows, on the evaluator's join machinery over the live arena:
//    per-predicate watermarks are taken at the pre-batch relation
//    sizes, so the first round joins exactly the batch.
//  * Retracts run delete-rederive (DRed): an over-delete fixpoint
//    tombstones every tuple with a derivation through a retracted one
//    (explicit-rows delta joins against the still-intact pre-batch
//    database); re-derivation then revives each casualty that still
//    has a derivation - one counting-style witness sweep against the
//    surviving database (complete by itself for non-recursive
//    programs), followed by delta propagation of the revivals for
//    recursive ones (the fragment is positive Horn, so re-derivation
//    is a monotone fixpoint and needs no stratification).
//
// The result is tuple-for-tuple identical to re-evaluating the mutated
// program from scratch (Database::ToCanonicalString equality; arena
// insertion order legitimately differs). Only the Horn fragment is
// maintained this way - negation, grouping, quantifiers, and domain
// enumeration are non-monotone under deletion (and grouping even under
// insertion), so Maintain() declines and the caller falls back to a
// full re-evaluation.
#ifndef LPS_EVAL_INCREMENTAL_H_
#define LPS_EVAL_INCREMENTAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "eval/bottomup.h"

namespace lps {

class IncrementalMaintainer {
 public:
  /// `program` and `db` must outlive the maintainer. Preconditions for
  /// Maintain(): `program` already reflects the batch (retracted facts
  /// removed, inserted facts appended), and `db` holds the converged
  /// fixpoint of the pre-batch program.
  IncrementalMaintainer(const Program* program, Database* db,
                        EvalOptions options = {});

  /// One mutation, as a ground tuple over program->store().
  struct FactOp {
    PredicateId pred;
    Tuple args;
  };

  /// Multiset of the post-batch program's facts: (pred, args) ->
  /// physical copy count. Session keeps one as a persistent index;
  /// Maintain() borrows it to answer "is this condemned tuple still an
  /// EDB fact" per casualty instead of scanning the whole fact list.
  using FactCounts =
      std::unordered_map<PredicateId,
                         std::unordered_map<Tuple, size_t, TupleHash>>;

  /// Applies the batch: retracts (DRed) first, then inserts (delta
  /// semi-naive). Returns true when the database was incrementally
  /// re-converged; false when the program is outside the maintainable
  /// fragment (see ineligible_reason()), in which case the database is
  /// untouched and the caller must re-evaluate from scratch. Errors
  /// propagate from rule execution (safety violations, tuple limits).
  /// `edb_counts` must describe exactly the post-batch program's fact
  /// multiset; DRed's EDB-protection pass then costs O(casualties), not
  /// O(facts).
  Result<bool> Maintain(const std::vector<FactOp>& inserts,
                        const std::vector<FactOp>& retracts,
                        const FactCounts& edb_counts);

  /// Why the last Maintain() returned false; empty when it ran.
  const std::string& ineligible_reason() const {
    return ineligible_reason_;
  }

  /// Work counters: delta_rounds / overdeleted_tuples /
  /// rederived_tuples, plus the usual rule-run and storage numbers.
  const EvalStats& stats() const { return eval_.stats(); }

 private:
  Status Retract(const std::vector<FactOp>& retracts);
  Status Insert(const std::vector<FactOp>& inserts);

  /// Joins the delta `spec` through `rule`'s delta-first plan for the
  /// literal it restricts (leading with the delta keeps a maintenance
  /// round's cost proportional to the delta, not to the largest body
  /// relation), handing each derived ground head tuple to `fn` (Status
  /// fn(const Tuple&)). Flat rules run on the flat join kernel over the
  /// live database, the rest on ExecSteps.
  template <typename Fn>
  Status RunDelta(const BottomUpEvaluator::CompiledRule& rule,
                  const DeltaSpec& spec, Fn fn);

  /// True when some instance of `rule` derives exactly the tuple `t`
  /// from the current (live) database: binds the head against `t` and
  /// searches the body head-bound, stopping at the first witness.
  Result<bool> Derives(const BottomUpEvaluator::CompiledRule& rule,
                       const Tuple& t);

  const Program* program_;
  Database* db_;
  BottomUpEvaluator eval_;  // compiled rules + ExecSteps
  std::string ineligible_reason_;
  const FactCounts* edb_counts_ = nullptr;  // borrowed for one Maintain()
  FlatScratch scratch_;  // kernel state, reused across the whole batch
};

}  // namespace lps

#endif  // LPS_EVAL_INCREMENTAL_H_
