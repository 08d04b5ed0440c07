// Incremental view maintenance (DESIGN.md section 16): re-converges an
// already-evaluated database after a batch of EDB fact mutations
// without a from-scratch fixpoint.
//
//  * Inserts are the evaluator's own semi-naive delta rounds
//    (BottomUpEvaluator::Reconverge) seeded at watermarks taken at the
//    pre-batch relation sizes: the first round joins exactly the
//    batch's new rows, appended or revived, and each later round the
//    previous round's derivations.
//  * Retracts run Backward/Forward (Motik, Nenov, Piro & Horrocks,
//    AAAI 2015): a deletion candidate is tombstoned only after a check
//    finds no derivation of it from proved facts. The check chains
//    backward through the rule instances deriving the candidate
//    (iteratively, with a per-commit memo so each fact is checked at
//    most once), and every fact it proves forward-saturates, so a
//    fact on a cycle never justifies itself. Only facts found
//    underivable propagate, by delta joins through them over the live
//    database, to the next candidates. A tuple that keeps a
//    derivation is never tombstoned, so a relation the retract does
//    not really change keeps its content and a later freeze shares it.
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

#include <memory>
#include <string>
#include <vector>

#include "eval/bottomup.h"

namespace lps {

class IncrementalMaintainer {
 public:
  /// `program` and `db` must outlive the maintainer. Preconditions for
  /// Maintain(): `db` holds the converged fixpoint of the pre-batch
  /// facts, with the base counts of the retracted facts already lowered
  /// to 0 and those of the inserted ones not yet raised - the batch
  /// sets them once Maintain() has propagated the new rows.
  IncrementalMaintainer(const Program* program, Database* db,
                        EvalOptions options = {});
  ~IncrementalMaintainer();

  /// One mutation, as a ground tuple over program->store().
  struct FactOp {
    PredicateId pred;
    Tuple args;
  };

  /// Applies the batch: retracts (Backward/Forward) first, then
  /// inserts (delta semi-naive). Returns true when the database was
  /// incrementally re-converged; false when the program is outside the
  /// maintainable fragment (see ineligible_reason()), in which case the
  /// database is untouched and the caller must re-evaluate from
  /// scratch. Errors propagate from rule execution (safety violations,
  /// tuple limits) and leave the database partially maintained: the
  /// caller must discard it. A checked tuple whose row still has a
  /// base count is a fact, and proved at once.
  Result<bool> Maintain(const std::vector<FactOp>& inserts,
                        const std::vector<FactOp>& retracts);

  /// Why the last Maintain() returned false; empty when it ran.
  const std::string& ineligible_reason() const {
    return ineligible_reason_;
  }

  /// Work counters: delta_rounds (the insert pass's rounds) /
  /// overdeleted_tuples (tuples a retract put in doubt) /
  /// rederived_tuples (in-doubt tuples proved to keep a derivation),
  /// plus the usual rule-run, tuples_derived (rule derivations, never
  /// the inserted facts) and storage numbers.
  const EvalStats& stats() const { return eval_.stats(); }

 private:
  /// A stored row of one relation: the unit a retract checks.
  struct FactRef {
    PredicateId pred;
    RowId row;
  };
  /// Where a fact stands during one retract: it stays (kProved); it is
  /// in doubt and unchecked (kOpen); a running top-level check visited
  /// it and has not proved it yet (kPending); or it can no longer be
  /// proved this commit (kDisproved).
  enum class Standing : uint8_t { kProved, kOpen, kPending, kDisproved };

  /// One retract's Backward/Forward state (defined in incremental.cc).
  struct Retraction;

  Status Retract(const std::vector<FactOp>& retracts);
  Status Insert(const std::vector<FactOp>& inserts);

  /// Backward/Forward pieces, all over the Retraction `bf_`. Check runs
  /// one top-level check of `f` to completion; Visit marks `f` checked
  /// and either proves it at once or pushes a frame of its open rule
  /// instances; Prove marks `f` proved and forward-saturates.
  Status Check(FactRef f);
  Status Visit(FactRef f);
  Status Prove(FactRef f);
  Standing Classify(FactRef f) const;
  /// Appends the (pred, row) of every user body fact of `rule`'s
  /// instance under `apply` to *out.
  template <typename Apply>
  void BodyFacts(const CompiledRule& rule, Apply apply,
                 std::vector<FactRef>* out);

  /// Runs `steps` of `rule` over the live database - `spec` restricting
  /// one literal, and `head` (when non-null) pre-binding the head -
  /// and calls fn(apply) (Status fn(auto apply)) for every rule
  /// instance found, apply(TermId) resolving a clause term under the
  /// instance's bindings. Stops early once *stop is true. Flat rules
  /// run on the flat join kernel, the rest on ExecSteps.
  template <typename Fn>
  Status ForEachInstance(const CompiledRule& rule,
                         const std::vector<PlanStep>& steps,
                         const DeltaSpec& spec, const Tuple* head,
                         const bool* stop, Fn fn);

  const Program* program_;
  Database* db_;
  BottomUpEvaluator eval_;  // ExecSteps and the insert rounds
  CompiledProgram compiled_;  // the rules, compiled once per commit
  std::string ineligible_reason_;
  FlatScratch scratch_;  // kernel state, reused across the whole batch
  std::unique_ptr<Retraction> bf_;  // one Retract()'s state
};

}  // namespace lps

#endif  // LPS_EVAL_INCREMENTAL_H_
