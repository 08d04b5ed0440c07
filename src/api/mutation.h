// MutationBatch: the transactional fact-mutation surface of the
// Session API (api/session.h). A batch stages EDB inserts and retracts
// and applies them atomically on Commit():
//
//   auto batch = session.Mutate();
//   batch.Add("edge", {a, b});
//   batch.RetractText("edge(c, d)");
//   batch.Commit();          // or batch.Abort();
//
// Commit() nets the ops against the facts' base counts in the
// session database (Relation::base_count) in O(ops), bumps
// fact_epoch() (never rule_epoch(), so prepared-query rewrite caches
// survive), and - when the session database is at fixpoint -
// re-converges it: through the incremental maintainer
// (Options::incremental, eval/incremental.h) when the program is in
// the maintainable fragment, otherwise through a full from-scratch
// re-evaluation. Either way the post-commit database equals the
// from-scratch fixpoint of the mutated facts. On a session that is not
// at fixpoint, Commit() only updates the facts in the database (they
// are visible at once; a retract also drops every derived tuple, as
// Session::ResetDatabase() does); their consequences follow at the
// next Evaluate().
//
// Abort() (or destruction without Commit()) discards the batch with no
// state change: a predicate an Add() names that the signature does not
// know is declared only at Commit().
#ifndef LPS_API_MUTATION_H_
#define LPS_API_MUTATION_H_

#include <string>
#include <utility>
#include <vector>

#include "eval/relation.h"
#include "lang/signature.h"

namespace lps {

class Session;

class MutationBatch {
 public:
  // Move-only: a batch is a handle on its session's pending mutation.
  MutationBatch(MutationBatch&&) = default;
  MutationBatch(const MutationBatch&) = delete;
  MutationBatch& operator=(const MutationBatch&) = delete;
  ~MutationBatch() = default;  // un-committed batches discard silently

  /// Stages the insertion of ground fact pred(args). The string
  /// overload declares the predicate at Commit(), by inference from
  /// the argument sorts, when it is unknown. Errors on non-ground
  /// arguments, arity mismatch, or special predicates (CheckFact); a
  /// failed stage leaves the batch usable.
  Status Add(const std::string& pred, Tuple args);
  Status Add(PredicateId pred, Tuple args);

  /// Stages the retraction of fact pred(args). Retracting a tuple that
  /// is not a fact is a no-op at Commit(); retracting through a
  /// predicate name that neither the signature nor an earlier Add() of
  /// this batch knows is a no-op immediately.
  Status Retract(const std::string& pred, Tuple args);
  Status Retract(PredicateId pred, Tuple args);

  /// Parses "pred(t1, ..., tn)" (one parser invocation each) and
  /// stages it. Trailing '.' is accepted.
  Status AddText(const std::string& fact);
  Status RetractText(const std::string& fact);

  /// Staged operations so far.
  size_t pending() const { return ops_.size(); }

  /// Applies the batch: the facts' counts first (in staging order;
  /// later ops win over earlier ones on the same tuple), then the
  /// database re-convergence described in the header comment. The
  /// batch is consumed either way; a second Commit() is an error.
  /// Errors from re-convergence surface here with the facts already
  /// updated.
  Status Commit();

  /// Discards the batch; no state change. Idempotent.
  void Abort();

 private:
  friend class Session;
  explicit MutationBatch(Session* session) : session_(session) {}

  struct Op {
    bool insert;
    PredicateId pred;  // kInvalidPredicate: fresh_[fresh], declared later
    Tuple args;
    size_t fresh = 0;
  };

  Status Stage(bool insert, PredicateId pred, Tuple args);
  Status StageNamed(bool insert, const std::string& pred, Tuple args);
  Status StageText(bool insert, const std::string& fact);

  Session* session_;
  std::vector<Op> ops_;
  // Predicates Add() named that the signature did not know, with the
  // sorts inferred from their first Add(): declared at Commit().
  std::vector<std::pair<std::string, std::vector<Sort>>> fresh_;
  bool done_ = false;
};

}  // namespace lps

#endif  // LPS_API_MUTATION_H_
