// Shared goal-execution machinery behind PreparedQuery (api/query.cc)
// and the concurrent query server (serve/server.cc): streaming a
// relation's rows that match a partially ground goal pattern, and
// running a builtin goal plan.
//
// RelationScanSource only reads: it probes the relation with the const
// Relation::Lookup, which never mutates it, so any number of threads
// may stream over one frozen relation concurrently. A caller that owns
// the database builds the pattern's index first
// (Database::EnsureIndex with GroundMask(patterns)); over a snapshot,
// whose indexes were frozen at publication, a mask never indexed
// before the freeze falls back to a scan (index_hit() is then false).
#ifndef LPS_API_GOAL_EXEC_H_
#define LPS_API_GOAL_EXEC_H_

#include <span>
#include <unordered_set>
#include <vector>

#include "api/answer_cursor.h"
#include "eval/builtins.h"
#include "eval/database.h"
#include "eval/plan.h"
#include "term/substitution.h"
#include "unify/unify.h"

namespace lps {

// Lazily streams the rows of one relation that match the (partially
// ground) goal argument patterns, using the relation's hash index on
// the ground positions. This is the Execute() fast path: answers are
// produced one Next() at a time as zero-copy views straight into the
// relation's row arena (the database is frozen while a cursor streams
// - Evaluate()/ResetDatabase() invalidate cursors), so callers that
// stop pulling stop paying and matched rows are never copied.
//
// The row-matching algorithm mirrors the kScan step of
// BottomUpEvaluator::ExecSteps (eval/bottomup.cc) but needs only
// match-or-not per row, where the evaluator must continue into every
// unifier extension under delta gating - keep the two in sync.
class RelationScanSource final : public AnswerSource {
 public:
  /// `rel` may be null (predicate never stored - the stream is empty).
  /// `store` is the *caller's* store (a worker's private clone when
  /// serving): it must share the relation's TermId prefix, i.e. be the
  /// relation's store itself or a TermStore::Clone() descendant of it.
  RelationScanSource(TermStore* store, UnifyOptions unify,
                     const Relation* rel, std::vector<TermId> patterns);

  Result<bool> Next(TupleRef* out) override;
  void Rewind() override { pos_ = 0; }

  /// False when the probe had to fall back to scanning because no
  /// index covering every row matched the mask (ServeStats counts
  /// these).
  bool index_hit() const { return index_hit_; }

 private:
  // One row matches when the non-indexed positions can be consistently
  // bound: repeated variables must agree, complex patterns (set or
  // function terms containing variables) go through set unification.
  Result<bool> Matches(TupleRef row);

  TermStore* store_;
  UnifyOptions unify_;
  const Relation* rel_;
  std::vector<TermId> patterns_;
  uint32_t mask_;
  bool index_hit_ = true;
  std::vector<RowId> indices_;
  size_t pos_ = 0;
};

/// Bound-column mask of a goal pattern: the bit of every ground
/// position (ColumnBit, so none past column 31).
uint32_t GroundMask(const TermStore& store, std::span<const TermId> patterns);

// Runs a builtin goal plan (active-domain enumeration steps followed by
// the builtin itself) eagerly, emitting one tuple of substituted goal
// arguments per distinct solution. Only reads the database's active
// domains, so it can run against a frozen snapshot database; new terms
// a builtin computes (sums, unions) intern into `store`, which must be
// private to the caller on concurrent paths.
class GoalPlanExecutor {
 public:
  GoalPlanExecutor(TermStore* store, const Database* db,
                   const BuiltinOptions& builtins, const Literal& goal)
      : store_(store), db_(db), builtins_(builtins), goal_(goal) {}

  Status Run(const std::vector<PlanStep>& steps,
             const Substitution& initial, std::vector<Tuple>* out);

 private:
  Status Emit(Substitution* theta);
  Status Exec(const std::vector<PlanStep>& steps, size_t idx,
              Substitution* theta);

  TermStore* store_;
  const Database* db_;
  const BuiltinOptions& builtins_;
  const Literal& goal_;
  std::vector<Tuple>* out_ = nullptr;
  std::unordered_set<Tuple, TupleHash> seen_;
};

}  // namespace lps

#endif  // LPS_API_GOAL_EXEC_H_
