// Top-down (SLD-style) resolution with set unification - the
// procedural semantics sketched in Section 3.2. Because set terms do
// not have most general unifiers, resolution branches over the complete
// unifier set produced by unify/unify.h.
//
// The solver memoizes answers per canonical goal ("tabling"). Cyclic
// goals (a goal recursively depending on itself with the same canonical
// form) fail in the recursive branch, so the solver is complete for
// structurally-recursive programs (Examples 5-6: the recursive subgoal
// shrinks the set argument) but not for cyclic recursion like
// transitive closure - use the bottom-up engine for those; answers
// computed under a detected cycle are not memoized.
#ifndef LPS_EVAL_TOPDOWN_H_
#define LPS_EVAL_TOPDOWN_H_

#include <map>
#include <vector>

#include "eval/builtins.h"
#include "eval/database.h"
#include "lang/program.h"

namespace lps {

struct TopDownOptions {
  size_t max_depth = 256;
  size_t max_subgoals = 5000000;
  size_t max_answers_per_goal = 100000;
  BuiltinOptions builtins;
};

struct TopDownStats {
  size_t subgoals = 0;
  size_t clause_resolutions = 0;
  size_t table_hits = 0;
  size_t cycles_cut = 0;
};

class TopDownSolver {
 public:
  /// `db` supplies the stored tuples: the facts, plus whatever a
  /// bottom-up pass derived into it already.
  TopDownSolver(const Program* program, const Database* db,
                TopDownOptions options = {});

  using AnswerCallback = std::function<Status(const Substitution&)>;

  /// Enumerates solutions of `goal`: one substitution per answer,
  /// restricted to the goal's variables (deduplicated).
  Status Solve(const Literal& goal, std::vector<Substitution>* answers);

  /// Streaming form: calls `on_answer` once per deduplicated answer
  /// instead of materializing a vector. Used by the AnswerCursor path.
  Status Solve(const Literal& goal, const AnswerCallback& on_answer);

  /// True if the (possibly non-ground) goal has at least one solution.
  Result<bool> Provable(const Literal& goal);

  const TopDownStats& stats() const { return stats_; }

 private:
  struct TableEntry {
    bool computing = false;
    bool complete = false;
    bool cycle_hit = false;
    std::vector<Tuple> answers;  // instantiated goal-argument tuples
  };
  using GoalKey = std::vector<TermId>;  // pred id then canonical args

  GoalKey Canonicalize(const Literal& goal);

  using Cont = std::function<Status(Substitution*)>;

  Status SolveGoal(const Literal& goal, Substitution* theta, size_t depth,
                   const Cont& cont);
  Status SolveUserGoal(PredicateId pred, const std::vector<TermId>& args,
                       Substitution* theta, size_t depth, const Cont& cont);
  Status SolveConjunction(const std::vector<Literal>& body, size_t depth,
                          Substitution* theta, const Cont& cont);

  const Program* program_;
  const Database* db_;
  TopDownOptions options_;
  TopDownStats stats_;
  std::map<GoalKey, TableEntry> table_;
};

}  // namespace lps

#endif  // LPS_EVAL_TOPDOWN_H_
