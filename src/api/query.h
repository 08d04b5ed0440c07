// PreparedQuery: a goal parsed, mode-validated and planned exactly
// once, re-executable against the session's *current* database any
// number of times - the compile-once/execute-many half of the Session
// API. Repeated executions never touch the parser (see
// Session::parse_count()); a plain relation lookup streams its answers
// lazily through an AnswerCursor, using the relation's hash indexes on
// whatever goal positions are ground.
//
//   Session session(LanguageMode::kLPS);
//   session.Load("edge(a, b). path(X, Y) :- ...");
//   session.Evaluate();
//   auto q = session.Prepare("path(X, Y)");
//   q->Bind("X", session.store()->MakeConstant("a"));
//   for (const Tuple& t : *q->Execute()) { ... }
//
// A PreparedQuery holds interned term ids and a predicate id, both of
// which are stable under further Load()/Evaluate()/ResetDatabase()
// calls, so one handle serves the whole session lifetime.
#ifndef LPS_API_QUERY_H_
#define LPS_API_QUERY_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/answer_cursor.h"
#include "api/goal_exec.h"
#include "api/options.h"
#include "eval/plan.h"
#include "lang/clause.h"
#include "term/substitution.h"
#include "transform/magic.h"

namespace lps {

class Session;

class PreparedQuery {
 public:
  /// An empty handle; executing it is an error. Assign from
  /// Session::Prepare().
  PreparedQuery() = default;

  const Literal& goal() const { return goal_; }
  /// Distinct goal variables in first-occurrence order - the bindable
  /// parameters.
  const std::vector<TermId>& variables() const { return vars_; }
  /// The execution plan built once at Prepare() time (eval/plan.h).
  const BodyPlan& plan() const { return plan_.body; }
  /// The full goal plan, including the demand-eligibility decision.
  const GoalPlan& goal_plan() const { return plan_; }
  /// Renders the goal in surface syntax.
  std::string ToString() const;

  /// Binds the goal variable named `var` (e.g. "X") to a ground term
  /// for subsequent executions. Errors if the goal has no such
  /// variable, the value is non-ground, or the sorts conflict.
  Status Bind(std::string_view var, TermId value);
  /// Parses `term` (one parser invocation) and binds it to `var`.
  Status BindText(std::string_view var, const std::string& term);
  /// Removes all parameter bindings.
  void ClearBindings();
  const Substitution& bindings() const { return bindings_; }

  /// Answers the goal from the session's current database (use after
  /// Evaluate()): relation scans stream lazily, builtin goals run their
  /// plan eagerly into the cursor. ExecuteDemand() is the goal-directed
  /// alternative that needs no prior Evaluate().
  Result<AnswerCursor> Execute();

  /// Goal-directed execution: evaluates a magic-set rewrite of the
  /// program (only the slice this goal's binding pattern demands) in a
  /// private database seeded with the session's facts - relations of
  /// predicates that head no rule are shared for the evaluation's
  /// duration, not copied (Database::SeedFacts) - so no prior
  /// Session::Evaluate() is needed. The session's tuples are left
  /// untouched; it may gain an index the evaluation probed. The
  /// returned cursor owns the answer relation alone. The rewrite cache
  /// and the evaluation routine are the query server's too
  /// (api/goal_exec.h); the rewrite is cached per binding pattern and
  /// invalidated when Session::Compile() commits new clauses. Goals
  /// outside the magic fragment (all-free pattern, builtin or
  /// rule-less predicates, quantifiers/grouping/set-terms in the
  /// reachable slice) fall back to the full fixpoint on the session
  /// database - running Evaluate() first unless the session is
  /// converged - with the reason recorded in
  /// Session::eval_stats().demand_fallback_reason. Either way the
  /// answer set is identical to the full-fixpoint answers.
  Result<AnswerCursor> ExecuteDemand();

  /// True if Execute() would yield at least one answer. On the lazy
  /// relation-scan path this stops at the first match; builtin goals
  /// run their plan to completion first (see Execute()).
  Result<bool> Holds();

  /// Solves the goal top-down (SLD with set unification) against the
  /// program; no prior Evaluate() required.
  Result<AnswerCursor> SolveTopDown();
  Result<AnswerCursor> SolveTopDown(const Options& options);

 private:
  friend class Session;
  PreparedQuery(Session* session, PreparedGoal goal);

  // One demand run's answers: the rewrite's answer relation alone, in
  // a database over the rewrite's signature, which rides along.
  struct DemandAnswers {
    std::shared_ptr<const MagicProgram> rewrite;
    Database db;
  };

  /// The scan/builtin path against the session database.
  Result<AnswerCursor> ExecuteScan(AppliedGoal applied);
  /// ExecuteDemand() once the goal's binding is applied.
  Result<AnswerCursor> ExecuteDemand(AppliedGoal applied);
  /// Streams the answers of a demand run that match `applied`.
  AnswerCursor StreamAnswers(std::shared_ptr<DemandAnswers> answers,
                             AppliedGoal applied);
  /// Records in the session's EvalStats why demand did not narrow this
  /// execution; the magic counters describe the same attempt, so they
  /// must not linger from an earlier goal-directed run.
  void RecordFallback(std::string reason);
  /// On a rule_epoch() change: drops the cached rewrites and results
  /// and re-decides demand eligibility (rules may have appeared since
  /// Prepare()).
  void RefreshDemandState();

  Session* session_ = nullptr;
  Literal goal_;
  std::vector<TermId> vars_;
  GoalPlan plan_;
  Substitution bindings_;

  DemandRewriteCache rewrites_;
  // Each mask's last *materialized result*: the run's answers (shared,
  // so a streaming cursor keeps them alive across cache invalidation
  // and query copies), the applied arguments and the fact epoch it ran
  // under, and its statistics. A later execution whose bound positions
  // are a superset of the mask with the same values on the rewrite's
  // seed positions is subsumed: the cached fixpoint ran with a weaker
  // restriction, so its answer relation already holds every answer -
  // the scan just filters the extra bound positions (DESIGN.md section
  // 17).
  // Stale epochs miss; rule changes clear every entry
  // (RefreshDemandState). Only rewritten runs are kept, and no goal
  // wider than the 32-column mask is rewritten (MagicRewrite).
  struct DemandResult {
    std::shared_ptr<DemandAnswers> answers;
    std::vector<TermId> args;
    uint64_t fact_epoch = 0;
    EvalStats stats;
  };
  std::map<uint32_t, DemandResult> results_;
  uint64_t demand_epoch_ = 0;  // Session::rule_epoch() at cache fill
};

}  // namespace lps

#endif  // LPS_API_QUERY_H_
