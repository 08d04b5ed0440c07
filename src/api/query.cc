#include "api/query.h"

#include <bit>

#include "api/goal_exec.h"
#include "api/session.h"
#include "eval/bottomup.h"
#include "eval/builtins.h"
#include "unify/unify.h"

namespace lps {

PreparedQuery::PreparedQuery(Session* session, PreparedGoal goal)
    : session_(session),
      goal_(std::move(goal.goal)),
      vars_(std::move(goal.vars)),
      plan_(std::move(goal.plan)) {}

std::string PreparedQuery::ToString() const {
  if (session_ == nullptr) return "<empty query>";
  return LiteralToString(*session_->store(),
                         session_->program()->signature(), goal_);
}

Status PreparedQuery::Bind(std::string_view var, TermId value) {
  if (session_ == nullptr) {
    return Status::InvalidArgument("binding an empty PreparedQuery");
  }
  TermStore* store = session_->store();
  for (TermId v : vars_) {
    if (store->symbols().Name(store->symbol(v)) != var) continue;
    if (!store->is_ground(value)) {
      return Status::InvalidArgument("parameter value for " +
                                     std::string(var) + " must be ground");
    }
    if (!SortAllowsBinding(*store, v, value)) {
      return Status::SortError("parameter value for " + std::string(var) +
                               " has the wrong sort in " + ToString());
    }
    bindings_.Bind(v, value);
    return Status::OK();
  }
  return Status::NotFound("goal " + ToString() + " has no variable " +
                          std::string(var));
}

Status PreparedQuery::BindText(std::string_view var,
                               const std::string& term) {
  if (session_ == nullptr) {
    return Status::InvalidArgument("binding an empty PreparedQuery");
  }
  LPS_ASSIGN_OR_RETURN(TermId value, session_->ParseTerm(term));
  return Bind(var, value);
}

void PreparedQuery::ClearBindings() { bindings_.Clear(); }

void PreparedQuery::RecordFallback(std::string reason) {
  session_->eval_stats_.demand_fallback_reason = std::move(reason);
  session_->eval_stats_.magic_predicates = 0;
  session_->eval_stats_.magic_tuples = 0;
}

void PreparedQuery::RefreshDemandState() {
  if (demand_epoch_ == session_->rule_epoch()) return;
  // The *rules* changed since the cache was filled: drop the cached
  // rewrites and results and re-decide eligibility (rules for the goal
  // predicate may have appeared or vanished since Prepare()).
  // Fact-only mutations deliberately do not land here - the rewrite
  // carries no facts (transform/magic.cc) and ExecuteDemand() seeds
  // the current facts at execution time, so cached rewrites stay
  // correct across fact churn.
  rewrites_.Clear();
  results_.clear();
  demand_epoch_ = session_->rule_epoch();
  plan_.demand_ineligible_reason.clear();
  plan_.demand_candidate =
      GoalDemandCandidate(session_->program()->signature(),
                          *session_->program(), goal_,
                          &plan_.demand_ineligible_reason);
}

Result<AnswerCursor> PreparedQuery::Execute() {
  if (session_ == nullptr) {
    return Status::InvalidArgument("executing an empty PreparedQuery");
  }
  LPS_RETURN_IF_ERROR(session_->Compile());
  return ExecuteScan(ApplyGoal(session_->store(), goal_, bindings_));
}

Result<AnswerCursor> PreparedQuery::ExecuteScan(AppliedGoal applied) {
  TermStore* store = session_->store();
  const BuiltinOptions& builtins = session_->options().builtins;
  if (!session_->program()->signature().IsBuiltin(goal_.pred)) {
    const Relation* rel =
        session_->database()->EnsureIndex(goal_.pred, applied.mask);
    return AnswerCursor(std::make_unique<RelationScanSource>(
        store, builtins.unify, rel, std::move(applied)));
  }
  std::vector<Tuple> rows;
  LPS_RETURN_IF_ERROR(AnswerBuiltinGoal(store, *session_->database(),
                                        builtins, goal_, plan_.body.steps,
                                        bindings_, &rows));
  return AnswerCursor::FromTuples(std::move(rows));
}

Result<AnswerCursor> PreparedQuery::ExecuteDemand() {
  if (session_ == nullptr) {
    return Status::InvalidArgument("executing an empty PreparedQuery");
  }
  LPS_RETURN_IF_ERROR(session_->Compile());
  RefreshDemandState();
  return ExecuteDemand(ApplyGoal(session_->store(), goal_, bindings_));
}

Result<AnswerCursor> PreparedQuery::ExecuteDemand(AppliedGoal applied) {
  // Fall back to the full fixpoint on the session database; the
  // answers are the same, demand just could not narrow the work. A
  // converged session already holds it: its evaluation counters stay.
  auto fall_back = [&](std::string reason) -> Result<AnswerCursor> {
    if (!session_->converged()) LPS_RETURN_IF_ERROR(session_->Evaluate());
    RecordFallback(std::move(reason));
    return ExecuteScan(std::move(applied));
  };
  if (!plan_.demand_candidate) {
    return fall_back(plan_.demand_ineligible_reason);
  }
  if (!applied.any_bound) {
    return fall_back("all-free goal: demand restricts nothing");
  }

  // Subsumption (DESIGN.md section 17): a memoized result whose mask
  // is a subset of this request's, for the same seed values under the
  // current fact set, already contains every answer this goal can have
  // - its fixpoint ran with a weaker (or equal) restriction. Stream
  // that database through the full pattern (the scan filters the extra
  // ground positions) instead of running rewrite + fixpoint again.
  // Among candidates, the widest mask wins: it is the most restricted
  // run, so the scan filters the fewest surplus rows.
  const DemandResult* best = nullptr;
  int best_bits = -1;
  for (const auto& [m, r] : results_) {
    if ((m & applied.mask) != m) continue;  // not a subset of this request
    if (r.fact_epoch != session_->fact_epoch()) continue;
    bool same_seed = true;
    for (size_t pos : r.answers->rewrite->seed_positions) {
      same_seed = same_seed && applied.args[pos] == r.args[pos];
    }
    if (!same_seed) continue;
    if (std::popcount(m) > best_bits) {
      best = &r;
      best_bits = std::popcount(m);
    }
  }
  if (best != nullptr) {
    ++session_->demand_subsumption_count_;
    EvalStats stats = best->stats;
    stats.subsumption_hits = 1;
    session_->set_eval_stats(std::move(stats));
    return StreamAnswers(best->answers, std::move(applied));
  }

  Database* session_db = session_->database();
  const Program& program = *session_->program();
  bool built = false;
  LPS_ASSIGN_OR_RETURN(
      DemandRewriteCache::Entry* entry,
      rewrites_.Get(program, goal_, applied, *session_db,
                    session_->options().reorder, &built));
  if (built) ++session_->demand_rewrite_count_;
  if (entry->rewrite == nullptr) return fall_back(entry->fallback_reason);
  std::shared_ptr<const MagicProgram> rw = entry->rewrite;

  // The session may write its own database, so it is the index home:
  // an index the evaluation needs on a shared relation is built there
  // once, for every later execution (Database::SeedFacts).
  Database db(session_->store(), &rw->program.signature());
  EvalStats stats;
  bool compiled = false;
  Status es = EvaluateDemand(entry, applied, *session_db,
                             session_db->ListFactSeed(program), session_db,
                             session_->options().eval(), &db, &stats,
                             &compiled);
  if (compiled) ++session_->demand_compile_count_;
  LPS_RETURN_IF_ERROR(es);
  // Keep the answer relation alone: a memoized result or a live cursor
  // must not hold session relations shared, or the next commit would
  // copy them on write.
  auto answers = std::make_shared<DemandAnswers>(DemandAnswers{
      rw, Database(session_->store(), &rw->program.signature())});
  answers->db.AliasRelation(rw->goal.pred, db);
  results_[applied.mask] = {answers, applied.args, session_->fact_epoch(),
                            stats};
  session_->set_eval_stats(std::move(stats));
  return StreamAnswers(std::move(answers), std::move(applied));
}

AnswerCursor PreparedQuery::StreamAnswers(
    std::shared_ptr<DemandAnswers> answers, AppliedGoal applied) {
  // Cursors only read the answers; the one write is this index build.
  const Relation* rel =
      answers->db.EnsureIndex(answers->rewrite->goal.pred, applied.mask);
  return AnswerCursor(std::make_unique<RelationScanSource>(
      session_->store(), session_->options().builtins.unify, rel,
      std::move(applied), std::move(answers)));
}

Result<bool> PreparedQuery::Holds() {
  LPS_ASSIGN_OR_RETURN(AnswerCursor cursor, Execute());
  Tuple t;
  bool any = cursor.Next(&t);
  if (!cursor.status().ok()) return cursor.status();
  return any;
}

Result<AnswerCursor> PreparedQuery::SolveTopDown() {
  if (session_ == nullptr) {
    return Status::InvalidArgument("executing an empty PreparedQuery");
  }
  return SolveTopDown(session_->options());
}

Result<AnswerCursor> PreparedQuery::SolveTopDown(const Options& options) {
  if (session_ == nullptr) {
    return Status::InvalidArgument("executing an empty PreparedQuery");
  }
  LPS_RETURN_IF_ERROR(session_->Compile());
  TermStore* store = session_->store();
  Literal bound = goal_;
  for (TermId& a : bound.args) a = bindings_.Apply(store, a);
  TopDownSolver solver(session_->program(), session_->database(),
                       options.topdown());
  std::vector<Tuple> rows;
  LPS_RETURN_IF_ERROR(solver.Solve(bound, [&](const Substitution& answer) {
    Tuple t;
    t.reserve(bound.args.size());
    for (TermId a : bound.args) t.push_back(answer.Apply(store, a));
    rows.push_back(std::move(t));
    return Status::OK();
  }));
  return AnswerCursor::FromTuples(std::move(rows));
}

}  // namespace lps
