#include "api/query.h"

#include <bit>

#include "api/goal_exec.h"
#include "api/session.h"
#include "eval/bottomup.h"
#include "eval/builtins.h"
#include "unify/unify.h"

namespace lps {

namespace {

// Streams the adorned answer relation of a demand (magic-set)
// evaluation. The private database and the rewritten program (whose
// signature the database points at) ride along with the source, so
// the cursor stays valid however long the caller streams and across
// demand-cache invalidation.
class DemandScanSource final : public AnswerSource {
 public:
  // The database is shared: the demand cache memoizes it as the
  // pattern's materialized result, so a later subsumed execution can
  // stream the same converged database through its own cursor while
  // this one is still alive.
  DemandScanSource(std::shared_ptr<const MagicProgram> rewrite,
                   std::shared_ptr<Database> db, TermStore* store,
                   UnifyOptions unify, std::vector<TermId> patterns)
      : rewrite_(std::move(rewrite)), db_(std::move(db)) {
    const Relation* rel =
        db_->EnsureIndex(rewrite_->goal.pred, GroundMask(*store, patterns));
    inner_ = std::make_unique<RelationScanSource>(store, unify, rel,
                                                  std::move(patterns));
  }

  Result<bool> Next(TupleRef* out) override { return inner_->Next(out); }
  void Rewind() override { inner_->Rewind(); }

 private:
  std::shared_ptr<const MagicProgram> rewrite_;
  std::shared_ptr<Database> db_;
  std::unique_ptr<RelationScanSource> inner_;
};

}  // namespace

PreparedQuery::PreparedQuery(Session* session, Literal goal, GoalPlan plan)
    : session_(session), goal_(std::move(goal)), plan_(std::move(plan)) {
  CollectLiteralVariables(*session_->store(), goal_, &vars_);
}

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

bool PreparedQuery::AnyArgBound() const {
  TermStore* store = session_->store();
  for (TermId a : goal_.args) {
    if (store->is_ground(bindings_.Apply(store, a))) return true;
  }
  return false;
}

void PreparedQuery::RefreshDemandState() {
  if (demand_epoch_ == session_->rule_epoch()) return;
  // The *rules* changed since the cache was filled: drop the cached
  // rewrites and re-decide eligibility (rules for the goal predicate
  // may have appeared or vanished since Prepare()). Fact-only
  // mutations deliberately do not land here - the rewrite carries no
  // facts (transform/magic.cc) and ExecuteDemand() seeds the current
  // facts at execution time, so cached rewrites stay correct across
  // fact churn.
  demand_cache_.clear();
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
  if (session_->options().demand) {
    RefreshDemandState();
    // Any bound position - including ones past the 32-column mask -
    // routes to the demand path, which reports its own fallback
    // reasons (e.g. "goal arity exceeds 32 bound positions").
    if (plan_.demand_candidate && AnyArgBound()) {
      return ExecuteDemand();
    }
    // Shallow ineligibility (all-free pattern, builtin or rule-less
    // goal): exactly the legacy path, with the reason on record. The
    // magic counters describe the same demand attempt as the reason,
    // so they must not linger from an earlier goal-directed run.
    session_->eval_stats_.demand_fallback_reason =
        plan_.demand_candidate ? "all-free goal: demand restricts nothing"
                               : plan_.demand_ineligible_reason;
    session_->eval_stats_.magic_predicates = 0;
    session_->eval_stats_.magic_tuples = 0;
  }
  return ExecuteScan();
}

Result<AnswerCursor> PreparedQuery::ExecuteScan() {
  TermStore* store = session_->store();
  const Signature& sig = session_->program()->signature();
  const BuiltinOptions& builtins = session_->options().builtins;

  if (!sig.IsBuiltin(goal_.pred)) {
    std::vector<TermId> patterns(goal_.args.size());
    for (size_t i = 0; i < goal_.args.size(); ++i) {
      patterns[i] = bindings_.Apply(store, goal_.args[i]);
    }
    const Relation* rel = session_->database()->EnsureIndex(
        goal_.pred, GroundMask(*store, patterns));
    return AnswerCursor(std::make_unique<RelationScanSource>(
        store, builtins.unify, rel, std::move(patterns)));
  }

  std::vector<Tuple> rows;
  GoalPlanExecutor exec(store, session_->database(), builtins, goal_);
  LPS_RETURN_IF_ERROR(exec.Run(plan_.body.steps, bindings_, &rows));
  return AnswerCursor::FromTuples(std::move(rows));
}

Result<AnswerCursor> PreparedQuery::ExecuteDemand() {
  if (session_ == nullptr) {
    return Status::InvalidArgument("executing an empty PreparedQuery");
  }
  LPS_RETURN_IF_ERROR(session_->Compile());
  RefreshDemandState();
  TermStore* store = session_->store();

  // Fall back to the full fixpoint on the session database; the
  // answers are the same, demand just could not narrow the work. A
  // converged session already holds it: its evaluation counters stay.
  auto fall_back = [&](std::string reason) -> Result<AnswerCursor> {
    if (!session_->converged()) LPS_RETURN_IF_ERROR(session_->Evaluate());
    session_->eval_stats_.demand_fallback_reason = std::move(reason);
    session_->eval_stats_.magic_predicates = 0;
    session_->eval_stats_.magic_tuples = 0;
    return ExecuteScan();
  };

  if (!plan_.demand_candidate) {
    return fall_back(plan_.demand_ineligible_reason);
  }
  // One pass over the arguments: the applied terms, the per-position
  // boundness, and the (<= 32-column) cache mask. `patterns` is reused
  // for the seed values and the answer scan below.
  std::vector<TermId> patterns(goal_.args.size());
  std::vector<bool> bound(goal_.args.size());
  uint32_t mask = 0;
  bool any_bound = false;
  for (size_t i = 0; i < goal_.args.size(); ++i) {
    patterns[i] = bindings_.Apply(store, goal_.args[i]);
    bound[i] = store->is_ground(patterns[i]);
    any_bound = any_bound || bound[i];
    if (bound[i]) mask |= ColumnBit(i);
  }
  if (!any_bound) {
    return fall_back("all-free goal: demand restricts nothing");
  }

  // Rewrites are cached per binding mask until the program changes
  // (RefreshDemandState() cleared the cache above if it did). Goals
  // wider than the 32-bit mask are never cached - two patterns that
  // differ only past column 32 would alias to one entry.
  const bool cacheable = goal_.args.size() <= 32;

  // Subsumption (DESIGN.md section 17): a cached entry whose bound
  // mask is a subset of this request's, holding a materialized result
  // for the same seed values under the current fact set, already
  // contains every answer this goal can have - its fixpoint ran with a
  // weaker (or equal) restriction. Stream that database through the
  // full pattern (the scan filters the extra ground positions) instead
  // of running rewrite + fixpoint again. Among candidates, the widest
  // mask wins: it is the most restricted cached run, so the scan
  // filters the fewest surplus rows.
  if (cacheable) {
    const DemandEntry* best = nullptr;
    int best_bits = -1;
    for (const auto& [m, e] : demand_cache_) {
      if ((m & mask) != m) continue;  // not a subset of this request
      if (e.rewrite == nullptr || e.result_db == nullptr) continue;
      if (e.result_fact_epoch != session_->fact_epoch()) continue;
      bool same_seed = true;
      size_t k = 0;
      for (size_t pos : e.rewrite->seed_positions) {
        same_seed = same_seed && patterns[pos] == e.result_seed[k++];
      }
      if (!same_seed) continue;
      int bits = std::popcount(m);
      if (bits > best_bits) {
        best = &e;
        best_bits = bits;
      }
    }
    if (best != nullptr) {
      ++session_->demand_subsumption_count_;
      EvalStats stats = best->result_stats;
      stats.subsumption_hits = 1;
      stats.demand_fallback_reason.clear();
      // The ingest block (last LoadFactsParallel) survives overwrites.
      stats.ingest = session_->eval_stats_.ingest;
      session_->eval_stats_ = std::move(stats);
      return AnswerCursor(std::make_unique<DemandScanSource>(
          best->rewrite, best->result_db, store,
          session_->options().builtins.unify, std::move(patterns)));
    }
  }

  DemandEntry uncached;
  DemandEntry* entry = nullptr;
  if (cacheable) {
    auto it = demand_cache_.find(mask);
    if (it != demand_cache_.end()) entry = &it->second;
  }
  if (entry == nullptr) {
    ++session_->demand_rewrite_count_;
    // SIP statistics (transform/magic.h): the session database's
    // measured cardinalities - the facts alone before any evaluation.
    // Gated on the same knob as rule planning; off keeps the legacy
    // source-order rewrite byte-exact. The rewrite is still cached on
    // rule_epoch(): a SIP order picked under stale statistics stays
    // *correct* (any order is), only its intermediate relation sizes
    // drift until rules change and the cache refills.
    PlannerStats sip_stats;
    const PlannerStats* sip = nullptr;
    if (session_->options().reorder) {
      sip_stats = PlannerStats::FromDatabase(*session_->database());
      for (const Clause& c : session_->program()->clauses()) {
        sip_stats.MarkDerived(c.head.pred);
      }
      sip = &sip_stats;
    }
    LPS_ASSIGN_OR_RETURN(
        MagicRewriteResult rw,
        MagicRewrite(*session_->program(), goal_, bound, sip));
    DemandEntry fresh;
    fresh.fallback_reason = std::move(rw.fallback_reason);
    if (rw.applied) fresh.rewrite = std::move(rw.rewrite);
    if (cacheable) {
      entry =
          &demand_cache_.emplace(mask, std::move(fresh)).first->second;
    } else {
      uncached = std::move(fresh);
      entry = &uncached;
    }
  }
  if (entry->rewrite == nullptr) {
    return fall_back(entry->fallback_reason);
  }
  std::shared_ptr<const MagicProgram> rw = entry->rewrite;

  // Seed the magic predicate with the goal's bound values and the
  // private database with the session's *current* facts - sharing the
  // relations of predicates that head no rule, copying only the base
  // rows of the others, and building an index the evaluation needs on
  // a shared relation in the session's own (Database::SeedFacts) - so
  // a rewrite cached before a fact mutation answers over the mutated
  // facts. Then run the rewritten program to fixpoint.
  Database* session_db = session_->database();
  Database db(store, &rw->program.signature());
  Tuple seed;
  seed.reserve(rw->seed_positions.size());
  for (size_t pos : rw->seed_positions) {
    seed.push_back(patterns[pos]);
  }
  db.AddTuple(rw->seed_pred, seed);
  db.SeedFacts(*session_db, session_db->ListFactSeed(*session_->program()),
               session_db);
  BottomUpEvaluator eval(&rw->program, &db, session_->options().eval());
  LPS_RETURN_IF_ERROR(eval.Evaluate());

  EvalStats stats = eval.stats();
  stats.magic_predicates = rw->magic_preds.size();
  for (PredicateId m : rw->magic_preds) {
    stats.magic_tuples += db.RelationSize(m);
  }
  // Keep the answer relation alone: a cached result or a live cursor
  // must not hold session relations shared, or the next commit would
  // copy them on write.
  auto result = std::make_shared<Database>(store, &rw->program.signature());
  result->AliasRelation(rw->goal.pred, db);

  // Memoize the converged database as this mask's materialized result:
  // later executions whose binding subsumes (or repeats) this one
  // stream it directly. Nothing writes to the database after this
  // point - cursors only read it. `entry` is stable: map nodes do not
  // move, and the uncached (> 32 columns) case skips memoization.
  if (cacheable) {
    entry->result_db = result;
    entry->result_seed = seed;
    entry->result_fact_epoch = session_->fact_epoch();
    entry->result_stats = stats;
  }
  // The ingest block (last LoadFactsParallel) survives overwrites.
  stats.ingest = session_->eval_stats_.ingest;
  session_->eval_stats_ = std::move(stats);

  return AnswerCursor(std::make_unique<DemandScanSource>(
      std::move(rw), std::move(result), store,
      session_->options().builtins.unify, std::move(patterns)));
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
