#include "api/goal_exec.h"

#include <functional>
#include <span>
#include <unordered_set>

namespace lps {

Result<PreparedGoal> PrepareGoal(const TermStore& store,
                                 const Program& program, LanguageMode mode,
                                 Literal goal) {
  const Signature& sig = program.signature();
  LPS_RETURN_IF_ERROR(ValidateGoal(store, sig, goal, mode));
  PreparedGoal out;
  out.plan = BuildGoalPlan(store, sig, program, goal);
  CollectLiteralVariables(store, goal, &out.vars);
  out.goal = std::move(goal);
  return out;
}

AppliedGoal ApplyGoal(TermStore* store, const Literal& goal,
                      const Substitution& bindings) {
  AppliedGoal out;
  out.args.resize(goal.args.size());
  for (size_t i = 0; i < goal.args.size(); ++i) {
    out.args[i] = bindings.Apply(store, goal.args[i]);
    if (!store->is_ground(out.args[i])) continue;
    out.mask |= ColumnBit(i);
    out.any_bound = true;
  }
  return out;
}

RelationScanSource::RelationScanSource(TermStore* store,
                                       UnifyOptions unify,
                                       const Relation* rel,
                                       AppliedGoal pattern,
                                       std::shared_ptr<const void> owner)
    : owner_(std::move(owner)),
      store_(store),
      unify_(unify),
      rel_(rel),
      patterns_(std::move(pattern.args)),
      mask_(pattern.mask) {
  // The probe reads its key only at the mask's (ground) columns.
  if (rel != nullptr) index_hit_ = rel->Lookup(mask_, patterns_, &indices_);
}

Result<bool> RelationScanSource::Next(TupleRef* out) {
  while (pos_ < indices_.size()) {
    TupleRef row = rel_->row(indices_[pos_++]);
    Substitution ext;
    std::vector<Substitution> unifiers;
    LPS_ASSIGN_OR_RETURN(bool match, MatchRow(store_, unify_, patterns_,
                                              mask_, row, &ext, &unifiers));
    if (match) {
      *out = row;
      return true;
    }
  }
  return false;
}

Status AnswerBuiltinGoal(TermStore* store, const Database& db,
                         const BuiltinOptions& builtins, const Literal& goal,
                         const std::vector<PlanStep>& steps,
                         const Substitution& bindings,
                         std::vector<Tuple>* out, size_t max_answers,
                         std::chrono::steady_clock::time_point deadline) {
  std::unordered_set<Tuple, TupleHash> seen;
  uint32_t deadline_tick = 0;
  // Reaching the cap unwinds the enumeration with a status that this
  // function turns back into OK.
  bool full = false;
  std::function<Status(size_t, Substitution*)> run =
      [&](size_t idx, Substitution* theta) -> Status {
    LPS_RETURN_IF_ERROR(CheckDeadline(deadline, &deadline_tick));
    if (idx < steps.size()) {
      return ExecBuiltinStep(
          store, db, builtins, std::span<const Literal>(&goal, 1),
          steps[idx], theta,
          [&](Substitution* next) { return run(idx + 1, next); });
    }
    Tuple t;
    t.reserve(goal.args.size());
    for (TermId a : goal.args) t.push_back(theta->Apply(store, a));
    // Enumeration prefixes can reach the same answer twice; dedup.
    if (seen.insert(t).second) out->push_back(std::move(t));
    if (max_answers != 0 && seen.size() == max_answers) {
      full = true;
      return Status::OutOfRange("answer cap reached");
    }
    return Status::OK();
  };
  Substitution theta = bindings;
  Status status = run(0, &theta);
  return full ? Status::OK() : status;
}

Result<DemandRewriteCache::Entry*> DemandRewriteCache::Get(
    const Program& program, const Literal& goal, const AppliedGoal& applied,
    const Database& db, bool reorder, bool* built) {
  *built = false;
  auto it = entries_.find(applied.mask);
  if (it != entries_.end()) return &it->second;
  std::vector<bool> bound(applied.args.size());
  for (size_t i = 0; i < bound.size(); ++i) {
    bound[i] = program.store()->is_ground(applied.args[i]);
  }
  PlannerStats sip;
  if (reorder) sip = PlannerStats::FromDatabase(db, program);
  LPS_ASSIGN_OR_RETURN(
      MagicRewriteResult rw,
      MagicRewrite(program, goal, bound, reorder ? &sip : nullptr));
  *built = true;
  Entry& entry = entries_[applied.mask];  // a miss: a fresh entry
  entry.rewrite = std::move(rw.rewrite);
  entry.fallback_reason = std::move(rw.fallback_reason);
  return &entry;
}

Status EvaluateDemand(DemandRewriteCache::Entry* entry,
                      const AppliedGoal& applied, const Database& src,
                      const Database::FactSeed& seed, Database* index_home,
                      const EvalOptions& options, Database* db,
                      EvalStats* stats, bool* compiled) {
  const MagicProgram& rw = *entry->rewrite;
  Tuple magic_seed;
  magic_seed.reserve(rw.seed_positions.size());
  for (size_t pos : rw.seed_positions) {
    magic_seed.push_back(applied.args[pos]);
  }
  db->AddTuple(rw.seed_pred, magic_seed);
  // The rewrite carries no facts (transform/magic.h): they come from
  // `src` at execution time, so a rewrite cached before a fact change
  // answers over the changed facts.
  db->SeedFacts(src, seed, index_home);
  BottomUpEvaluator eval(&rw.program, db, options);
  // Evaluate() is Compile(PlanningStats()) then Run: a compiled program
  // planned from equal statistics is what that compile would build.
  std::optional<PlannerStats> planning = eval.PlanningStats();
  *compiled = !entry->compiled || entry->compiled->stats != planning;
  if (*compiled) {
    LPS_ASSIGN_OR_RETURN(entry->compiled, eval.Compile(std::move(planning)));
  }
  LPS_RETURN_IF_ERROR(eval.Run(*entry->compiled));
  if (stats != nullptr) {
    *stats = eval.stats();
    stats->magic_predicates = rw.magic_preds.size();
    for (PredicateId m : rw.magic_preds) {
      stats->magic_tuples += db->RelationSize(m);
    }
  }
  return Status::OK();
}

}  // namespace lps
