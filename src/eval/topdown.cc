#include "eval/topdown.h"

#include <algorithm>

#include "term/printer.h"
#include "unify/unify.h"

namespace lps {

namespace {

// Early-exit sentinel used by negation-as-failure and Provable.
Status FoundSentinel() {
  return Status(StatusCode::kAlreadyExists, "__lps_found__");
}
bool IsFound(const Status& st) {
  return st.code() == StatusCode::kAlreadyExists &&
         st.message() == "__lps_found__";
}

}  // namespace

TopDownSolver::TopDownSolver(const Program* program, const Database* db,
                             TopDownOptions options)
    : program_(program), db_(db), options_(options) {}

TopDownSolver::GoalKey TopDownSolver::Canonicalize(const Literal& goal) {
  TermStore* store = program_->store();
  // Rename variables to canonical ones in first-occurrence order.
  Substitution rename;
  std::vector<TermId> vars;
  for (TermId a : goal.args) store->CollectVariables(a, &vars);
  for (size_t i = 0; i < vars.size(); ++i) {
    rename.Bind(vars[i],
                store->MakeVariable("$c" + std::to_string(i),
                                    store->sort(vars[i])));
  }
  GoalKey key;
  key.push_back(goal.pred);
  for (TermId a : goal.args) key.push_back(rename.Apply(store, a));
  return key;
}

Status TopDownSolver::Solve(const Literal& goal,
                            std::vector<Substitution>* answers) {
  return Solve(goal, [&](const Substitution& restricted) {
    answers->push_back(restricted);
    return Status::OK();
  });
}

Status TopDownSolver::Solve(const Literal& goal,
                            const AnswerCallback& on_answer) {
  TermStore* store = program_->store();
  std::vector<TermId> goal_vars;
  for (TermId a : goal.args) store->CollectVariables(a, &goal_vars);

  std::vector<std::vector<TermId>> seen;
  Substitution empty;
  return SolveGoal(goal, &empty, 0, [&](Substitution* sol) -> Status {
    std::vector<TermId> fp;
    fp.reserve(goal_vars.size());
    for (TermId v : goal_vars) fp.push_back(sol->Apply(store, v));
    if (std::find(seen.begin(), seen.end(), fp) != seen.end()) {
      return Status::OK();
    }
    seen.push_back(fp);
    Substitution restricted;
    for (size_t i = 0; i < goal_vars.size(); ++i) {
      if (fp[i] != goal_vars[i]) restricted.Bind(goal_vars[i], fp[i]);
    }
    return on_answer(restricted);
  });
}

Result<bool> TopDownSolver::Provable(const Literal& goal) {
  Substitution empty;
  Status st = SolveGoal(goal, &empty, 0,
                        [](Substitution*) { return FoundSentinel(); });
  if (IsFound(st)) return true;
  if (!st.ok()) return st;
  return false;
}

Status TopDownSolver::SolveGoal(const Literal& goal, Substitution* theta,
                                size_t depth, const Cont& cont) {
  if (depth > options_.max_depth) {
    return Status::ResourceExhausted("top-down depth limit exceeded");
  }
  if (++stats_.subgoals > options_.max_subgoals) {
    return Status::ResourceExhausted("top-down subgoal limit exceeded");
  }
  TermStore* store = program_->store();
  const Signature& sig = program_->signature();

  std::vector<TermId> args(goal.args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    args[i] = theta->Apply(store, goal.args[i]);
  }

  if (!goal.positive) {
    // Negation as failure on a ground subgoal.
    for (TermId a : args) {
      if (!store->is_ground(a)) {
        return Status::SafetyError(
            "negated goal " + sig.Name(goal.pred) +
            " is not ground (floundering)");
      }
    }
    Literal pos{goal.pred, args, true};
    Substitution sub;
    Status st = SolveGoal(pos, &sub, depth + 1,
                          [](Substitution*) { return FoundSentinel(); });
    if (IsFound(st)) return Status::OK();  // positive holds: negation fails
    if (!st.ok()) return st;
    return cont(theta);
  }

  if (sig.IsBuiltin(goal.pred)) {
    return EvalBuiltin(store, goal.pred, args, options_.builtins,
                       [&](const Substitution& ext) {
                         Substitution next = *theta;
                         next.ComposeWith(store, ext);
                         return cont(&next);
                       });
  }
  return SolveUserGoal(goal.pred, args, theta, depth, cont);
}

Status TopDownSolver::SolveUserGoal(PredicateId pred,
                                    const std::vector<TermId>& args,
                                    Substitution* theta, size_t depth,
                                    const Cont& cont) {
  TermStore* store = program_->store();
  Literal resolved{pred, args, true};
  GoalKey key = Canonicalize(resolved);

  auto emit_answers = [&](const std::vector<Tuple>& answers) -> Status {
    Unifier unifier(store, options_.builtins.unify);
    for (const Tuple& ans : answers) {
      std::vector<Substitution> unifiers;
      LPS_RETURN_IF_ERROR(unifier.EnumerateTuples(
          args, std::span<const TermId>(ans.data(), ans.size()),
          &unifiers));
      for (const Substitution& u : unifiers) {
        Substitution next = *theta;
        next.ComposeWith(store, u);
        LPS_RETURN_IF_ERROR(cont(&next));
      }
    }
    return Status::OK();
  };

  auto it = table_.find(key);
  if (it != table_.end()) {
    if (it->second.computing) {
      ++stats_.cycles_cut;
      it->second.cycle_hit = true;
      return Status::OK();  // cut the cyclic branch
    }
    if (it->second.complete) {
      ++stats_.table_hits;
      return emit_answers(it->second.answers);
    }
    // Incomplete entry from an earlier cycle: fall through and recompute.
  }

  TableEntry& entry = table_[key];
  entry.computing = true;
  entry.cycle_hit = false;
  entry.answers.clear();

  auto record = [&](Substitution* sol) -> Status {
    Tuple inst;
    inst.reserve(args.size());
    for (TermId a : args) inst.push_back(sol->Apply(store, a));
    if (std::find(entry.answers.begin(), entry.answers.end(), inst) ==
        entry.answers.end()) {
      entry.answers.push_back(std::move(inst));
      if (entry.answers.size() > options_.max_answers_per_goal) {
        return Status::ResourceExhausted("answer limit per goal");
      }
    }
    return Status::OK();
  };

  Status st = Status::OK();

  // Stored tuples: the facts and anything already derived.
  if (const Relation* rel = db_->FindRelation(pred); rel != nullptr) {
    // Zero-copy: solving never inserts into the database, so arena
    // views stay valid across the scan. Tombstoned rows are skipped.
    Unifier unifier(store, options_.builtins.unify);
    std::vector<Substitution> unifiers;
    for (RowId r = 0; r < rel->size() && st.ok(); ++r) {
      if (!rel->IsLive(r)) continue;
      unifiers.clear();
      st = unifier.EnumerateTuples(args, rel->row(r), &unifiers);
      for (size_t i = 0; i < unifiers.size() && st.ok(); ++i) {
        st = record(&unifiers[i]);
      }
    }
  }

  // Clauses.
  if (st.ok()) {
    for (const Clause& clause : program_->clauses()) {
      if (clause.head.pred != pred) continue;
      if (clause.grouping.has_value()) {
        st = Status::Unimplemented(
            "grouping clauses are not supported top-down; use the "
            "bottom-up engine");
        break;
      }
      ++stats_.clause_resolutions;

      // Rename clause variables apart.
      Substitution rename;
      for (TermId v : ClauseVariables(*store, clause)) {
        rename.Bind(v, store->MakeFreshVariable(
                           store->symbols().Name(store->symbol(v)),
                           store->sort(v)));
      }
      std::vector<TermId> head_args(clause.head.args.size());
      for (size_t i = 0; i < head_args.size(); ++i) {
        head_args[i] = rename.Apply(store, clause.head.args[i]);
      }

      Unifier unifier(store, options_.builtins.unify);
      std::vector<Substitution> unifiers;
      st = unifier.EnumerateTuples(
          args,
          std::span<const TermId>(head_args.data(), head_args.size()),
          &unifiers);
      if (!st.ok()) break;

      for (Substitution& mgu : unifiers) {
        // Resolve quantifiers: solve quantifier-free literals first,
        // then expand ground ranges (vacuous truth for empty ranges).
        std::vector<TermId> qvars;
        std::vector<TermId> qranges;
        for (const Quantifier& q : clause.quantifiers) {
          qvars.push_back(rename.Apply(store, q.var));
          qranges.push_back(rename.Apply(store, q.range));
        }
        std::vector<Literal> free_lits, quant_lits;
        for (const Literal& lit : clause.body) {
          Literal l = lit;
          for (TermId& a : l.args) a = rename.Apply(store, a);
          bool has_q = false;
          std::vector<TermId> lv;
          CollectLiteralVariables(*store, l, &lv);
          for (TermId v : lv) {
            if (std::find(qvars.begin(), qvars.end(), v) != qvars.end()) {
              has_q = true;
              break;
            }
          }
          (has_q ? quant_lits : free_lits).push_back(std::move(l));
        }

        Substitution start = mgu;
        st = SolveConjunction(
            free_lits, depth + 1, &start,
            [&](Substitution* after_free) -> Status {
              // Ranges must now be ground.
              std::vector<std::vector<TermId>> ranges;
              for (TermId r : qranges) {
                TermId rg = after_free->Apply(store, r);
                if (!store->is_ground(rg) ||
                    store->kind(rg) != TermKind::kSet) {
                  return Status::SafetyError(
                      "quantifier range not ground in top-down "
                      "resolution: " +
                      TermToString(*store, r));
                }
                if (store->args(rg).empty()) {
                  // Vacuous truth: the whole body holds.
                  return record(after_free);
                }
                auto e = store->args(rg);
                ranges.emplace_back(e.begin(), e.end());
              }
              if (quant_lits.empty() && !ranges.empty()) {
                // Quantified conjunction contains only free literals,
                // which already hold.
                return record(after_free);
              }
              if (ranges.empty()) {
                return record(after_free);
              }
              // Expand the quantified literals over all combinations.
              std::vector<Literal> expanded;
              std::vector<size_t> idx(ranges.size(), 0);
              for (;;) {
                Substitution combo;
                for (size_t i = 0; i < ranges.size(); ++i) {
                  combo.Bind(qvars[i], ranges[i][idx[i]]);
                }
                for (const Literal& l : quant_lits) {
                  Literal inst = l;
                  for (TermId& a : inst.args) {
                    a = combo.Apply(store, a);
                  }
                  if (std::find(expanded.begin(), expanded.end(), inst) ==
                      expanded.end()) {
                    expanded.push_back(std::move(inst));
                  }
                }
                size_t i = 0;
                while (i < ranges.size() &&
                       ++idx[i] == ranges[i].size()) {
                  idx[i] = 0;
                  ++i;
                }
                if (i == ranges.size()) break;
              }
              return SolveConjunction(expanded, depth + 1, after_free,
                                      [&](Substitution* full) {
                                        return record(full);
                                      });
            });
        if (!st.ok()) break;
      }
      if (!st.ok()) break;
    }
  }

  entry.computing = false;
  if (!st.ok()) {
    entry.answers.clear();
    return st;
  }
  entry.complete = !entry.cycle_hit;

  return emit_answers(entry.answers);
}

Status TopDownSolver::SolveConjunction(const std::vector<Literal>& body,
                                       size_t depth, Substitution* theta,
                                       const Cont& cont) {
  if (body.empty()) return cont(theta);
  TermStore* store = program_->store();
  const Signature& sig = program_->signature();

  // Pick the first "ready" literal: a builtin whose mode is satisfied,
  // a ground negation, or any positive user literal.
  size_t pick = body.size();
  for (size_t i = 0; i < body.size() && pick == body.size(); ++i) {
    const Literal& l = body[i];
    std::vector<bool> ground(l.args.size());
    bool all = true;
    for (size_t j = 0; j < l.args.size(); ++j) {
      ground[j] = store->is_ground(theta->Apply(store, l.args[j]));
      all = all && ground[j];
    }
    if (!l.positive) {
      if (all) pick = i;
    } else if (sig.IsBuiltin(l.pred)) {
      if (BuiltinModeSupported(l.pred, ground)) pick = i;
    } else {
      pick = i;
    }
  }
  if (pick == body.size()) pick = 0;  // blocked: surface the mode error

  std::vector<Literal> rest;
  rest.reserve(body.size() - 1);
  for (size_t i = 0; i < body.size(); ++i) {
    if (i != pick) rest.push_back(body[i]);
  }
  return SolveGoal(body[pick], theta, depth + 1,
                   [&](Substitution* next) {
                     return SolveConjunction(rest, depth + 1, next, cont);
                   });
}

}  // namespace lps
