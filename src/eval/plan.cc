#include "eval/plan.h"

#include <algorithm>

#include "eval/builtins.h"
#include "eval/database.h"

namespace lps {

void PlannerStats::MarkDerived(PredicateId pred) { derived_.insert(pred); }

double PlannerStats::EstimateScan(PredicateId pred, uint32_t mask) const {
  auto it = rels_.find(pred);
  double rows = 0.0;
  // Cost is rows *walked*, not rows yielded: tombstoned rows stay in
  // the arena and in every posting list, and scans/probes skip them
  // one by one. Charging by the physical count steers plans away from
  // relations that churn has filled with dead rows (arena_rows >>
  // live_rows) - the live count alone would call such a scan cheap.
  const size_t phys =
      it == rels_.end()
          ? 0
          : std::max(it->second.arena_rows, it->second.live_rows);
  if (phys > 0) {
    rows = static_cast<double>(phys);
  } else if (derived_.count(pred) != 0) {
    // Rule-defined and empty so far: the relation grows during the
    // fixpoint, so "unknown", never "empty".
    rows = kUnknownRows;
  }
  if (mask == 0 || rows <= 0.0) return rows;

  const RelationStats* rs = it != rels_.end() ? &it->second : nullptr;
  if (rs != nullptr) {
    // Exact-mask index: the average bucket size is the measured mean
    // matching-row count per probe.
    for (const RelationStats::MaskStats& m : rs->masks) {
      if (m.mask != mask || m.distinct_keys == 0 || m.rows_indexed == 0) {
        continue;
      }
      double per_key = static_cast<double>(m.rows_indexed) /
                       static_cast<double>(m.distinct_keys);
      return std::max(1.0, std::min(rows, per_key));
    }
  }
  // Per-column composition: 1/distinct for columns with a measured
  // single-column index, a default selectivity for the rest.
  double sel = 1.0;
  for (size_t i = 0; i < Relation::kMaxIndexedColumns; ++i) {
    if (!MaskHasColumn(mask, i)) continue;
    double col = kDefaultColumnSelectivity;
    if (rs != nullptr) {
      for (const RelationStats::MaskStats& m : rs->masks) {
        if (m.mask == ColumnBit(i) && m.distinct_keys > 0) {
          col = 1.0 / static_cast<double>(m.distinct_keys);
          break;
        }
      }
    }
    sel *= col;
  }
  return std::max(1.0, rows * sel);
}

PlannerStats PlannerStats::FromDatabase(const Database& db) {
  PlannerStats s;
  for (auto& [pred, stats] : db.CollectStats()) {
    s.rels_[pred] = std::move(stats);
  }
  return s;
}

PlannerStats PlannerStats::FromDatabase(const Database& db,
                                        const Program& program) {
  PlannerStats s;
  for (const Clause& c : program.clauses()) {
    s.MarkDerived(c.head.pred);
    for (const Literal& lit : c.body) {
      if (s.rels_.count(lit.pred) != 0) continue;
      const Relation* rel = db.FindRelation(lit.pred);
      if (rel != nullptr) s.rels_[lit.pred] = rel->Stats();
    }
  }
  return s;
}

namespace {

bool Contains(const std::vector<TermId>& v, TermId t) {
  return std::find(v.begin(), v.end(), t) != v.end();
}

void AddUnique(std::vector<TermId>* v, TermId t) {
  if (!Contains(*v, t)) v->push_back(t);
}

// Variables of one literal.
std::vector<TermId> LitVars(const TermStore& store, const Literal& lit) {
  std::vector<TermId> vars;
  CollectLiteralVariables(store, lit, &vars);
  return vars;
}

// An argument term counts as bound if all its variables are bound.
bool TermBound(const TermStore& store, TermId t,
               const std::vector<TermId>& bound) {
  if (store.is_ground(t)) return true;
  std::vector<TermId> vars;
  store.CollectVariables(t, &vars);
  return std::all_of(vars.begin(), vars.end(),
                     [&](TermId v) { return Contains(bound, v); });
}

StepKind EnumKindFor(const TermStore& store, TermId var) {
  switch (store.sort(var)) {
    case Sort::kAtom:
      return StepKind::kEnumAtom;
    case Sort::kSet:
      return StepKind::kEnumSet;
    case Sort::kAny:
      return StepKind::kEnumAny;
  }
  return StepKind::kEnumAny;
}

// One greedy selection pass. `stats == nullptr` is the byte-exact
// heuristic mode; with statistics, partial positive scans compete by
// estimated matching-row count (ascending) instead of the boundness
// score, with the heuristic score and then source order as the
// deterministic tie-breaks (same inputs, same plan - on every lane
// count and every run).
BodyPlan BuildBodyPlanImpl(const TermStore& store, const Signature& sig,
                           const Clause& clause,
                           const std::vector<size_t>& literal_indices,
                           const std::vector<TermId>& initially_bound,
                           const std::vector<TermId>& must_bind,
                           const PlannerStats* stats) {
  BodyPlan plan;
  std::vector<TermId> bound = initially_bound;
  std::vector<size_t> remaining = literal_indices;
  double est_out = 1.0;

  auto vars_unbound = [&](const Literal& lit) {
    size_t n = 0;
    for (TermId v : LitVars(store, lit)) {
      if (!Contains(bound, v)) ++n;
    }
    return n;
  };
  auto all_bound = [&](const Literal& lit) {
    return vars_unbound(lit) == 0;
  };
  auto bound_mask = [&](const Literal& lit) {
    uint32_t mask = 0;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      if (TermBound(store, lit.args[i], bound)) mask |= ColumnBit(i);
    }
    return mask;
  };

  while (!remaining.empty()) {
    int best_score = -1;
    size_t best_pos = 0;
    double best_est = -1.0;
    bool best_partial_scan = false;
    for (size_t pos = 0; pos < remaining.size(); ++pos) {
      const Literal& lit = clause.body[remaining[pos]];
      int score = -1;
      bool partial_scan = false;
      double est = -1.0;
      if (!lit.positive) {
        // Negated literals (user or builtin) need every variable bound.
        if (all_bound(lit)) score = 90;
      } else if (sig.IsBuiltin(lit.pred)) {
        std::vector<bool> ground(lit.args.size());
        for (size_t i = 0; i < lit.args.size(); ++i) {
          ground[i] = TermBound(store, lit.args[i], bound);
        }
        if (BuiltinModeSupported(lit.pred, ground)) {
          score = all_bound(lit) ? 100 : 60;
        }
      } else {
        // Positive user literal: always runnable as an (indexed) scan;
        // prefer the most bound one.
        size_t bound_args = 0;
        for (TermId a : lit.args) {
          if (TermBound(store, a, bound)) ++bound_args;
        }
        partial_scan = !all_bound(lit);
        score = partial_scan
                    ? static_cast<int>(20 + 10 * bound_args) -
                          static_cast<int>(vars_unbound(lit))
                    : 95;
        if (stats != nullptr) {
          est = stats->EstimateScan(lit.pred, bound_mask(lit));
        }
      }
      bool better;
      if (stats == nullptr || score < 0) {
        better = score > best_score;
      } else if (partial_scan != best_partial_scan || best_score < 0) {
        // Cost mode tiers: any runnable existence check or generator
        // (all-bound scans, builtins, negated checks) runs before any
        // row-producing partial scan.
        better = best_score < 0 || !partial_scan;
      } else if (partial_scan) {
        better = est < best_est ||
                 (est == best_est && score > best_score);
      } else {
        better = score > best_score;
      }
      if (better) {
        best_score = score;
        best_pos = pos;
        best_est = est;
        best_partial_scan = partial_scan;
      }
    }

    if (best_score < 0) {
      // Every remaining literal is blocked (builtin modes unsatisfied):
      // enumerate one of their variables from the active domain.
      TermId victim = kInvalidTerm;
      for (size_t li : remaining) {
        for (TermId v : LitVars(store, clause.body[li])) {
          if (!Contains(bound, v)) {
            victim = v;
            break;
          }
        }
        if (victim != kInvalidTerm) break;
      }
      if (victim == kInvalidTerm) break;  // defensive; cannot happen
      plan.steps.push_back(
          PlanStep{EnumKindFor(store, victim), 0, victim});
      AddUnique(&bound, victim);
      continue;
    }

    size_t li = remaining[best_pos];
    const Literal& lit = clause.body[li];
    StepKind kind = !lit.positive          ? StepKind::kNegated
                    : sig.IsBuiltin(lit.pred) ? StepKind::kBuiltin
                                              : StepKind::kScan;
    plan.steps.push_back(PlanStep{kind, li, kInvalidTerm, best_est});
    if (kind == StepKind::kScan && best_est >= 0.0) {
      est_out *= best_est;
    }
    if (lit.positive) {
      for (TermId v : LitVars(store, lit)) AddUnique(&bound, v);
    }
    remaining.erase(remaining.begin() + best_pos);
  }

  for (TermId v : must_bind) {
    if (!Contains(bound, v)) {
      plan.steps.push_back(PlanStep{EnumKindFor(store, v), 0, v});
      AddUnique(&bound, v);
    }
  }
  if (stats != nullptr) plan.est_out = est_out;
  return plan;
}

// The literal visit order of a plan (enumeration steps excluded).
std::vector<size_t> LiteralOrder(const BodyPlan& plan) {
  std::vector<size_t> order;
  order.reserve(plan.steps.size());
  for (const PlanStep& s : plan.steps) {
    if (s.kind == StepKind::kScan || s.kind == StepKind::kBuiltin ||
        s.kind == StepKind::kNegated) {
      order.push_back(s.literal_index);
    }
  }
  return order;
}

}  // namespace

BodyPlan BuildBodyPlan(const TermStore& store, const Signature& sig,
                       const Clause& clause,
                       const std::vector<size_t>& literal_indices,
                       const std::vector<TermId>& initially_bound,
                       const std::vector<TermId>& must_bind,
                       const PlannerStats* stats) {
  BodyPlan plan = BuildBodyPlanImpl(store, sig, clause, literal_indices,
                                    initially_bound, must_bind, stats);
  if (stats != nullptr && literal_indices.size() > 1) {
    BodyPlan heuristic =
        BuildBodyPlanImpl(store, sig, clause, literal_indices,
                          initially_bound, must_bind, nullptr);
    plan.reordered = LiteralOrder(plan) != LiteralOrder(heuristic);
  }
  return plan;
}

bool GoalDemandCandidate(const Signature& sig, const Program& program,
                         const Literal& goal, std::string* reason) {
  if (sig.IsBuiltin(goal.pred)) {
    if (reason != nullptr) *reason = "builtin goal";
    return false;
  }
  for (const Clause& c : program.clauses()) {
    if (c.head.pred == goal.pred) return true;
  }
  if (reason != nullptr) {
    *reason = "goal predicate has no rules (plain relation scan)";
  }
  return false;
}

GoalPlan BuildGoalPlan(const TermStore& store, const Signature& sig,
                       const Program& program, const Literal& goal) {
  GoalPlan plan;
  Clause synthetic;
  synthetic.head = goal;
  synthetic.body.push_back(goal);
  plan.body = BuildBodyPlan(store, sig, synthetic, {0}, {}, {});
  plan.demand_candidate = GoalDemandCandidate(
      sig, program, goal, &plan.demand_ineligible_reason);
  return plan;
}

Result<RulePlan> BuildRulePlan(const TermStore& store, const Signature& sig,
                               const Clause& clause,
                               const PlannerStats* stats) {
  RulePlan plan;
  plan.has_quantifiers = !clause.quantifiers.empty();

  std::vector<TermId> qvars;
  for (const Quantifier& q : clause.quantifiers) {
    AddUnique(&qvars, q.var);
  }

  // Head variables (the grouped variable is body-bound, not a head var).
  std::vector<TermId> head_vars;
  for (size_t i = 0; i < clause.head.args.size(); ++i) {
    if (clause.grouping.has_value() &&
        clause.grouping->arg_index == i) {
      continue;
    }
    store.CollectVariables(clause.head.args[i], &head_vars);
  }
  for (TermId v : head_vars) {
    if (Contains(qvars, v)) {
      return Status::SafetyError(
          "quantified variable appears in clause head (it is scoped to "
          "the body by Definition 5)");
    }
  }

  // Range variables must be bound before quantifier expansion.
  for (const Quantifier& q : clause.quantifiers) {
    std::vector<TermId> rv;
    store.CollectVariables(q.range, &rv);
    for (TermId v : rv) {
      if (Contains(qvars, v)) {
        return Status::SafetyError(
            "quantifier range may not use a quantified variable");
      }
      AddUnique(&plan.range_vars_needed, v);
    }
  }

  // Classify body literals.
  for (size_t i = 0; i < clause.body.size(); ++i) {
    std::vector<TermId> vars = LitVars(store, clause.body[i]);
    bool quantified = std::any_of(vars.begin(), vars.end(), [&](TermId v) {
      return Contains(qvars, v);
    });
    if (quantified) {
      plan.quantified_literals.push_back(i);
    } else {
      plan.free_literals.push_back(i);
    }
  }

  // Variables occurring in quantified literals (excluding the quantified
  // ones) can be *seeded* by relational division instead of enumerated.
  std::vector<TermId> qlit_free_vars;
  for (size_t li : plan.quantified_literals) {
    for (TermId v : LitVars(store, clause.body[li])) {
      if (!Contains(qvars, v)) AddUnique(&qlit_free_vars, v);
    }
  }

  // The free plan must bind: range vars (always), plus head vars and the
  // grouped var unless they are seedable.
  std::vector<TermId> must_bind = plan.range_vars_needed;
  auto seedable = [&](TermId v) {
    return Contains(qlit_free_vars, v) &&
           !Contains(plan.range_vars_needed, v);
  };
  for (TermId v : head_vars) {
    if (!seedable(v)) AddUnique(&must_bind, v);
  }
  if (clause.grouping.has_value()) {
    TermId gv = clause.grouping->grouped_var;
    if (!seedable(gv)) AddUnique(&must_bind, gv);
  }

  plan.free_plan = BuildBodyPlan(store, sig, clause, plan.free_literals,
                                 {}, must_bind, stats);

  // Delta-first variants for the semi-naive evaluator and the
  // incremental maintainer: scan the delta-carrying literal first.
  if (!plan.has_quantifiers) {
    plan.delta_plans.reserve(plan.free_literals.size());
    for (size_t li : plan.free_literals) {
      const Literal& lit = clause.body[li];
      BodyPlan dp;
      if (lit.positive && !sig.IsBuiltin(lit.pred)) {
        std::vector<size_t> rest;
        for (size_t other : plan.free_literals) {
          if (other != li) rest.push_back(other);
        }
        // The delta literal always scans first (semi-naive seeds from
        // it); the tail reorders by cost with its variables bound.
        dp = BuildBodyPlan(store, sig, clause, rest, LitVars(store, lit),
                           must_bind, stats);
        dp.steps.insert(dp.steps.begin(),
                        PlanStep{StepKind::kScan, li, kInvalidTerm});
      }
      plan.delta_plans.push_back(std::move(dp));
    }
  }

  // Which variables are bound after the free plan?
  std::vector<TermId> bound_after_free = must_bind;
  for (size_t li : plan.free_literals) {
    const Literal& lit = clause.body[li];
    if (lit.positive) {
      for (TermId v : LitVars(store, lit)) AddUnique(&bound_after_free, v);
    }
  }
  for (const PlanStep& s : plan.free_plan.steps) {
    if (s.var != kInvalidTerm) AddUnique(&bound_after_free, s.var);
  }

  for (TermId v : qlit_free_vars) {
    if (!Contains(bound_after_free, v)) AddUnique(&plan.seed_vars, v);
  }

  if (plan.has_quantifiers) {
    // Division seeding plan: runs with free vars + quantified vars bound.
    std::vector<TermId> seed_bound = bound_after_free;
    for (TermId v : qvars) AddUnique(&seed_bound, v);
    plan.seed_plan =
        BuildBodyPlan(store, sig, clause, plan.quantified_literals,
                      seed_bound, plan.seed_vars, stats);

    // Empty-range branch: bind range vars and head vars by enumeration;
    // body is vacuously true.
    std::vector<TermId> empty_must = plan.range_vars_needed;
    for (TermId v : head_vars) AddUnique(&empty_must, v);
    plan.empty_branch_plan =
        BuildBodyPlan(store, sig, clause, {}, {}, empty_must);
  }
  return plan;
}

}  // namespace lps
