#include "transform/magic.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "eval/plan.h"
#include "eval/relation.h"  // ColumnBit / MaskHasColumn (32-col masks)
#include "transform/stratify.h"

namespace lps {

namespace {

// Adorned-predicate worklist key: (predicate, bound-position bitmask,
// same 32-column convention as the storage engine's index masks).
using AdornKey = std::pair<PredicateId, uint32_t>;

// An argument is "flat" when Substitution::Apply resolves it without
// interning: a ground term or a plain variable. The whole rewrite is
// restricted to flat rules, which is also what makes the adornment's
// boundness analysis exact (a variable is bound or it is not; there is
// no partially-bound structure).
bool FlatArgs(const TermStore& store, const std::vector<TermId>& args) {
  for (TermId a : args) {
    if (!store.is_ground(a) && !store.IsVariable(a)) return false;
  }
  return true;
}

MagicRewriteResult Fallback(std::string reason) {
  MagicRewriteResult r;
  r.applied = false;
  r.fallback_reason = std::move(reason);
  return r;
}

// Declares `name` if free, otherwise a fresh variant (a user program
// may already define e.g. "path_bf").
PredicateId DeclareAdorned(Signature* sig, const std::string& name,
                           std::vector<Sort> sorts) {
  if (sig->Lookup(name, sorts.size()) == kInvalidPredicate) {
    auto id = sig->Declare(name, sorts);
    if (id.ok()) return *id;
  }
  return sig->DeclareFresh(name, std::move(sorts));
}

}  // namespace

std::string AdornmentString(const std::vector<bool>& bound) {
  std::string s;
  s.reserve(bound.size());
  for (bool b : bound) s.push_back(b ? 'b' : 'f');
  return s;
}

Result<MagicRewriteResult> MagicRewrite(const Program& in,
                                        const Literal& goal,
                                        const std::vector<bool>& bound,
                                        const PlannerStats* stats) {
  const TermStore& store = *in.store();
  const Signature& sig = in.signature();
  if (bound.size() != goal.args.size()) {
    return Status::InvalidArgument(
        "binding pattern arity does not match the goal");
  }
  if (sig.IsBuiltin(goal.pred)) {
    return Fallback("builtin goal");
  }
  // Before the bindings are read: adornment masks name 32 columns, so
  // every binding pattern of a wider goal falls back alike.
  if (goal.args.size() > 32) {
    return Fallback("goal arity exceeds 32 columns");
  }
  uint32_t goal_mask = 0;
  for (size_t i = 0; i < bound.size(); ++i) {
    if (bound[i]) goal_mask |= ColumnBit(i);
  }
  if (goal_mask == 0) {
    return Fallback("all-free goal: demand restricts nothing");
  }

  // Rules per predicate. The rewrite is a pure function of the rules
  // (callers cache it across fact mutations, keyed on
  // Session::rule_epoch()), so fact-import rules below are emitted
  // unconditionally and the current facts are seeded into the private
  // database at execution time (Database::SeedFacts).
  std::map<PredicateId, std::vector<size_t>> rules_of;
  for (size_t i = 0; i < in.clauses().size(); ++i) {
    rules_of[in.clauses()[i].head.pred].push_back(i);
  }

  if (rules_of.find(goal.pred) == rules_of.end()) {
    return Fallback("goal predicate has no rules (plain relation scan)");
  }

  // Grouped head positions per predicate (Definition 14): a group's
  // set content is determined by *all* body solutions sharing the key,
  // so demand can only ever restrict the key (non-grouped) positions.
  // A binding on the grouped position stays a plain filter on the
  // answer scan; it is dropped from every adornment mask here.
  std::map<PredicateId, uint32_t> grouped_positions;
  for (const Clause& c : in.clauses()) {
    if (!c.grouping.has_value()) continue;
    grouped_positions[c.head.pred] |= ColumnBit(c.grouping->arg_index);
  }
  auto demandable_mask = [&](PredicateId p, uint32_t mask) -> uint32_t {
    auto it = grouped_positions.find(p);
    return it == grouped_positions.end() ? mask : mask & ~it->second;
  };
  // The columns of body literal `l` that `bound` binds, less the grouped
  // ones: the adornment a positive IDB literal gets.
  auto child_mask_of = [&](const Literal& l, const std::set<TermId>& bound) {
    uint32_t mask = 0;
    for (size_t i = 0; i < l.args.size(); ++i) {
      TermId a = l.args[i];
      if (store.is_ground(a) || (store.IsVariable(a) && bound.count(a))) {
        mask |= ColumnBit(i);
      }
    }
    return demandable_mask(l.pred, mask);
  };

  uint32_t goal_demand = demandable_mask(goal.pred, goal_mask);
  if (goal_demand == 0) {
    return Fallback(
        "goal binds only grouped set positions: demand restricts "
        "nothing");
  }

  // ---- Eligibility: every rule reachable from the goal (through
  // positive and negated body literals alike) must be flat Horn. ------
  std::set<PredicateId> slice;
  std::deque<PredicateId> bfs{goal.pred};
  slice.insert(goal.pred);
  while (!bfs.empty()) {
    PredicateId p = bfs.front();
    bfs.pop_front();
    auto it = rules_of.find(p);
    if (it == rules_of.end()) continue;
    for (size_t ci : it->second) {
      const Clause& c = in.clauses()[ci];
      const std::string where = " in a rule for " + sig.Name(p);
      if (!c.quantifiers.empty()) {
        return Fallback("restricted universal quantifier" + where);
      }
      // Grouping rules are admitted when flat: the adorned copy keeps
      // its GroupSpec and evaluates as a guarded grouping rule, which
      // is complete for every demanded key (the guard restricts whole
      // groups, never elements within one). Ground set and function
      // constants are flat - only args still containing variables
      // under a set/function constructor fall outside the fragment.
      if (!FlatArgs(store, c.head.args)) {
        return Fallback("non-ground set/function-term head argument" +
                        where);
      }
      if (c.head.args.size() > 32) {
        return Fallback("head arity exceeds 32" + where);
      }
      for (const Literal& l : c.body) {
        if (!FlatArgs(store, l.args)) {
          return Fallback("non-ground set/function-term body argument" +
                          where);
        }
        if (!sig.IsBuiltin(l.pred) && slice.insert(l.pred).second) {
          bfs.push_back(l.pred);
        }
      }
      // Rules that enumerate the active domain (head variables no body
      // literal binds, blocked builtin modes) are domain-dependent:
      // their answers change with the database the rule runs in, so a
      // demand-restricted evaluation would diverge from the full
      // fixpoint. Note a magic guard can *mask* the enumeration by
      // binding the head variable, so the rewritten program must be
      // checked against the original plan, not just its own.
      auto plan = BuildRulePlan(store, sig, c);
      if (!plan.ok()) {
        return Fallback("rule does not plan" + where + ": " +
                        plan.status().ToString());
      }
      for (const PlanStep& s : plan->free_plan.steps) {
        if (s.kind == StepKind::kEnumAtom ||
            s.kind == StepKind::kEnumSet ||
            s.kind == StepKind::kEnumAny) {
          return Fallback("active-domain enumeration" + where);
        }
      }
    }
  }

  // ---- Adornment worklist ---------------------------------------------
  MagicProgram mp{in, Literal{}, kInvalidPredicate, {}, {}, {}};
  Program& out = mp.program;
  out.mutable_clauses()->clear();
  Signature& osig = out.signature();

  std::map<AdornKey, PredicateId> adorned, magic_of;
  std::set<PredicateId> full;  // predicates evaluated unrestricted
  std::deque<AdornKey> work;

  auto ensure_adorned = [&](PredicateId p, uint32_t mask) -> AdornKey {
    AdornKey key{p, mask};
    if (adorned.find(key) == adorned.end()) {
      const PredicateInfo& info = sig.info(p);
      std::vector<bool> b(info.arity());
      for (size_t i = 0; i < b.size(); ++i) b[i] = MaskHasColumn(mask, i);
      std::vector<Sort> bound_sorts;
      for (size_t i = 0; i < info.arity(); ++i) {
        if (MaskHasColumn(mask, i)) bound_sorts.push_back(info.arg_sorts[i]);
      }
      std::string base = sig.Name(p);
      base += '_';
      base += AdornmentString(b);
      std::string magic_name = "m_";
      magic_name += base;
      adorned[key] = DeclareAdorned(&osig, base, info.arg_sorts);
      magic_of[key] =
          DeclareAdorned(&osig, magic_name, std::move(bound_sorts));
      mp.adorned_preds.push_back(adorned[key]);
      mp.magic_preds.push_back(magic_of[key]);
      work.push_back(key);
    }
    return key;
  };

  ensure_adorned(goal.pred, goal_demand);

  while (!work.empty()) {
    auto [p, mask] = work.front();
    work.pop_front();
    PredicateId p_ad = adorned[{p, mask}];
    PredicateId p_mg = magic_of[{p, mask}];

    for (size_t ci : rules_of[p]) {
      const Clause& c = in.clauses()[ci];

      std::set<TermId> bound_vars;
      Literal magic_lit{p_mg, {}, true};
      for (size_t i = 0; i < c.head.args.size(); ++i) {
        if (!MaskHasColumn(mask, i)) continue;
        magic_lit.args.push_back(c.head.args[i]);
        if (store.IsVariable(c.head.args[i])) {
          bound_vars.insert(c.head.args[i]);
        }
      }

      // Positive IDB literals an order leaves without demand: each is
      // evaluated in full.
      auto undemanded = [&](const std::vector<size_t>& order) {
        std::set<TermId> bound = bound_vars;
        size_t n = 0;
        for (size_t li : order) {
          const Literal& l = c.body[li];
          if (!l.positive) continue;
          if (!sig.IsBuiltin(l.pred) && rules_of.count(l.pred) != 0 &&
              child_mask_of(l, bound) == 0) {
            ++n;
          }
          for (TermId a : l.args) {
            std::vector<TermId> vars;
            store.CollectVariables(a, &vars);
            bound.insert(vars.begin(), vars.end());
          }
        }
        return n;
      };

      // Sideways-information-passing order: source order, unless the
      // cost-based join order (eval/plan.h) leaves fewer IDB literals
      // without demand, to be evaluated in full. A literal source
      // order already demands keeps its place: moving a scan ahead of
      // it only binds more of its columns, which can multiply its
      // magic set (on left-linear transitive closure a bound-bound
      // goal then demands path(X, Y) for every predecessor Y of the
      // target instead of path(X, _) once), and the estimates of a
      // derived literal are guesses until it is evaluated. The adorned
      // rule body is emitted in SIP order, so its guards cover exactly
      // the prefix that has run when each magic subgoal is demanded.
      // Any permutation is a valid SIP order (the guard always carries
      // the accumulated bound set).
      std::vector<size_t> sip(c.body.size());
      for (size_t i = 0; i < sip.size(); ++i) sip[i] = i;
      if (stats != nullptr && sip.size() > 1) {
        std::vector<TermId> init(bound_vars.begin(), bound_vars.end());
        BodyPlan bp =
            BuildBodyPlan(store, sig, c, sip, init, {}, stats);
        std::vector<size_t> order;
        for (const PlanStep& s : bp.steps) {
          if (s.kind == StepKind::kScan || s.kind == StepKind::kBuiltin ||
              s.kind == StepKind::kNegated) {
            order.push_back(s.literal_index);
          }
        }
        // A plan that dropped a literal (blocked builtin mode) cannot
        // order the body; keep source order for this rule.
        if (order.size() == sip.size() &&
            undemanded(order) < undemanded(sip)) {
          sip = std::move(order);
        }
      }

      // Guard-rule bodies: the magic literal plus the positive prefix
      // (adorned where restricted). Negated literals are omitted -
      // dropping a filter from a guard only widens the demand set,
      // which is sound (magic predicates over-approximate demand).
      std::vector<Literal> prefix{magic_lit};
      std::vector<Literal> new_body;

      for (size_t sip_li : sip) {
        const Literal& l = c.body[sip_li];
        Literal nl = l;
        if (!sig.IsBuiltin(l.pred)) {
          bool idb = rules_of.find(l.pred) != rules_of.end();
          if (l.positive && idb) {
            const uint32_t child_mask = child_mask_of(l, bound_vars);
            if (child_mask != 0) {
              AdornKey child = ensure_adorned(l.pred, child_mask);
              nl.pred = adorned[child];
              Clause guard;
              guard.head = Literal{magic_of[child], {}, true};
              for (size_t i = 0; i < l.args.size(); ++i) {
                if (MaskHasColumn(child_mask, i)) {
                  guard.head.args.push_back(l.args[i]);
                }
              }
              guard.body = prefix;
              // Left-linear recursion produces the tautology
              // m_p(X) :- m_p(X); it derives nothing - skip it rather
              // than re-join it on every semi-naive iteration.
              if (guard.body.size() != 1 ||
                  !(guard.head == guard.body[0])) {
                out.AddClause(std::move(guard));
              }
            } else {
              full.insert(l.pred);  // unrestricted: keep the original
            }
          } else if (!l.positive && idb) {
            full.insert(l.pred);  // negation needs the complete relation
          }
        }
        if (l.positive) {
          for (TermId a : l.args) {
            std::vector<TermId> vars;
            store.CollectVariables(a, &vars);
            bound_vars.insert(vars.begin(), vars.end());
          }
          prefix.push_back(nl);
        }
        new_body.push_back(std::move(nl));
      }

      Clause modified;
      modified.head = Literal{p_ad, c.head.args, true};
      // A grouping head keeps its GroupSpec: positions are unchanged
      // and the magic guard only joins into the body, so the adorned
      // rule groups exactly the demanded keys' witnesses.
      modified.grouping = c.grouping;
      modified.body.push_back(magic_lit);
      modified.body.insert(modified.body.end(), new_body.begin(),
                           new_body.end());
      out.AddClause(std::move(modified));
    }

    // Import stored tuples of the original predicate into the adorned
    // relation under the same magic guard. Emitted for every adorned
    // predicate - not just those with facts at rewrite time - so a
    // cached rewrite keeps answering correctly after facts are added
    // to a predicate that had none when the rewrite was built.
    {
      const PredicateInfo& info = sig.info(p);
      Clause import;
      import.head = Literal{p_ad, {}, true};
      Literal guard{p_mg, {}, true};
      Literal scan{p, {}, true};
      for (size_t i = 0; i < info.arity(); ++i) {
        TermId v = out.store()->MakeFreshVariable("Mf", info.arg_sorts[i]);
        import.head.args.push_back(v);
        scan.args.push_back(v);
        if (MaskHasColumn(mask, i)) guard.args.push_back(v);
      }
      import.body.push_back(std::move(guard));
      import.body.push_back(std::move(scan));
      out.AddClause(std::move(import));
    }
  }

  // ---- Unrestricted predicates: copy their rule closure unchanged ----
  std::deque<PredicateId> fq(full.begin(), full.end());
  while (!fq.empty()) {
    PredicateId p = fq.front();
    fq.pop_front();
    auto it = rules_of.find(p);
    if (it == rules_of.end()) continue;
    for (size_t ci : it->second) {
      for (const Literal& l : in.clauses()[ci].body) {
        if (!sig.IsBuiltin(l.pred) && full.insert(l.pred).second) {
          fq.push_back(l.pred);
        }
      }
    }
  }
  for (PredicateId p : full) {
    auto it = rules_of.find(p);
    if (it == rules_of.end()) continue;
    for (size_t ci : it->second) out.AddClause(in.clauses()[ci]);
  }

  // ---- Post-checks on the rewritten program ---------------------------
  // (a) No rewritten rule may need active-domain enumeration
  // (domain-dependent semantics would break answer equality with the
  // full fixpoint, and enumeration inside a guard could
  // under-approximate demand).
  for (const Clause& c : out.clauses()) {
    auto plan = BuildRulePlan(*out.store(), osig, c);
    if (!plan.ok()) {
      return Fallback("rewritten rule does not plan: " +
                      plan.status().ToString());
    }
    for (const PlanStep& s : plan->free_plan.steps) {
      if (s.kind == StepKind::kEnumAtom || s.kind == StepKind::kEnumSet ||
          s.kind == StepKind::kEnumAny) {
        return Fallback(
            "active-domain enumeration in a rule for " +
            osig.Name(c.head.pred));
      }
    }
  }
  // (b) The rewrite must stratify. Magic guards add dependency edges
  // (m_p <- caller prefixes) that the original program does not have;
  // with grouping heads in the slice - whose body predicates must sit
  // in strictly lower strata - those edges can close a cycle through a
  // strict boundary even though the original program stratifies.
  // Falling back is sound; evaluating an unstratifiable rewrite would
  // just fail later with a worse error.
  if (auto strat = Stratify(out); !strat.ok()) {
    return Fallback("rewrite does not stratify: " +
                    strat.status().ToString());
  }

  mp.goal = goal;
  mp.goal.pred = adorned[{goal.pred, goal_demand}];
  mp.seed_pred = magic_of[{goal.pred, goal_demand}];
  // Only positions the magic predicate actually carries seed it: a
  // bound grouped position is filtered by the answer scan instead.
  for (size_t i = 0; i < bound.size(); ++i) {
    if (bound[i] && MaskHasColumn(goal_demand, i)) {
      mp.seed_positions.push_back(i);
    }
  }

  MagicRewriteResult result;
  result.applied = true;
  result.rewrite = std::make_unique<MagicProgram>(std::move(mp));
  return result;
}

}  // namespace lps
