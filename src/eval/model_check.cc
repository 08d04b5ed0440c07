#include "eval/model_check.h"

#include "lang/clause.h"
#include "term/printer.h"

namespace lps {

Result<bool> GroundLiteralHolds(TermStore* store, const Signature& sig,
                                Database* db, const Literal& lit,
                                const BuiltinOptions& options) {
  for (TermId a : lit.args) {
    if (!store->is_ground(a)) {
      return Status::InvalidArgument("literal is not ground");
    }
  }
  bool holds;
  if (sig.IsBuiltin(lit.pred)) {
    LPS_ASSIGN_OR_RETURN(holds,
                         CheckBuiltin(store, lit.pred, lit.args, options));
  } else {
    holds = db->Contains(lit.pred, lit.args);
  }
  return lit.positive ? holds : !holds;
}

Result<ModelCheckResult> CheckModel(const Program& program,
                                    const Database& facts, Database* db,
                                    const ModelCheckOptions& options) {
  TermStore* store = program.store();
  const Signature& sig = program.signature();
  ModelCheckResult result;

  facts.ForEachFact([&](const Database::Fact& f) {
    if (result.counterexample.has_value()) return;
    ++result.instances_checked;
    if (!db->Contains(f.pred, f.args)) {
      result.counterexample = sig.Name(f.pred) + "(" +
                              TermListToString(*store, f.args) +
                              ") (missing fact)";
    }
  });
  if (result.counterexample.has_value()) return result;

  for (const Clause& clause : program.clauses()) {
    if (clause.grouping.has_value()) {
      return Status::Unimplemented(
          "grouping clauses are not first-order conditions; model "
          "checking covers LPS/ELPS clauses");
    }
    GroundOptions gopts = options.ground;
    gopts.max_instances = options.max_instances_per_clause;
    std::vector<Clause> ground;
    LPS_RETURN_IF_ERROR(GroundClauseOverDomain(store, clause,
                                               db->atom_domain(),
                                               db->set_domain(), gopts,
                                               &ground));
    for (const Clause& g : ground) {
      ++result.instances_checked;
      bool body_holds = true;
      for (const Literal& lit : g.body) {
        LPS_ASSIGN_OR_RETURN(
            bool ok,
            GroundLiteralHolds(store, sig, db, lit, options.builtins));
        if (!ok) {
          body_holds = false;
          break;
        }
      }
      if (!body_holds) continue;
      LPS_ASSIGN_OR_RETURN(
          bool head_ok,
          GroundLiteralHolds(store, sig, db, g.head, options.builtins));
      if (!head_ok) {
        result.counterexample = ClauseToString(*store, sig, g);
        return result;
      }
    }
  }
  result.is_model = true;
  return result;
}

}  // namespace lps
