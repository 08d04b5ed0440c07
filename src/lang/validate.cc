#include "lang/validate.h"

#include "term/printer.h"

namespace lps {

namespace {

bool SortsCompatible(Sort expected, Sort actual) {
  if (expected == Sort::kAny || actual == Sort::kAny) return true;
  return expected == actual;
}

// Checks term structure: function arguments are atoms (Definition 2.3 /
// Example 8); in LPS mode, set nesting depth is at most 1.
Status CheckTerm(const TermStore& store, TermId t, LanguageMode mode) {
  const TermNode& n = store.node(t);
  if (mode == LanguageMode::kLPS && n.depth > 1) {
    return Status::SortError("LPS allows only one level of set nesting: " +
                             TermToString(store, t));
  }
  switch (n.kind) {
    case TermKind::kConstant:
    case TermKind::kInt:
    case TermKind::kVariable:
      return Status::OK();
    case TermKind::kFunction:
      for (TermId a : store.args(t)) {
        if (mode == LanguageMode::kLPS && store.sort(a) == Sort::kSet) {
          // Definition 1.2: non-special function symbols go from a^n to
          // a. ELPS (Definition 13) relaxes the argument restriction.
          return Status::SortError(
              "LPS function arguments must be of sort atom: " +
              TermToString(store, t));
        }
        LPS_RETURN_IF_ERROR(CheckTerm(store, a, mode));
      }
      return Status::OK();
    case TermKind::kSet:
      for (TermId a : store.args(t)) {
        LPS_RETURN_IF_ERROR(CheckTerm(store, a, mode));
      }
      return Status::OK();
  }
  return Status::OK();
}

// `skip_sort_index`, when >= 0, marks a grouping head position: the
// stored argument is the grouped *element* variable while the declared
// sort is that of the collected set (Definition 14).
Status CheckLiteral(const TermStore& store, const Signature& sig,
                    const Literal& lit, LanguageMode mode,
                    int skip_sort_index = -1) {
  if (lit.pred == kInvalidPredicate) {
    return Status::Internal("literal with invalid predicate");
  }
  const PredicateInfo& info = sig.info(lit.pred);
  if (lit.args.size() != info.arity()) {
    return Status::InvalidArgument(
        "arity mismatch for " + sig.Name(lit.pred) + ": expected " +
        std::to_string(info.arity()) + ", got " +
        std::to_string(lit.args.size()));
  }
  for (size_t i = 0; i < lit.args.size(); ++i) {
    LPS_RETURN_IF_ERROR(CheckTerm(store, lit.args[i], mode));
    if (static_cast<int>(i) == skip_sort_index) {
      if (info.arg_sorts[i] == Sort::kAtom) {
        return Status::SortError(
            "grouped argument of " + sig.Name(lit.pred) +
            " must be declared set-sorted (Definition 14)");
      }
      continue;
    }
    if (!SortsCompatible(info.arg_sorts[i], store.sort(lit.args[i]))) {
      return Status::SortError(
          "argument " + std::to_string(i + 1) + " of " +
          sig.Name(lit.pred) + " has sort " +
          SortToString(store.sort(lit.args[i])) + ", expected " +
          SortToString(info.arg_sorts[i]) + " in " +
          LiteralToString(store, sig, lit));
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateClause(const TermStore& store, const Signature& sig,
                      const Clause& clause, LanguageMode mode) {
  // Definition 5: the head is a non-special atomic formula.
  if (sig.IsSpecial(clause.head.pred)) {
    return Status::InvalidArgument(
        "clause head may not be a special predicate (Definition 5): " +
        sig.Name(clause.head.pred));
  }
  if (!clause.head.positive) {
    return Status::InvalidArgument("clause head must be positive");
  }
  int skip = clause.grouping.has_value()
                 ? static_cast<int>(clause.grouping->arg_index)
                 : -1;
  LPS_RETURN_IF_ERROR(CheckLiteral(store, sig, clause.head, mode, skip));

  if (clause.grouping.has_value()) {
    if (mode != LanguageMode::kLDL) {
      return Status::InvalidArgument(
          "grouping heads (Definition 14) require LDL mode");
    }
    const GroupSpec& g = *clause.grouping;
    if (g.arg_index >= clause.head.args.size()) {
      return Status::InvalidArgument("grouping index out of range");
    }
    if (!store.IsVariable(g.grouped_var)) {
      return Status::InvalidArgument("grouped term must be a variable");
    }
  }

  for (const Quantifier& q : clause.quantifiers) {
    if (!store.IsVariable(q.var)) {
      return Status::InvalidArgument(
          "quantified term must be a variable (Definition 4)");
    }
    if (mode == LanguageMode::kLPS &&
        store.sort(q.var) != Sort::kAtom) {
      return Status::SortError(
          "LPS quantified variables have sort atom (Definition 5): " +
          TermToString(store, q.var));
    }
    if (store.sort(q.range) == Sort::kAtom) {
      return Status::SortError(
          "quantifier range must be set-sorted: " +
          TermToString(store, q.range));
    }
    LPS_RETURN_IF_ERROR(CheckTerm(store, q.range, mode));
  }

  for (const Literal& lit : clause.body) {
    LPS_RETURN_IF_ERROR(CheckLiteral(store, sig, lit, mode));
  }
  return Status::OK();
}

Status CheckFact(const TermStore& store, const Signature& sig,
                 PredicateId pred, std::span<const TermId> args) {
  if (sig.IsSpecial(pred)) {
    return Status::InvalidArgument("facts may not use special predicate " +
                                   sig.Name(pred));
  }
  if (args.size() != sig.info(pred).arity()) {
    return Status::InvalidArgument("arity mismatch in fact for " +
                                   sig.Name(pred));
  }
  for (TermId t : args) {
    if (!store.is_ground(t)) {
      return Status::InvalidArgument("facts must be ground: " +
                                     sig.Name(pred));
    }
  }
  return Status::OK();
}

Status ValidateGoal(const TermStore& store, const Signature& sig,
                    const Literal& goal, LanguageMode mode) {
  if (!goal.positive) {
    return Status::InvalidArgument("query goals must be positive");
  }
  return CheckLiteral(store, sig, goal, mode);
}

bool ProgramUsesNegation(const Program& program) {
  for (const Clause& c : program.clauses()) {
    for (const Literal& lit : c.body) {
      if (!lit.positive) return true;
    }
  }
  return false;
}

bool ProgramUsesGrouping(const Program& program) {
  for (const Clause& c : program.clauses()) {
    if (c.grouping.has_value()) return true;
  }
  return false;
}

}  // namespace lps
