// Core clause IR: the LPS clause of Definition 5,
//
//   A :- (forall x1 in X1) ... (forall xn in Xn)(B1 & ... & Bk)
//
// extended with the two features the paper adds in Sections 4.2 and 6:
// negated body literals (stratified negation) and LDL grouping heads
// (Definition 14). Surface-level positive bodies with disjunction and
// nested quantifiers live in lang/formula.h and are lowered to this IR
// by transform/positive_compiler.h (Theorem 6).
#ifndef LPS_LANG_CLAUSE_H_
#define LPS_LANG_CLAUSE_H_

#include <optional>
#include <string>
#include <vector>

#include "lang/signature.h"
#include "term/term.h"

namespace lps {

/// A possibly negated atomic formula p(t1,...,tn).
struct Literal {
  PredicateId pred = kInvalidPredicate;
  std::vector<TermId> args;
  bool positive = true;

  bool operator==(const Literal& o) const {
    return pred == o.pred && args == o.args && positive == o.positive;
  }
};

/// One restricted universal quantifier (forall var in range)
/// (Definition 4). `var` is an atom-sorted variable in LPS; in ELPS it
/// may be untyped. `range` is a set-sorted term, a variable in the
/// paper's Definition 5 (the engine also accepts set literals here).
struct Quantifier {
  TermId var = kInvalidTerm;
  TermId range = kInvalidTerm;

  bool operator==(const Quantifier& o) const {
    return var == o.var && range == o.range;
  }
};

/// LDL grouping annotation (Definition 14): the head argument at
/// `arg_index` is <grouped_var>, i.e. the set of all values of
/// grouped_var for which the body holds, grouped by the other head
/// arguments.
struct GroupSpec {
  size_t arg_index = 0;
  TermId grouped_var = kInvalidTerm;

  bool operator==(const GroupSpec& o) const {
    return arg_index == o.arg_index && grouped_var == o.grouped_var;
  }
};

/// A core clause. With empty `quantifiers`, no `grouping`, and all body
/// literals positive, this is an ordinary Horn clause; an empty body
/// makes it a fact.
struct Clause {
  Literal head;
  std::vector<Quantifier> quantifiers;
  std::vector<Literal> body;
  std::optional<GroupSpec> grouping;

  bool IsFact() const {
    return quantifiers.empty() && body.empty() && !grouping.has_value();
  }

  bool operator==(const Clause& o) const {
    return head == o.head && quantifiers == o.quantifiers &&
           body == o.body && grouping == o.grouping;
  }
};

/// Collects the distinct variables of a literal into `out`
/// (first-occurrence order, duplicates skipped).
void CollectLiteralVariables(const TermStore& store, const Literal& lit,
                             std::vector<TermId>* out);

/// All distinct variables of the clause (head, quantifiers, body).
std::vector<TermId> ClauseVariables(const TermStore& store,
                                    const Clause& clause);

/// Free variables: all variables except the quantified ones and the
/// grouped variable.
std::vector<TermId> ClauseFreeVariables(const TermStore& store,
                                        const Clause& clause);

/// Renders a clause in surface syntax, e.g.
/// "disj(X, Y) :- forall x in X, forall y in Y : x != y."
std::string ClauseToString(const TermStore& store, const Signature& sig,
                           const Clause& clause);
std::string LiteralToString(const TermStore& store, const Signature& sig,
                            const Literal& lit);

}  // namespace lps

#endif  // LPS_LANG_CLAUSE_H_
