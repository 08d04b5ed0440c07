// Model checking: is a database a (Herbrand) model of a program over
// its active domain? This is the executable content of Definition 3 /
// Theorem 3: the evaluator's output must be T_P-closed, and the least
// model is contained in every model.
//
// The checker grounds each clause over the database's active domain
// (Lemma 4) and verifies body => head. It reports the first
// counterexample found, rendered readably, which makes it a debugging
// tool for hand-built databases as well as a test oracle.
#ifndef LPS_EVAL_MODEL_CHECK_H_
#define LPS_EVAL_MODEL_CHECK_H_

#include <optional>
#include <string>

#include "eval/builtins.h"
#include "eval/database.h"
#include "ground/grounder.h"
#include "lang/program.h"

namespace lps {

struct ModelCheckOptions {
  GroundOptions ground;
  BuiltinOptions builtins;
  /// Stop after this many ground instances per clause.
  size_t max_instances_per_clause = 1000000;
};

struct ModelCheckResult {
  bool is_model = false;
  size_t instances_checked = 0;
  /// Human-readable violated ground clause, when !is_model.
  std::optional<std::string> counterexample;
};

/// Checks whether the candidate `db` satisfies every clause of
/// `program` when free variables range over db's active domain, and
/// holds every base fact of `facts` (the database the program's facts
/// live in - apart from the candidate, so a candidate missing a fact
/// is caught). Clauses with grouping heads are rejected
/// (Unimplemented): grouping is not a first-order condition.
Result<ModelCheckResult> CheckModel(const Program& program,
                                    const Database& facts, Database* db,
                                    const ModelCheckOptions& options = {});

/// True if the ground literal holds in `db` (builtin or stored tuple).
Result<bool> GroundLiteralHolds(TermStore* store, const Signature& sig,
                                Database* db, const Literal& lit,
                                const BuiltinOptions& options);

}  // namespace lps

#endif  // LPS_EVAL_MODEL_CHECK_H_
