// Static program analysis: predicate dependency graph, reachability,
// dead-rule elimination, and summary statistics. Transforms like the
// Theorem 6 compiler and the Section 6 translations introduce many
// auxiliary predicates; pruning the ones a query cannot reach keeps the
// evaluated programs small.
#ifndef LPS_TRANSFORM_ANALYSIS_H_
#define LPS_TRANSFORM_ANALYSIS_H_

#include <string>
#include <vector>

#include "eval/database.h"
#include "lang/program.h"

namespace lps {

struct DependencyEdge {
  PredicateId from;  // head predicate
  PredicateId to;    // body predicate
  bool positive;     // false for negated or grouped-over dependencies
};

/// The predicate dependency graph of a program (builtins excluded).
class DependencyGraph {
 public:
  static DependencyGraph Build(const Program& program);

  const std::vector<DependencyEdge>& edges() const { return edges_; }

  /// Predicates `roots` depend on, transitively (including the roots).
  std::vector<PredicateId> Reachable(
      const std::vector<PredicateId>& roots) const;

  /// True if `pred` transitively depends on itself.
  bool IsRecursive(PredicateId pred) const;

  /// True if some cycle contains a negative edge (not stratifiable).
  bool HasNegativeCycle() const;

 private:
  std::vector<DependencyEdge> edges_;
  size_t num_preds_ = 0;
};

/// Removes every clause whose head predicate is not reachable from
/// `roots`. The signature keeps all declarations (ids are stable).
Program PruneUnreachable(const Program& program,
                         const std::vector<PredicateId>& roots);

struct ProgramStats {
  size_t clauses = 0;
  size_t facts = 0;  // distinct base facts in the database
  size_t quantified_clauses = 0;
  size_t grouping_clauses = 0;
  size_t negated_literals = 0;
  size_t builtin_literals = 0;
  size_t recursive_predicates = 0;
  size_t max_body_length = 0;
  size_t max_quantifier_depth = 0;
};

/// Summary statistics of `program`'s rules and of `db`'s facts.
ProgramStats AnalyzeProgram(const Program& program, const Database& db);

std::string ProgramStatsToString(const ProgramStats& stats);

}  // namespace lps

#endif  // LPS_TRANSFORM_ANALYSIS_H_
