#include "transform/analysis.h"

#include <algorithm>

namespace lps {

DependencyGraph DependencyGraph::Build(const Program& program) {
  DependencyGraph g;
  g.num_preds_ = program.signature().size();
  const Signature& sig = program.signature();
  for (const Clause& c : program.clauses()) {
    for (const Literal& lit : c.body) {
      if (sig.IsBuiltin(lit.pred)) continue;
      bool positive = lit.positive && !c.grouping.has_value();
      g.edges_.push_back({c.head.pred, lit.pred, positive});
    }
  }
  return g;
}

std::vector<PredicateId> DependencyGraph::Reachable(
    const std::vector<PredicateId>& roots) const {
  std::vector<bool> seen(num_preds_, false);
  std::vector<PredicateId> stack;
  for (PredicateId r : roots) {
    if (r < num_preds_ && !seen[r]) {
      seen[r] = true;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    PredicateId p = stack.back();
    stack.pop_back();
    for (const DependencyEdge& e : edges_) {
      if (e.from == p && !seen[e.to]) {
        seen[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  std::vector<PredicateId> out;
  for (PredicateId p = 0; p < num_preds_; ++p) {
    if (seen[p]) out.push_back(p);
  }
  return out;
}

bool DependencyGraph::IsRecursive(PredicateId pred) const {
  // pred depends on itself: search from its body predecessors.
  std::vector<PredicateId> starts;
  for (const DependencyEdge& e : edges_) {
    if (e.from == pred) starts.push_back(e.to);
  }
  std::vector<PredicateId> closure = Reachable(starts);
  return std::find(closure.begin(), closure.end(), pred) != closure.end();
}

bool DependencyGraph::HasNegativeCycle() const {
  for (const DependencyEdge& e : edges_) {
    if (e.positive) continue;
    // Cycle through this negative edge: e.to reaches e.from.
    std::vector<PredicateId> closure = Reachable({e.to});
    if (std::find(closure.begin(), closure.end(), e.from) !=
        closure.end()) {
      return true;
    }
  }
  return false;
}

Program PruneUnreachable(const Program& program,
                         const std::vector<PredicateId>& roots) {
  DependencyGraph g = DependencyGraph::Build(program);
  std::vector<PredicateId> keep = g.Reachable(roots);
  auto kept = [&](PredicateId p) {
    return std::find(keep.begin(), keep.end(), p) != keep.end();
  };
  Program out = program;
  out.mutable_clauses()->clear();
  for (const Clause& c : program.clauses()) {
    if (kept(c.head.pred)) out.AddClause(c);
  }
  return out;
}

ProgramStats AnalyzeProgram(const Program& program, const Database& db) {
  ProgramStats stats;
  const Signature& sig = program.signature();
  stats.clauses = program.clauses().size();
  stats.facts = db.fact_count();
  for (const Clause& c : program.clauses()) {
    if (!c.quantifiers.empty()) ++stats.quantified_clauses;
    if (c.grouping.has_value()) ++stats.grouping_clauses;
    stats.max_body_length = std::max(stats.max_body_length,
                                     c.body.size());
    stats.max_quantifier_depth =
        std::max(stats.max_quantifier_depth, c.quantifiers.size());
    for (const Literal& lit : c.body) {
      if (!lit.positive) ++stats.negated_literals;
      if (sig.IsBuiltin(lit.pred)) ++stats.builtin_literals;
    }
  }
  DependencyGraph g = DependencyGraph::Build(program);
  std::vector<PredicateId> heads;
  for (const Clause& c : program.clauses()) {
    if (std::find(heads.begin(), heads.end(), c.head.pred) ==
        heads.end()) {
      heads.push_back(c.head.pred);
    }
  }
  for (PredicateId p : heads) {
    if (g.IsRecursive(p)) ++stats.recursive_predicates;
  }
  return stats;
}

std::string ProgramStatsToString(const ProgramStats& s) {
  std::string out;
  out += "clauses=" + std::to_string(s.clauses);
  out += " facts=" + std::to_string(s.facts);
  out += " quantified=" + std::to_string(s.quantified_clauses);
  out += " grouping=" + std::to_string(s.grouping_clauses);
  out += " negated_lits=" + std::to_string(s.negated_literals);
  out += " builtin_lits=" + std::to_string(s.builtin_literals);
  out += " recursive_preds=" + std::to_string(s.recursive_predicates);
  out += " max_body=" + std::to_string(s.max_body_length);
  out += " max_quant=" + std::to_string(s.max_quantifier_depth);
  return out;
}

}  // namespace lps
