// The legacy string-per-call facade, kept as a thin shim over the
// Session API (api/session.h). Each Query/HoldsText/SolveTopDown call
// re-parses its goal text; code that issues a goal more than once
// should migrate to Session::Prepare and execute the PreparedQuery
// instead (see README.md for the migration table).
//
// Typical use (see tests/engine_test.cc):
//
//   Engine engine(LanguageMode::kLPS);
//   engine.LoadString(R"(
//     disj(X, Y) :- forall A in X, forall B in Y : A != B.
//     s({1, 2}). s({3}).
//     pair(X, Y) :- s(X), s(Y), disj(X, Y).
//   )");
//   engine.Evaluate();
//   engine.HoldsText("pair({1,2}, {3})");   // -> true
#ifndef LPS_EVAL_ENGINE_H_
#define LPS_EVAL_ENGINE_H_

#include <string>
#include <vector>

#include "api/session.h"

namespace lps {

class Engine {
 public:
  explicit Engine(LanguageMode mode = LanguageMode::kLDL);

  TermStore* store() { return session_.store(); }
  Program* program() { return session_.program(); }
  Database* database() { return session_.database(); }
  Signature* signature() { return session_.signature(); }
  LanguageMode mode() const { return session_.mode(); }

  /// The underlying session, for incremental migration to the new API.
  Session& session() { return session_; }

  /// Parses and adds clauses/facts; may be called repeatedly before
  /// Evaluate(). Positive bodies are compiled per Theorem 6; the
  /// resulting program is validated against the engine's language mode.
  Status LoadString(const std::string& source);

  /// Runs the bottom-up evaluator to fixpoint.
  Status Evaluate(EvalOptions options = {});
  const EvalStats& eval_stats() const { return session_.eval_stats(); }

  /// Queries evaluated against the current database. `goal` is an atom
  /// or comparison, e.g. "pair(X, {3})"; each answer is one tuple of
  /// the goal's arguments. Parses `goal` on every call.
  Result<std::vector<Tuple>> Query(const std::string& goal);

  /// True if the ground goal holds in the current database.
  Result<bool> HoldsText(const std::string& goal);

  /// Solves a goal top-down (SLD with set unification) against the
  /// program, without requiring a prior Evaluate().
  Result<std::vector<Tuple>> SolveTopDown(const std::string& goal,
                                          TopDownOptions options = {});

  /// Parses a single ground or non-ground term, e.g. "{a, b}".
  Result<TermId> ParseTerm(const std::string& text);

  /// Queries collected from "?- goal." items in loaded sources.
  const std::vector<Literal>& pending_queries() const {
    return session_.pending_queries();
  }

  /// Renders a tuple for display.
  std::string TupleToString(const Tuple& tuple) const;

  /// Discards all derived tuples (keeps program and facts).
  void ResetDatabase();

 private:
  Session session_;
};

}  // namespace lps

#endif  // LPS_EVAL_ENGINE_H_
