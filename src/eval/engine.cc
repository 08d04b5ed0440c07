#include "eval/engine.h"

namespace lps {

Engine::Engine(LanguageMode mode) : session_(mode) {}

Status Engine::LoadString(const std::string& source) {
  LPS_RETURN_IF_ERROR(session_.Load(source));
  return session_.Compile();
}

Status Engine::Evaluate(EvalOptions options) {
  return session_.Evaluate(Options::FromEval(options));
}

Result<std::vector<Tuple>> Engine::Query(const std::string& goal) {
  return session_.Query(goal);
}

Result<bool> Engine::HoldsText(const std::string& goal) {
  return session_.Holds(goal);
}

Result<std::vector<Tuple>> Engine::SolveTopDown(const std::string& goal,
                                                TopDownOptions options) {
  return session_.SolveTopDown(goal, Options::FromTopDown(options));
}

Result<TermId> Engine::ParseTerm(const std::string& text) {
  return session_.ParseTerm(text);
}

std::string Engine::TupleToString(const Tuple& tuple) const {
  return session_.TupleToString(tuple);
}

void Engine::ResetDatabase() { session_.ResetDatabase(); }

}  // namespace lps
