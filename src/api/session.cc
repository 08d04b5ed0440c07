#include "api/session.h"

#include <atomic>

#include "eval/bottomup.h"
#include "term/printer.h"
#include "transform/positive_compiler.h"

namespace lps {

namespace {

uint64_t NextSessionId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Session::Session(LanguageMode mode, Options options)
    : mode_(mode),
      options_(options),
      store_(std::make_unique<TermStore>()),
      program_(std::make_unique<Program>(store_.get())),
      db_(std::make_unique<Database>(store_.get(),
                                     &program_->signature())) {
  session_id_ = NextSessionId();
}

Status Session::Load(const std::string& source) {
  ++parse_count_;
  LPS_ASSIGN_OR_RETURN(ParsedUnit unit, ParseSource(source));
  staged_.push_back(std::move(unit));
  return Status::OK();
}

Status Session::Compile() {
  if (staged_.empty()) return Status::OK();
  // Transactional per call: lower every staged unit into one candidate
  // copy of the program (sharing the term store), with the facts held
  // aside, and commit only if the whole batch validates. A rejected
  // batch leaves no trace, so the session stays consistent and usable
  // after an error.
  std::vector<ParsedUnit> units = std::move(staged_);
  staged_.clear();
  Program candidate = *program_;
  size_t old_clauses = candidate.clauses().size();
  std::vector<Literal> new_facts;
  std::vector<Literal> new_queries;
  for (const ParsedUnit& unit : units) {
    LPS_ASSIGN_OR_RETURN(
        LoweredUnit lowered,
        LowerParsedUnit(unit, mode_, store_.get(),
                        &candidate.signature()));
    for (const GeneralClause& gc : lowered.clauses) {
      LPS_RETURN_IF_ERROR(AddGeneralClause(&candidate, gc));
    }
    for (Literal& f : lowered.facts) {
      LPS_RETURN_IF_ERROR(
          CheckFact(*store_, candidate.signature(), f.pred, f.args));
      new_facts.push_back(std::move(f));
    }
    for (Literal& q : lowered.queries) {
      new_queries.push_back(std::move(q));
    }
  }
  // Validate only what this batch added; earlier batches validated
  // when they were committed.
  for (size_t i = old_clauses; i < candidate.clauses().size(); ++i) {
    LPS_RETURN_IF_ERROR(ValidateClause(*store_, candidate.signature(),
                                       candidate.clauses()[i], mode_));
  }
  for (const Literal& f : new_facts) {
    LPS_RETURN_IF_ERROR(
        ValidateGoal(*store_, candidate.signature(), f, mode_));
  }
  // Commit in place: db_ points at program_'s signature member, so
  // assignment (not reallocation) keeps that pointer valid.
  bool clauses_grew = candidate.clauses().size() > old_clauses;
  *program_ = candidate;
  for (const Literal& f : new_facts) db_->AddFact(f.pred, f.args);
  for (Literal& q : new_queries) queries_.push_back(std::move(q));
  if (clauses_grew) ++rule_epoch_;  // invalidates cached demand rewrites
  if (!new_facts.empty()) ++fact_epoch_;
  if (clauses_grew || !new_facts.empty()) converged_ = false;
  return Status::OK();
}

Status Session::Evaluate() { return Evaluate(options_); }

Status Session::Evaluate(const Options& options) {
  LPS_RETURN_IF_ERROR(Compile());
  BottomUpEvaluator eval(program_.get(), db_.get(), options.eval());
  LPS_RETURN_IF_ERROR(eval.Evaluate());
  set_eval_stats(eval.stats());
  converged_ = true;
  return Status::OK();
}

void Session::set_eval_stats(EvalStats stats) {
  stats.ingest = eval_stats_.ingest;
  eval_stats_ = std::move(stats);
}

MutationBatch Session::Mutate() { return MutationBatch(this); }

Result<PreparedQuery> Session::Prepare(const std::string& goal) {
  LPS_RETURN_IF_ERROR(Compile());
  ++parse_count_;
  LPS_ASSIGN_OR_RETURN(
      Literal lit,
      ParseGoalText(goal, mode_, store_.get(), &program_->signature()));
  return Prepare(lit);
}

Result<PreparedQuery> Session::Prepare(Literal goal) {
  LPS_RETURN_IF_ERROR(Compile());
  LPS_ASSIGN_OR_RETURN(PreparedGoal prepared,
                       PrepareGoal(*store_, *program_, mode_, std::move(goal)));
  return PreparedQuery(this, std::move(prepared));
}

Result<std::vector<Tuple>> Session::Query(const std::string& goal) {
  LPS_ASSIGN_OR_RETURN(PreparedQuery q, Prepare(goal));
  LPS_ASSIGN_OR_RETURN(AnswerCursor cursor, q.Execute());
  return cursor.ToVector();
}

Result<bool> Session::Holds(const std::string& goal) {
  LPS_ASSIGN_OR_RETURN(PreparedQuery q, Prepare(goal));
  return q.Holds();
}

Result<std::vector<Tuple>> Session::SolveTopDown(const std::string& goal) {
  return SolveTopDown(goal, options_);
}

Result<std::vector<Tuple>> Session::SolveTopDown(const std::string& goal,
                                                 const Options& options) {
  LPS_ASSIGN_OR_RETURN(PreparedQuery q, Prepare(goal));
  LPS_ASSIGN_OR_RETURN(AnswerCursor cursor, q.SolveTopDown(options));
  return cursor.ToVector();
}

Result<TermId> Session::ParseTerm(const std::string& text) {
  LPS_RETURN_IF_ERROR(Compile());
  ++parse_count_;
  // Parse as the left side of a trivial goal.
  LPS_ASSIGN_OR_RETURN(
      Literal lit, ParseGoalText(text + " = " + text, mode_, store_.get(),
                                 &program_->signature()));
  return lit.args[0];
}

std::string Session::TupleToString(const Tuple& tuple) const {
  std::string out = "(";
  out += TermListToString(*store_, tuple);
  out += ")";
  return out;
}

void Session::ResetDatabase() {
  db_ = db_->FactsFor(*program_);
  converged_ = false;
}

Result<std::string> Session::ExplainPlans() {
  LPS_RETURN_IF_ERROR(Compile());
  const Signature& sig = program_->signature();
  // The plans the next Evaluate() compiles (after an Evaluate() the
  // relations are populated, so re-running shows the orders a
  // re-evaluation or an incremental pass would use).
  BottomUpEvaluator eval(program_.get(), db_.get(), options_.eval());
  LPS_ASSIGN_OR_RETURN(CompiledProgram compiled,
                       eval.Compile(eval.PlanningStats()));
  std::string out;
  char buf[64];
  for (const CompiledRule& rule : compiled.rules) {
    const Clause& c = *rule.clause;
    const RulePlan& plan = rule.plan;
    out += ClauseToString(*store_, sig, c);
    out += '\n';
    for (const PlanStep& s : plan.free_plan.steps) {
      out += "  ";
      switch (s.kind) {
        case StepKind::kScan:
          out += "scan    ";
          break;
        case StepKind::kBuiltin:
          out += "builtin ";
          break;
        case StepKind::kNegated:
          out += "negated ";
          break;
        case StepKind::kEnumAtom:
        case StepKind::kEnumSet:
        case StepKind::kEnumAny:
          out += "enum    ";
          out += TermToString(*store_, s.var);
          out += '\n';
          continue;
      }
      out += LiteralToString(*store_, sig, c.body[s.literal_index]);
      if (s.est_rows >= 0.0) {
        snprintf(buf, sizeof buf, "  ~%.0f rows", s.est_rows);
        out += buf;
      }
      out += '\n';
    }
    if (plan.free_plan.est_out >= 0.0) {
      snprintf(buf, sizeof buf, "  est out ~%.0f", plan.free_plan.est_out);
      out += buf;
      out += plan.free_plan.reordered ? "  (reordered)\n" : "\n";
    } else if (plan.free_plan.reordered) {
      out += "  (reordered)\n";
    }
  }
  if (out.empty()) out = "(no rules)\n";
  return out;
}

}  // namespace lps
