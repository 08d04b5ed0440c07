// Session: the compile-once / execute-many entry point to the LPS
// engine. A Session owns the term store, the program (its rules) and
// the database (its facts and everything derived from them) and moves
// through a staged lifecycle:
//
//   Load      parse source text and stage it (parse errors surface
//             here; nothing is committed to the program yet);
//   Compile   lower staged units - sort inference, Theorem 6
//             compilation of positive bodies, validation against the
//             session's language mode - then commit their clauses to
//             the program and their facts to the database, and
//             collect "?- goal." items;
//   Evaluate  run the bottom-up evaluator to fixpoint (implies
//             Compile() of anything still staged);
//   Prepare   turn goal text into a PreparedQuery handle - parsed,
//             validated and planned exactly once, then re-executable
//             against the current database with bound parameters.
//
// Answers stream through AnswerCursor (api/answer_cursor.h). See
// README.md for a tour.
#ifndef LPS_API_SESSION_H_
#define LPS_API_SESSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/answer_cursor.h"
#include "api/mutation.h"
#include "api/options.h"
#include "api/query.h"
#include "eval/database.h"
#include "lang/program.h"
#include "lang/validate.h"
#include "parse/parser.h"

namespace lps {

namespace serve {
class Snapshot;
struct FreezeOptions;
}  // namespace serve

class Session {
 public:
  explicit Session(LanguageMode mode = LanguageMode::kLDL,
                   Options options = {});

  // Not copyable or movable: PreparedQuery handles point back at their
  // session.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  TermStore* store() { return store_.get(); }
  Program* program() { return program_.get(); }
  Database* database() { return db_.get(); }
  Signature* signature() { return &program_->signature(); }
  LanguageMode mode() const { return mode_; }
  const Options& options() const { return options_; }
  void set_options(const Options& options) { options_ = options; }

  // ---- Staged lifecycle: Load -> Compile -> Evaluate -----------------

  /// Parses `source` and stages it; may be called repeatedly. Only
  /// parse errors surface here - sort and validation errors surface
  /// from Compile().
  Status Load(const std::string& source);

  /// Lowers everything staged since the last Compile() (sort
  /// inference, Theorem 6 compilation, validation) and, only once the
  /// whole batch validates, commits its clauses to the program and its
  /// facts to the database, in source order - they are visible there
  /// at once, before any Evaluate(). Collects the "?- goal." queries.
  /// No-op when nothing is staged.
  Status Compile();

  /// Bulk-loads a facts-only source through the pipelined parallel
  /// loader (api/ingest.cc): the input is split into newline-aligned
  /// chunks, `lanes` parser workers (0 = hardware concurrency) parse
  /// chunks into per-worker TermStore::Clone scratches - a fact of
  /// constants and integers as one flat row, with no clause tree - and
  /// a merge stage remaps scratch terms into the session store in
  /// chunk order and bulk-inserts with dedup tables presized from the
  /// chunk fact counts. The result is byte-identical - ToString, not just
  /// ToCanonicalString - to Load+Compile of the same source at every
  /// lane count. `source` must contain ground facts only (no rules,
  /// declarations, or queries); any error (parse, sort, validation)
  /// leaves the session untouched. Compiles staged units first;
  /// ingestion metrics land in eval_stats().ingest.
  Status LoadFactsParallel(const std::string& source, size_t lanes = 0);

  /// Brings the database to fixpoint bottom-up, compiling first if
  /// needed. Repeatable: already-derived tuples are kept.
  Status Evaluate();
  Status Evaluate(const Options& options);

  /// Statistics of the most recent evaluation: a Session::Evaluate()
  /// run, or the last goal-directed magic-set evaluation of a
  /// PreparedQuery::ExecuteDemand() (see eval/bottomup.h). Only
  /// ExecuteDemand() writes the demand fields
  /// (magic_predicates/magic_tuples/demand_fallback_reason), and they
  /// describe its most recent *attempt*, which may have fallen back:
  /// after a fallback on a converged session they hold that attempt's
  /// reason and zeros while the evaluation counters still describe the
  /// evaluation that converged it. Evaluate() clears them.
  /// Before the first evaluation of either kind this returns a
  /// value-initialized EvalStats: every counter 0 and
  /// demand_fallback_reason empty - callers may rely on that instead
  /// of guarding the first call.
  const EvalStats& eval_stats() const { return eval_stats_; }

  // ---- Fact mutations (api/mutation.h) -------------------------------

  /// Opens a transactional mutation batch: stage Add/Retract ops, then
  /// Commit() to apply them atomically (the facts' base counts in the
  /// database updated, fact_epoch() bumped, the database re-converged
  /// when it was at fixpoint - incrementally under
  /// Options::incremental) or Abort() to discard with no state change.
  /// The only mutation surface with retract support.
  MutationBatch Mutate();

  // ---- Snapshot publication (src/serve/) -----------------------------

  /// Freezes the session's current state into an immutable snapshot:
  /// compiles (and by default evaluates to fixpoint), deep-clones the
  /// term store, program and database, and eagerly catches up every
  /// relation index, so concurrent readers' probes hit prebuilt
  /// indexes. The session stays fully usable afterwards - further Load
  /// / Mutate / Evaluate calls never touch a published snapshot, which
  /// is how a writer re-evaluates while readers drain on the old epoch
  /// (serve::SnapshotRegistry). Same as FreezeIncremental(nullptr,
  /// opts); an invalid FreezeOptions::indexes mask is an error.
  /// Defined in serve/snapshot.cc.
  Result<std::shared_ptr<const serve::Snapshot>> Freeze();
  Result<std::shared_ptr<const serve::Snapshot>> Freeze(
      const serve::FreezeOptions& opts);

  /// Copy-on-write republication: like Freeze(), but relations whose
  /// content has not changed since `prev` was frozen from this session
  /// alias prev's immutable storage (row arena, dedup table, per-mask
  /// indexes) instead of being deep-copied, and the TermStore itself
  /// is aliased when no term or symbol was interned since - so after
  /// an incremental MutationBatch commit the publish cost is
  /// proportional to the delta, not the database. The sharing achieved
  /// is reported in Snapshot::cow_stats(). `prev == nullptr` falls
  /// back to a full deep freeze (convenient for publish loops); a
  /// `prev` frozen by a different session is an error. Defined in
  /// serve/snapshot.cc; sharing rules in DESIGN.md section 18.
  Result<std::shared_ptr<const serve::Snapshot>> FreezeIncremental(
      const std::shared_ptr<const serve::Snapshot>& prev);
  Result<std::shared_ptr<const serve::Snapshot>> FreezeIncremental(
      const std::shared_ptr<const serve::Snapshot>& prev,
      const serve::FreezeOptions& opts);

  /// Process-unique id of this session (snapshot lineage tagging).
  uint64_t session_id() const { return session_id_; }

  // ---- Prepared queries ----------------------------------------------

  /// Parses, validates and plans `goal` once; the returned handle
  /// executes against the current database without re-parsing.
  Result<PreparedQuery> Prepare(const std::string& goal);

  /// Same, for an already-lowered goal literal (e.g. one of
  /// pending_queries()); involves no parsing at all. Taken by value:
  /// Compile() runs first and may grow pending_queries(), so a
  /// reference into that vector would not survive.
  Result<PreparedQuery> Prepare(Literal goal);

  /// Queries collected from "?- goal." items in compiled sources.
  const std::vector<Literal>& pending_queries() const { return queries_; }

  // ---- One-shot conveniences (one parse per call) --------------------

  Result<std::vector<Tuple>> Query(const std::string& goal);
  Result<bool> Holds(const std::string& goal);
  Result<std::vector<Tuple>> SolveTopDown(const std::string& goal);
  Result<std::vector<Tuple>> SolveTopDown(const std::string& goal,
                                          const Options& options);

  /// Parses a single ground or non-ground term, e.g. "{a, b}".
  Result<TermId> ParseTerm(const std::string& text);

  /// Renders a tuple for display.
  std::string TupleToString(const Tuple& tuple) const;

  /// Discards every derived tuple and keeps the facts: relations of
  /// predicates that head no rule stay as they are, each rule-headed
  /// relation is rebuilt from its base rows (base count above 0) in
  /// row order, and the active domains are rebuilt from what remains,
  /// so a term only a retracted fact carried is gone. Keeps the program
  /// and every PreparedQuery handle. Outstanding AnswerCursors are
  /// invalidated; prepared queries re-executed afterwards see the
  /// reset database.
  void ResetDatabase();

  // ---- Instrumentation -----------------------------------------------

  /// Parser invocations so far (Load / Prepare / ParseTerm / one-shot
  /// string queries). Executing a PreparedQuery never bumps this -
  /// that is the point of preparing.
  size_t parse_count() const { return parse_count_; }

  /// Bumped only when Compile() commits new *clauses*. Fact-only
  /// mutations leave it unchanged, which is the point of the split:
  /// prepared queries key their cached demand (magic-set) rewrites and
  /// their demand-eligibility decision on this epoch, so rewrite
  /// caches survive fact churn and are rebuilt exactly when rules
  /// change. Serve-side worker caches key on it too (serve/server.h).
  uint64_t rule_epoch() const { return rule_epoch_; }

  /// Bumped whenever the fact set changes: a MutationBatch commit that
  /// changed a fact's count, Compile() or LoadFactsParallel()
  /// committing new facts. Memoized demand results key on it
  /// (DESIGN.md section 17).
  uint64_t fact_epoch() const { return fact_epoch_; }

  /// True while the database holds the fixpoint of the current
  /// program: set by Evaluate(), cleared when Compile() commits
  /// clauses or facts and by ResetDatabase(). MutationBatch commits
  /// preserve it by re-converging.
  bool converged() const { return converged_; }

  /// MagicRewrite invocations across all prepared queries (demand
  /// cache misses). Stays flat across fact-only mutations - the
  /// observable witness that rewrite caches key on rule_epoch().
  size_t demand_rewrite_count() const { return demand_rewrite_count_; }

  /// Demand evaluations that compiled their rewrite's program; the
  /// rest reused the one compiled before, for equal planner statistics
  /// of the seeded database (api/goal_exec.h). Grows after a commit or
  /// an index build that changes the statistics of a relation the
  /// rewrite reads.
  size_t demand_compile_count() const { return demand_compile_count_; }

  /// Demand executions answered by filtering a cached materialized
  /// result whose binding mask subsumes the request (DESIGN.md section
  /// 17) - no rewrite, no fixpoint. The observable witness that e.g. a
  /// cached p(bf) answer served a later p(bb) goal.
  size_t demand_subsumption_count() const {
    return demand_subsumption_count_;
  }

  /// Human-readable join-order report: one block per rule with the
  /// planned step order and, when cost-based ordering is on, the
  /// per-step row estimates the planner used against the current
  /// database (lpsi's .plan command prints this). Compiles first.
  Result<std::string> ExplainPlans();

 private:
  friend class PreparedQuery;
  friend class MutationBatch;

  /// Replaces the statistics with a newer run's, keeping the ingest
  /// block: it describes the last LoadFactsParallel(), which no
  /// evaluation fills.
  void set_eval_stats(EvalStats stats);

  /// LoadFactsParallel's body (api/ingest.cc). With `ground_atom_path`
  /// false, ground atoms take the clause pipeline like every other
  /// fact: the oracle the flat path is tested against, which only
  /// tests reach (through IngestOracle, tests/ingest_test.cc).
  Status LoadFacts(std::string_view source, size_t lanes,
                   bool ground_atom_path);
  friend class IngestOracle;

  LanguageMode mode_;
  Options options_;
  std::unique_ptr<TermStore> store_;
  std::unique_ptr<Program> program_;
  std::unique_ptr<Database> db_;
  std::vector<ParsedUnit> staged_;
  std::vector<Literal> queries_;
  EvalStats eval_stats_;
  size_t parse_count_ = 0;
  size_t demand_rewrite_count_ = 0;
  size_t demand_compile_count_ = 0;
  size_t demand_subsumption_count_ = 0;
  uint64_t rule_epoch_ = 0;
  uint64_t fact_epoch_ = 0;
  uint64_t session_id_ = 0;  // assigned in the constructor, never 0
  bool converged_ = false;
};

}  // namespace lps

#endif  // LPS_API_SESSION_H_
