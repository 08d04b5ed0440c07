// Goal execution shared by PreparedQuery (api/query.cc) and the
// concurrent query server (serve/server.cc): preparing a goal, applying
// a binding to it, streaming a relation's rows that match it, answering
// a builtin goal, and the one demand path - a per-goal cache of magic
// rewrites and the routine that evaluates one for a binding (DESIGN.md
// section 13). A goal is answered on the evaluator's own step code: the
// scan source matches rows with MatchRow and a builtin goal's plan runs
// on ExecBuiltinStep (eval/bottomup.h), as a rule body's steps do. Each
// caller keeps only its own policy around these: the session its
// fallback to Evaluate() and its subsumption memo, the server its
// admission control, deadline and answer cap.
//
// A demand request compiles once, not once per request: each cached
// rewrite keeps its CompiledProgram (eval/bottomup.h), and
// EvaluateDemand runs it again for every request whose seeded database
// has the planner statistics it was compiled for. The key is those
// statistics, not an epoch: equal statistics give equal plans, and an
// index built into the session's database within one fact epoch
// changes them.
//
// RelationScanSource only reads: it probes the relation with the const
// Relation::Lookup, which never mutates it, so any number of threads
// may stream over one frozen relation concurrently. A caller that owns
// the database builds the pattern's index first
// (Database::EnsureIndex with AppliedGoal::mask); over a snapshot,
// whose indexes were frozen at publication, a mask never indexed
// before the freeze falls back to a scan (index_hit() is then false).
#ifndef LPS_API_GOAL_EXEC_H_
#define LPS_API_GOAL_EXEC_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/answer_cursor.h"
#include "eval/bottomup.h"
#include "eval/builtins.h"
#include "eval/database.h"
#include "eval/plan.h"
#include "lang/validate.h"
#include "term/substitution.h"
#include "transform/magic.h"
#include "unify/unify.h"

namespace lps {

/// A goal validated against a language mode and planned once, with its
/// distinct variables (the bindable parameters) in first-occurrence
/// order.
struct PreparedGoal {
  Literal goal;
  GoalPlan plan;
  std::vector<TermId> vars;
};

Result<PreparedGoal> PrepareGoal(const TermStore& store,
                                 const Program& program, LanguageMode mode,
                                 Literal goal);

/// A goal's arguments under a binding: each with the binding applied,
/// the bound-column mask of the ground ones (ColumnBit, so none past
/// column 31), and whether any of them is ground, past column 31
/// included.
struct AppliedGoal {
  std::vector<TermId> args;
  uint32_t mask = 0;
  bool any_bound = false;
};

AppliedGoal ApplyGoal(TermStore* store, const Literal& goal,
                      const Substitution& bindings);

// Lazily streams the rows of one relation that match the (partially
// ground) goal argument patterns, using the relation's hash index on
// the ground positions. This is the Execute() fast path: answers are
// produced one Next() at a time as zero-copy views straight into the
// relation's row arena (the database is frozen while a cursor streams
// - Evaluate()/ResetDatabase() invalidate cursors), so callers that
// stop pulling stop paying and matched rows are never copied. A row
// matches when MatchRow, the evaluator's kScan row matcher, finds it
// at least once; the stream stops there, where a rule body continues
// into every extension.
class RelationScanSource final : public AnswerSource {
 public:
  /// `rel` may be null (predicate never stored - the stream is empty).
  /// `store` is the *caller's* store (a worker's private clone when
  /// serving): it must share the relation's TermId prefix, i.e. be the
  /// relation's store itself or a TermStore::Clone() descendant of it.
  /// `owner`, if set, is what `rel` lives in (a demand result): the
  /// source keeps it alive, so a cursor streams however long its
  /// caller pulls, across cache invalidation.
  RelationScanSource(TermStore* store, UnifyOptions unify,
                     const Relation* rel, AppliedGoal pattern,
                     std::shared_ptr<const void> owner = nullptr);

  Result<bool> Next(TupleRef* out) override;
  void Rewind() override { pos_ = 0; }

  /// False when the probe had to fall back to scanning because no
  /// index covering every row matched the mask (ServeStats counts
  /// these).
  bool index_hit() const { return index_hit_; }

 private:
  std::shared_ptr<const void> owner_;
  TermStore* store_;
  UnifyOptions unify_;
  const Relation* rel_;
  std::vector<TermId> patterns_;
  uint32_t mask_;
  bool index_hit_ = true;
  std::vector<RowId> indices_;
  size_t pos_ = 0;
};

/// Answers a builtin goal: runs its plan `steps` (active-domain
/// enumeration steps, then the builtin itself) on ExecBuiltinStep from
/// `bindings`, appending the goal's arguments under each distinct
/// solution to *out. Reads only the database's active domains, so it
/// can run against a frozen snapshot database; new terms a builtin
/// computes (sums, unions) intern into `store`, which must be private
/// to the caller on concurrent paths.
Status AnswerBuiltinGoal(TermStore* store, const Database& db,
                         const BuiltinOptions& builtins, const Literal& goal,
                         const std::vector<PlanStep>& steps,
                         const Substitution& bindings,
                         std::vector<Tuple>* out);

/// One goal's magic rewrites (transform/magic.h), cached per binding
/// mask until the rules change (the owner calls Clear()). A rewrite
/// that fell back is cached with its reason. Patterns differing only
/// past column 31 share a mask, and may share the entry: MagicRewrite
/// falls back alike for every pattern of a goal that wide. Not
/// thread-safe: each caller owns its cache (a server worker, a
/// prepared query).
class DemandRewriteCache {
 public:
  struct Entry {
    std::shared_ptr<const MagicProgram> rewrite;  // null: fell back
    std::string fallback_reason;
    /// The rewrite's program as last compiled by EvaluateDemand, for
    /// the planner statistics of the database it ran over; empty until
    /// the first run.
    std::optional<CompiledProgram> compiled;
  };

  /// The rewrite of `goal` over `program` for `applied`'s binding
  /// pattern. A miss builds it (and sets *built), with SIP statistics
  /// (PlannerStats::FromDatabase) from `db` - the database the
  /// evaluation reads its facts from - when `reorder` is on; off keeps
  /// the source-order rewrite. A SIP order picked under statistics that
  /// later go stale stays correct (any order is); only the sizes of
  /// its intermediate relations drift. The entry stays valid until the
  /// next Get() or Clear().
  Result<Entry*> Get(const Program& program, const Literal& goal,
                     const AppliedGoal& applied, const Database& db,
                     bool reorder, bool* built);
  void Clear() { entries_.clear(); }

 private:
  std::map<uint32_t, Entry> entries_;
};

/// Evaluates `entry`'s rewrite rw (entry->rewrite, non-null) for one
/// binding into `db`, which must be empty and over rw.program's
/// signature: seeds rw.seed_pred with `applied`'s values at
/// rw.seed_positions and the facts of `src` by Database::SeedFacts
/// (`seed` listed from `src` since its last change; `index_home` as
/// there), then runs the rewritten program to fixpoint under `options`.
/// The run reuses entry->compiled when the seeded database's planner
/// statistics (BottomUpEvaluator::PlanningStats) equal those it was
/// compiled for; otherwise it compiles the rewrite into the entry and
/// sets *compiled. Either way the answers, the plans and the run's
/// statistics are those of a fresh Evaluate(). The answers are
/// rw.goal.pred's relation in `db`. `stats`, if given, gets the run's
/// statistics with the magic counters filled in.
Status EvaluateDemand(DemandRewriteCache::Entry* entry,
                      const AppliedGoal& applied, const Database& src,
                      const Database::FactSeed& seed, Database* index_home,
                      const EvalOptions& options, Database* db,
                      EvalStats* stats, bool* compiled);

}  // namespace lps

#endif  // LPS_API_GOAL_EXEC_H_
