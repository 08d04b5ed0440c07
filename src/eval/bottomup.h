// Bottom-up fixpoint evaluation (Section 3.2): computes the least
// Herbrand model M_P = lfp(T_P) = T_P ^ omega (Theorem 5) restricted to
// the active domain, stratum by stratum when negation or grouping is
// present (Section 4.2 / 6.2).
//
// Two evaluation modes:
//  * naive        - every iteration re-derives from the full relations;
//  * semi-naive   - Horn-shaped rules use per-literal delta joins;
//                   quantified / enumerating / grouping rules re-run only
//                   when something they can observe changed.
// Both reach the same fixpoint; bench_fixpoint measures the gap.
//
// Compiling and running are separate steps. Compile() stratifies the
// program and plans every clause for a database's planner statistics
// into a CompiledProgram; Run() evaluates one. A compiled program is
// read-only while it runs - per-run state sits in the evaluator - so
// the demand path keeps one per cached magic rewrite and runs it for
// every request whose seeded database has the same statistics
// (api/goal_exec.h). Evaluate() is Compile() then Run().
//
// One loop of rounds serves both a full evaluation, whose round 0 is a
// first pass over everything, and incremental maintenance's inserts,
// whose rounds start from the caller's pre-batch watermarks
// (Reconverge). A round's delta is what the previous round appended -
// a range past the watermark - plus the tombstoned rows its inserts
// revived, which sit below every watermark and join as explicit rows.
//
// Restricted universal quantifiers are evaluated as relational division
// with first-element seeding, with a separate vacuous-truth branch for
// empty quantifier ranges (Definition 4; see DESIGN.md section 6).
#ifndef LPS_EVAL_BOTTOMUP_H_
#define LPS_EVAL_BOTTOMUP_H_

#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "base/worker_pool.h"
#include "eval/builtins.h"
#include "eval/database.h"
#include "eval/flat_join.h"
#include "eval/groupby.h"
#include "eval/plan.h"
#include "lang/program.h"
#include "transform/stratify.h"

namespace lps {

class IncrementalMaintainer;

struct EvalOptions {
  bool semi_naive = true;
  size_t max_iterations = 100000;
  size_t max_tuples = 2000000;
  /// Worker lanes for the flat rules' semi-naive delta rounds and
  /// grouping body scans: 0 = hardware concurrency, N >= 1 = that many
  /// lanes. The lane count decides only who runs the work: every lane
  /// count, 1 included, yields the same database, insertion order
  /// included. One lane, and naive mode, never start a pool.
  size_t threads = 1;
  /// Cost-based join ordering (eval/plan.h PlannerStats): body literals
  /// reorder by estimated bound-selectivity from relation statistics
  /// taken at rule-compile time. Off = the boundness-heuristic source
  /// order, byte-exact legacy plans (the debugging escape hatch).
  bool reorder = true;
  /// Cooperative evaluation deadline (steady clock); the default
  /// (epoch, i.e. time_point{}) means no deadline. Checked once per
  /// fixpoint iteration and every ~1k join steps, so evaluation
  /// returns a typed kDeadlineExceeded within a bounded overshoot
  /// instead of running to fixpoint. Set by the serve-path admission
  /// control (serve/server.h); deliberately NOT mirrored through
  /// api::Options - sessions own their evaluations, only the server
  /// imposes per-request budgets.
  std::chrono::steady_clock::time_point deadline{};
  BuiltinOptions builtins;
};

struct EvalStats {
  size_t strata = 0;
  size_t iterations = 0;
  size_t rule_runs = 0;
  size_t tuples_derived = 0;    // rows rules added (facts are not counted)
  size_t combos_checked = 0;   // quantifier verification work
  size_t seed_joins = 0;       // division seedings performed
  size_t empty_branch_runs = 0;
  // ---- Parallel-phase counters (all 0 without a pool) ----------------
  size_t threads_used = 0;      // resolved lane count when parallel ran
  size_t parallel_tasks = 0;    // tasks the pool executed
  size_t parallel_tuples = 0;   // tuples buffered by pooled tasks
                                // (pre-merge)
  size_t snapshot_fallbacks = 0;  // frozen-database probes that missed a
                                  // prebuilt index (at any lane count)
  // ---- Cost-based join planning (eval/plan.h; DESIGN.md section 17) --
  size_t plan_reorders = 0;   // plans whose cost order differs from the
                              // boundness-heuristic order
  double plan_estimated_tuples = 0;  // summed per-rule output estimates
                                     // (compare against tuples_derived
                                     // for the estimate error)
  size_t subsumption_hits = 0;  // 1 when this demand execution was
                                // answered from a cached broader-mask
                                // result (api/query.cc), else 0
  // ---- Storage-engine footprint at fixpoint (eval/relation.h) --------
  size_t arena_bytes = 0;       // row arenas across all relations
  size_t index_bytes = 0;       // dedup tables + per-mask indexes
  uint64_t dedup_probes = 0;    // insert-side open-addressing probes
  // ---- Grouping (Definition 14) and set interning ---------------------
  size_t groups_emitted = 0;    // group tuples produced by grouping rules
  size_t group_elements = 0;    // elements accumulated pre-dedup
  size_t set_interns = 0;       // canonical-set intern requests this run
  size_t set_intern_hits = 0;   // requests satisfied by the intern table
  // ---- Demand (magic-set) evaluation, filled by the api layer when a
  // prepared query executes goal-directed (transform/magic.h). All
  // zero/empty after a plain full-fixpoint Evaluate(). ------------------
  size_t magic_predicates = 0;  // magic predicates in the rewrite
  size_t magic_tuples = 0;      // demand tuples derived into them
  // Why the last ExecuteDemand() fell back to the full fixpoint; empty
  // when the rewrite applied (or demand was never attempted).
  std::string demand_fallback_reason;
  // ---- Incremental maintenance (eval/incremental.h), filled when a
  // mutation batch commits through the delta path; all zero after a
  // plain full-fixpoint Evaluate(). -------------------------------------
  size_t delta_rounds = 0;        // insert-pass semi-naive rounds
  size_t overdeleted_tuples = 0;  // tuples a retract put in doubt: the
                                  // retracted facts present plus every
                                  // tuple checked
  size_t rederived_tuples = 0;    // in-doubt tuples proved to keep a
                                  // derivation (never tombstoned); the
                                  // difference is the tuples deleted
  // ---- Bulk ingestion (api/ingest.cc), filled by the last
  // Session::LoadFactsParallel; all zero otherwise. Unlike the rest of
  // EvalStats this block survives later evaluations and mutation
  // commits - it always describes the most recent bulk load. ------------
  struct IngestStats {
    size_t lanes = 0;           // parser lanes the load actually used
    size_t chunks = 0;          // newline-aligned chunks parsed
    size_t facts_parsed = 0;    // fact literals produced by the lanes
    size_t general_path_facts = 0;  // of those, facts that took the
                                    // clause pipeline instead of the
                                    // parser's flat ground-atom path:
                                    // one with a set or function term
                                    // argument, and every fact after it
                                    // in its chunk
    size_t facts_inserted = 0;  // net-new rows after dedup in the merge
    size_t scratch_terms = 0;   // terms interned across lane scratches
    size_t remap_hits = 0;      // fact arguments already session-valid
                                // (prefix-stable Clone: no re-intern)
    size_t presize_rehashes_avoided = 0;  // dedup doublings skipped by
                                          // Relation::Reserve presizing
    double parse_ms = 0;  // wall time of the parallel parse phase
    double merge_ms = 0;  // wall time of the merge (intern/translate/
                          // insert passes together)
  };
  IngestStats ingest;
};

/// One clause compiled for the evaluator: its plans and what the
/// executors decide from them.
struct CompiledRule {
  const Clause* clause = nullptr;
  RulePlan plan;
  bool horn_simple = false;   // eligible for delta joins
  // Flat fragment (eval/flat_join.h): only kScan / kNegated-on-user-
  // predicate steps, and every literal and head argument is ground or
  // a plain variable (ground set and function terms included - they
  // are interned once at parse time). Such rules run on the flat join
  // kernel at every lane count; it never interns a term or writes the
  // database mid-round, so their delta rounds can spread over worker
  // lanes against a frozen database.
  bool parallel_safe = false;
  // Grouping rules in the same flat fragment (no quantifiers, flat
  // key and body args): the grouping body runs on the kernel with its
  // first scan sharded, per-task (key, element) buffers merged in
  // task order into the group accumulator.
  bool group_parallel_safe = false;
  // The free literals that carry semi-naive deltas: positive user
  // literals on predicates of the head's stratum.
  std::vector<size_t> in_stratum_literals;

  /// The plan for joining a delta on body literal `li`: the planner's
  /// delta-first variant when built (for every positive user literal
  /// of a quantifier-free rule), else the free plan. Leading with the
  /// delta keeps a round's cost proportional to the delta, and lets a
  /// delta split into chunks without changing the derivation order.
  const std::vector<PlanStep>& DeltaSteps(size_t li) const;
};

/// A program compiled for one database's planner statistics: its
/// stratification and every clause's CompiledRule, in clause order.
/// The plans are a deterministic function of (clause, statistics)
/// (eval/plan.h), so compiling again for equal `stats` builds exactly
/// these rules, and one compiled program serves any number of runs,
/// over any databases with equal statistics: nothing in it changes
/// while a run goes. Its rules point into the program's clauses, so it
/// must not outlive the program.
struct CompiledProgram {
  Stratification strat;
  std::vector<CompiledRule> rules;
  /// The statistics the plans were built from; none when they are the
  /// heuristic order (EvalOptions::reorder off).
  std::optional<PlannerStats> stats;
  size_t plan_reorders = 0;          // what a run reports in EvalStats
  double plan_estimated_tuples = 0;
};

// ---- Step code shared with goal answering (api/goal_exec.h) ----------

/// Matches one stored row against a scan literal's argument patterns,
/// extending *ext - ExecSteps' kScan and the goal scan source both match
/// rows here. Columns in `mask` are skipped (the index probe matched
/// them); a ground pattern must equal the row's value; a variable binds
/// to it after a sort check; the set and function patterns that still
/// hold variables unify with their values through one
/// Unifier::EnumerateTuples into *unifiers, which is cleared first.
/// Returns whether the row matches: once, as *ext, when *unifiers stays
/// empty, else once per unifier, each extending *ext.
Result<bool> MatchRow(TermStore* store, UnifyOptions unify,
                      TupleRef patterns, uint32_t mask, TupleRef row,
                      Substitution* ext, std::vector<Substitution>* unifiers);

/// What a plan step calls with each extension it admits.
using StepNext = std::function<Status(Substitution*)>;

/// Runs one kBuiltin or kEnum* step of a plan over `body` under *theta,
/// calling `next` with every extension the step admits - ExecSteps and
/// the builtin goal routes both run these steps here. kBuiltin evaluates
/// body[step.literal_index] (EvalBuiltin); terms it computes (sums,
/// unions) intern into `store`. kEnumAtom / kEnumSet / kEnumAny bind
/// step.var, unless already bound, to each value of db's atom domain,
/// set domain or both, as far as the domain reached when the step
/// started: values the continuation adds are not enumerated.
Status ExecBuiltinStep(TermStore* store, const Database& db,
                       const BuiltinOptions& builtins,
                       std::span<const Literal> body, const PlanStep& step,
                       Substitution* theta, const StepNext& next);

class BottomUpEvaluator {
 public:
  /// `program` and `db` must outlive the evaluator. `db` holds the
  /// facts already (Database::AddFact); Evaluate() derives from them.
  BottomUpEvaluator(const Program* program, Database* db,
                    EvalOptions options = {});

  /// Runs to fixpoint: Run(Compile(PlanningStats())). Repeatable:
  /// already-present tuples are kept.
  Status Evaluate();

  /// The statistics a compile over the database plans from now
  /// (PlannerStats::FromDatabase); none with EvalOptions::reorder off.
  /// A compiled program whose `stats` equal them is what a compile now
  /// would build.
  std::optional<PlannerStats> PlanningStats() const;
  /// Stratifies the program and plans every clause for `stats`.
  Result<CompiledProgram> Compile(std::optional<PlannerStats> stats) const;
  /// Runs `compiled`, a compile of this evaluator's program, to
  /// fixpoint over the database. It is only read.
  Status Run(const CompiledProgram& compiled);

  const EvalStats& stats() const { return stats_; }

 private:
  // The incremental maintainer (eval/incremental.h) re-converges after
  // a mutation batch without a from-scratch fixpoint: its retracts join
  // through the compiled rules and ExecSteps, its inserts go through
  // AddRow and Reconverge.
  friend class IncrementalMaintainer;

  /// Per predicate, the relation size its next round's delta starts at.
  using Marks = std::unordered_map<PredicateId, size_t>;

  // One round's delta of one predicate: the rows appended since the
  // previous round began, [begin, end), and the tombstoned rows that
  // round's inserts revived - which sit below begin, so no range
  // reaches them.
  struct Delta {
    size_t begin = 0;
    size_t end = 0;
    std::vector<RowId> revived;

    /// The two joins of this delta on body literal `li`: the appended
    /// range, then the revived rows as an explicit-rows delta. Either
    /// may be empty (begin >= end).
    std::array<DeltaSpec, 2> Specs(size_t li) const {
      return {DeltaSpec{li, begin, end},
              DeltaSpec{li, 0, revived.size(), &revived}};
    }
  };
  using Deltas = std::unordered_map<PredicateId, Delta>;

  // What one flat task leaves for the merge: derived head tuples (new
  // to the frozen database, deduplicated, in derivation order) or, for
  // a grouping rule, (key, element) pairs - pair i is the key span
  // [i * key_width, (i + 1) * key_width) of group_keys plus
  // group_elems[i], flat so accumulation allocates nothing per row.
  struct FlatOutput {
    Relation derived{0};
    std::vector<TermId> group_keys;
    std::vector<TermId> group_elems;
    Status status;
    size_t snapshot_fallbacks = 0;
  };

  /// Makes `compiled` the program EvaluateStratum runs: its rules, each
  /// complex rule's version gate cleared, and the plan counters a run
  /// reports in stats_. Called by Run, and by the maintainer once per
  /// commit.
  void Bind(const CompiledProgram& compiled);
  /// Runs one stratum's rounds of the bound program to fixpoint. Without
  /// `marks`, round 0 is the first pass: every rule over the whole
  /// database, counted in `iterations`. With them the database was at
  /// fixpoint below the marks, so every round is a delta round, counted
  /// in `delta_rounds`.
  Status EvaluateStratum(const std::vector<size_t>& clause_indices,
                         Marks* marks = nullptr);
  /// Re-converges a database that was at fixpoint before rows were
  /// added past `marks` (through AddRow, so revived rows reach the
  /// first round too): EvaluateStratum with no first pass over the one
  /// stratum of the bound program, a Horn program without negation or
  /// grouping, on the calling thread. A predicate without a mark is
  /// new: all its rows are delta.
  Status Reconverge(Marks marks);
  /// Runs a rule on ExecSteps - its free plan, or with a delta its
  /// delta-first plan: naive mode and the non-flat rules.
  Status RunRule(const CompiledRule& rule, const DeltaSpec* delta);
  /// A flat rule's first pass: the kernel over the live database,
  /// inserting as it derives, so later probes see earlier derivations.
  Status RunFlatFirstPass(const CompiledRule& rule);
  /// One semi-naive round of every flat rule in `clause_indices`: each
  /// (rule, delta literal) job runs on the kernel against the database
  /// as frozen at the round's start, and the derivations merge in task
  /// order - so the lane count never changes what is inserted, or when.
  Status RunFlatRound(const std::vector<size_t>& clause_indices,
                      const Deltas& delta);
  Status RunGroupingRule(const CompiledRule& rule);
  /// A flat grouping rule's body on the kernel, its first scan sharded
  /// like a delta; the (key, element) pairs merge into group_acc_ in
  /// task order.
  Status RunFlatGrouping(const CompiledRule& rule);
  Status RunEmptyBranch(const CompiledRule& rule);

  /// Decides whether the rule is in the flat fragment.
  void AnalyzeRuleForParallel(CompiledRule* rule) const;

  /// Builds every index `job` will probe, before it runs against the
  /// frozen database (FrozenRows never builds one).
  void PrepareIndexes(const FlatJob& job);
  /// Appends `job` to *tasks: whole without a pool, else with its delta
  /// split into consecutive chunks for the lanes to share.
  void AppendTasks(const FlatJob& job, std::vector<FlatJob>* tasks) const;
  /// Runs `tasks` on the kernel against the frozen database - on the
  /// pool when there is one and more than one task, inline otherwise -
  /// and returns each task's output in task order.
  std::vector<FlatOutput> RunFlatTasks(const std::vector<FlatJob>& tasks);

  // Executes plan steps [idx..) extending theta; calls cont on success.
  Status ExecSteps(const CompiledRule& rule,
                   const std::vector<PlanStep>& steps, size_t idx,
                   Substitution* theta, const DeltaSpec* delta,
                   const std::function<Status(Substitution*)>& cont);

  Status HandleQuantifiers(const CompiledRule& rule, Substitution* theta,
                           const std::function<Status(Substitution*)>& cont);

  // True if the (ground) literal holds in the current database.
  Result<bool> LiteralHolds(const Literal& lit, const Substitution& theta);

  Status EmitHead(const CompiledRule& rule, Substitution* theta);

  /// Inserts a derived tuple; a new one counts against max_tuples.
  Status AddDerived(PredicateId pred, TupleRef t);
  /// Inserts a tuple and returns whether it is new. A row it revives
  /// joins the next round as a delta (revived_).
  bool AddRow(PredicateId pred, TupleRef t);

  const Program* program_;
  Database* db_;
  EvalOptions options_;
  EvalStats stats_;
  uint32_t deadline_tick_ = 0;  // CheckDeadline countdown for ExecSteps
  FlatScratch scratch_;         // kernel state for first passes

  // Recycled scratch buffers for the sequential join loop: ExecSteps
  // frames lease a buffer on entry and return it on exit, so steady-
  // state scans allocate nothing per row (see Lease in bottomup.cc).
  std::vector<Tuple> tuple_pool_;
  std::vector<std::vector<RowId>> rowid_pool_;

  // Non-null iff the resolved thread count is > 1, semi-naive mode is
  // on and some flat rule can shard; reused across iterations and
  // strata.
  std::unique_ptr<WorkerPool> pool_;

  // The bound program (Bind), and each of its rules' database version
  // when it last ran (complex-rule gating). Run clears it on return.
  const CompiledProgram* compiled_ = nullptr;
  std::vector<uint64_t> last_version_;
  // Rows AddRow revived since the current round began, per predicate.
  std::unordered_map<PredicateId, std::vector<RowId>> revived_;
  // Arena-backed accumulator for the grouping rule being run, plus the
  // reusable set builder that canonicalizes each group's element
  // stream at emission; both reach allocation-free steady state across
  // rule runs (eval/groupby.h, term/term.h).
  GroupAccumulator group_acc_;
  SetBuilder set_builder_;
};

/// Convenience: stratify and evaluate over `db`'s facts; returns stats.
Result<EvalStats> EvaluateProgram(const Program& program, Database* db,
                                  EvalOptions options = {});

}  // namespace lps

#endif  // LPS_EVAL_BOTTOMUP_H_
