// Join planning for clause bodies.
//
// A plan is a greedy ordering of body literals (scans, builtin calls,
// negated checks) with explicit active-domain enumeration steps for
// variables no literal can bind. Planning is shared by the bottom-up
// evaluator's free part, its quantified "division" part, and the
// grouping executor.
//
// Two ordering modes (DESIGN.md section 17):
//  * heuristic (stats == nullptr): the boundness ladder alone - most
//    bound candidate first, source order breaking ties. Byte-exact
//    legacy behavior.
//  * cost-based (stats != nullptr): positive user literals are ranked
//    by their estimated matching-row count under the currently bound
//    variables (PlannerStats), so a selective literal runs before a
//    huge one regardless of where the author wrote it. Ties fall back
//    to the heuristic score and then to source order, so the order is
//    a deterministic function of (clause, statistics) - identical
//    across lane counts and across runs.
#ifndef LPS_EVAL_PLAN_H_
#define LPS_EVAL_PLAN_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "eval/relation.h"
#include "lang/program.h"

namespace lps {

class Database;

/// Per-relation statistics the cost-based planner consumes: live row
/// counts plus per-mask distinct-key counts harvested from indexes the
/// storage engine already built (Relation::Stats). A value snapshot:
/// build it at compile time, hand a pointer to the Build*Plan calls,
/// drop it after. Predicates marked derived (IDB) with no rows yet are
/// estimated at a default cardinality instead of zero - at first
/// compile their relations are empty, yet the same plan runs every
/// later semi-naive round against the growing fixpoint.
class PlannerStats {
 public:
  /// Marks `pred` as rule-defined: an empty relation means "unknown
  /// size", not "empty scan".
  void MarkDerived(PredicateId pred);

  /// Estimated number of rows a scan of `pred` walks when exactly the
  /// columns in `mask` are bound. mask == 0 estimates the full scan.
  /// Charged by physical (arena) rows, tombstones included - dead rows
  /// cost probe work even though they yield nothing, so a churned
  /// relation estimates as expensive as it actually is.
  /// Uses, in order: the exact-mask index's average bucket size, the
  /// product of per-single-column selectivities (1/distinct) for
  /// columns with a single-column index, and a default selectivity of
  /// kDefaultColumnSelectivity per remaining bound column.
  double EstimateScan(PredicateId pred, uint32_t mask) const;

  /// Snapshot of every materialized relation in `db`.
  static PlannerStats FromDatabase(const Database& db);
  /// What rule plans and the magic rewrite's SIP order are built from:
  /// the relations of the predicates `program`'s clause bodies read
  /// (no plan estimates any other), with every predicate that heads a
  /// rule marked derived.
  static PlannerStats FromDatabase(const Database& db,
                                   const Program& program);

  /// Equal statistics plan equally: every estimate reads only these.
  bool operator==(const PlannerStats&) const = default;

  static constexpr double kUnknownRows = 256.0;
  static constexpr double kDefaultColumnSelectivity = 0.1;

 private:
  std::unordered_map<PredicateId, RelationStats> rels_;
  std::unordered_set<PredicateId> derived_;
};

enum class StepKind : uint8_t {
  kScan,        // positive user-predicate literal: index join
  kBuiltin,     // builtin literal: mode-driven evaluation
  kNegated,     // negated literal (user or builtin): ground check
  kEnumAtom,    // bind a variable from the atom domain
  kEnumSet,     // bind a variable from the set domain
  kEnumAny,     // bind an untyped variable from both domains
};

struct PlanStep {
  StepKind kind;
  size_t literal_index = 0;  // into the clause body, for literal steps
  TermId var = kInvalidTerm;  // for enumeration steps
  /// Estimated rows this step matches per execution, under the
  /// variables bound before it. Filled for kScan steps planned with
  /// statistics; -1 otherwise (heuristic plans carry no estimates).
  double est_rows = -1.0;
};

struct BodyPlan {
  std::vector<PlanStep> steps;
  /// Variables still unbound after all steps (possible only when the
  /// caller allows deferred binding, e.g. division seeding).
  std::vector<TermId> unbound;
  /// True when cost-based ordering chose a different literal order
  /// than the boundness heuristic would have (EvalStats counts these).
  bool reordered = false;
  /// Estimated output cardinality: the product of per-scan-step
  /// est_rows. -1 when planned without statistics.
  double est_out = -1.0;
};

/// Builds an execution order for the body literals listed in
/// `literal_indices`. `initially_bound` variables are treated as ground.
/// Every variable in `must_bind` is bound by the end of the plan,
/// inserting enumeration steps if no literal can bind it. Variables
/// occurring in the chosen literals are bound as a side effect.
/// `stats` selects the ordering mode (see the header comment):
/// nullptr reproduces the heuristic order byte-exactly, non-null ranks
/// positive user literals by estimated selectivity and records
/// per-step estimates.
BodyPlan BuildBodyPlan(const TermStore& store, const Signature& sig,
                       const Clause& clause,
                       const std::vector<size_t>& literal_indices,
                       const std::vector<TermId>& initially_bound,
                       const std::vector<TermId>& must_bind,
                       const PlannerStats* stats = nullptr);

/// How a prepared goal executes (api/query.h). `body` is always built:
/// one kScan / kBuiltin step, preceded by active-domain enumeration
/// steps when a builtin's instantiation mode cannot be satisfied from
/// the goal's ground arguments alone; it runs against the session's
/// evaluated database. `demand_candidate` marks goals that
/// PreparedQuery::ExecuteDemand() and the query server's demand route
/// may instead answer by a goal-directed magic-set evaluation
/// (transform/magic.h) when the execution-time binding pattern has a
/// bound position - the rewrite itself performs the deeper fragment
/// check and can still fall back.
struct GoalPlan {
  BodyPlan body;
  bool demand_candidate = false;
  /// Set when !demand_candidate: why the goal can only scan.
  std::string demand_ineligible_reason;
};

/// Plans a single query goal. Built once per PreparedQuery; parameters
/// bound later are handled by the executor skipping enumeration steps
/// whose variable is already bound. `program` decides the demand
/// choice: only non-builtin predicates defined by at least one rule
/// are demand candidates (everything else is a plain scan or builtin
/// call, which demand evaluation cannot improve).
GoalPlan BuildGoalPlan(const TermStore& store, const Signature& sig,
                       const Program& program, const Literal& goal);

/// Just the demand decision of BuildGoalPlan, without rebuilding the
/// body plan - used when the program changes under a prepared query.
/// Returns the candidacy; on false, `reason` (if non-null) gets why.
bool GoalDemandCandidate(const Signature& sig, const Program& program,
                         const Literal& goal, std::string* reason);

/// Full rule plan for the bottom-up evaluator.
struct RulePlan {
  std::vector<size_t> free_literals;        // no quantified variables
  std::vector<size_t> quantified_literals;  // at least one quantified var
  BodyPlan free_plan;       // binds free vars; range/head vars included
  /// For quantifier-free rules: delta_plans[i] re-plans the body with
  /// free_literals[i] scanned *first* (its variables count as bound for
  /// the rest of the greedy order). Semi-naive rounds seed from a
  /// delta that is usually tiny; leading with it makes a round cost
  /// O(|delta| x join fanout) instead of a full scan of whichever
  /// literal the unbound greedy order starts with. Entries for
  /// builtins / negated literals (which never carry a delta) are empty
  /// plans, as is the whole vector for quantified rules.
  std::vector<BodyPlan> delta_plans;
  std::vector<TermId> range_vars_needed;  // vars of quantifier ranges
  bool has_quantifiers = false;
  /// Variables seeded by the division step (free vars occurring only in
  /// quantified literals).
  std::vector<TermId> seed_vars;
  /// Plan for solving the quantified literals at the first element
  /// combination (relational division seeding; executes with free and
  /// quantified variables bound).
  BodyPlan seed_plan;
  /// Plan for the empty-range branch: binds range-term variables and
  /// head variables only (the body is vacuously true).
  BodyPlan empty_branch_plan;
};

/// `stats` (optional) turns on cost-based ordering for the free plan,
/// every delta-plan tail (the delta literal itself stays first) and
/// the division seed plan. nullptr keeps the heuristic order.
Result<RulePlan> BuildRulePlan(const TermStore& store, const Signature& sig,
                               const Clause& clause,
                               const PlannerStats* stats = nullptr);

}  // namespace lps

#endif  // LPS_EVAL_PLAN_H_
