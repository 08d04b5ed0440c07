// Unified execution options for the Session API (api/session.h): one
// struct carries the bottom-up fixpoint limits (EvalOptions), the SLD
// solver limits (TopDownOptions) and the shared builtin-evaluation
// controls, so a Session drives both evaluators from a single
// configuration instead of two per-call option structs.
#ifndef LPS_API_OPTIONS_H_
#define LPS_API_OPTIONS_H_

#include "eval/bottomup.h"
#include "eval/topdown.h"

namespace lps {

struct Options {
  // ---- Bottom-up fixpoint evaluation (eval/bottomup.h) ---------------
  bool semi_naive = true;
  size_t max_iterations = 100000;
  size_t max_tuples = 2000000;
  /// Worker lanes for the parallel fixpoint: 0 = hardware
  /// concurrency, N >= 1 = that many lanes. Every lane count yields
  /// the same database (see eval/bottomup.h and DESIGN.md section 11);
  /// 1 starts no pool.
  size_t threads = 1;
  /// Cost-based join ordering (DESIGN.md section 17): rule bodies (and
  /// the magic rewrite's sideways-information-passing order) reorder by
  /// estimated bound-selectivity from relation statistics. On by
  /// default; turn off to debug with the legacy source-order-heuristic
  /// plans, byte-exact to pre-planner behavior.
  bool reorder = true;
  // Demand-driven (magic-set) evaluation is asked for per goal, not
  // here: PreparedQuery::ExecuteDemand() (DESIGN.md section 13).
  /// Incremental view maintenance (DESIGN.md section 16): when true, a
  /// MutationBatch commit on an already-evaluated session re-converges
  /// the database by delta rules - a semi-naive pass seeded from the
  /// new facts for inserts, Backward/Forward for retracts (a tuple is
  /// deleted only once a check finds it no surviving derivation;
  /// eval/incremental.h) - instead of a from-scratch re-evaluation.
  /// Programs outside the maintainable Horn fragment (negation,
  /// grouping, quantifiers, domain enumeration) fall back to the full
  /// re-evaluation automatically; either path yields a database
  /// tuple-for-tuple equal to the from-scratch fixpoint. Off by
  /// default: the legacy full re-evaluation, byte-exact.
  bool incremental = false;

  // ---- Top-down SLD solving (eval/topdown.h) -------------------------
  size_t max_depth = 256;
  size_t max_subgoals = 5000000;
  size_t max_answers_per_goal = 100000;

  // ---- Shared builtin evaluation -------------------------------------
  BuiltinOptions builtins;

  // The conversions below copy every field by hand; a field added to
  // EvalOptions or TopDownOptions must be added to its conversion too,
  // or sessions silently drop it (OptionsTest.RoundTripsBothEvaluators
  // checks each copied field).

  EvalOptions eval() const {
    EvalOptions o;
    o.semi_naive = semi_naive;
    o.max_iterations = max_iterations;
    o.max_tuples = max_tuples;
    o.threads = threads;
    o.reorder = reorder;
    o.builtins = builtins;
    return o;
  }

  TopDownOptions topdown() const {
    TopDownOptions o;
    o.max_depth = max_depth;
    o.max_subgoals = max_subgoals;
    o.max_answers_per_goal = max_answers_per_goal;
    o.builtins = builtins;
    return o;
  }
};

}  // namespace lps

#endif  // LPS_API_OPTIONS_H_
