// Umbrella header for the LPS library: logic programming with sets,
// after G. M. Kuper, "Logic Programming with Sets" (PODS 1987 / JCSS 41,
// 1990). See README.md for a tour and DESIGN.md for the architecture.
#ifndef LPS_LPS_H_
#define LPS_LPS_H_

#include "api/answer_cursor.h"    // streaming answer iteration
#include "api/options.h"          // unified evaluation options
#include "api/query.h"            // prepared, re-executable goals
#include "api/session.h"          // compile-once/execute-many entry point
#include "base/status.h"          // Status / Result error handling
#include "eval/bottomup.h"        // fixpoint evaluation (Theorem 5)
#include "eval/builtins.h"        // =, in, union, scons, arithmetic
#include "eval/database.h"        // relations + active domains
#include "eval/topdown.h"         // SLD with set unification (Sec. 3.2)
#include "ground/grounder.h"      // Lemma 4 grounding
#include "ground/herbrand.h"      // bounded Herbrand universes
#include "lang/clause.h"          // core clause IR (Definition 5)
#include "lang/formula.h"         // positive formulas (Definition 12)
#include "lang/program.h"         // programs (Definition 6)
#include "lang/validate.h"        // LPS / ELPS / LDL validation
#include "nf2/nested_relation.h"  // non-1NF relations [JS82]
#include "parse/parser.h"         // surface syntax
#include "serve/registry.h"       // epoch/refcount snapshot publication
#include "serve/resolve.h"        // read-safe parameter resolution
#include "serve/server.h"         // concurrent query serving
#include "serve/snapshot.h"       // frozen session state
#include "term/printer.h"
#include "term/set_algebra.h"     // canonical set operations
#include "term/term.h"            // hash-consed two-sorted terms
#include "transform/builtin_elim.h"      // Theorem 10.1/10.2
#include "transform/ldl.h"               // Theorem 11
#include "transform/magic.h"             // demand transformation
#include "transform/positive_compiler.h" // Theorem 6
#include "transform/quantifier_elim.h"   // Theorem 10.3/10.4
#include "transform/stratify.h"          // Section 4.2 / [ABW86]
#include "unify/unify.h"          // set unification (Section 3.2)

#endif  // LPS_LPS_H_
