#!/usr/bin/env bash
# Smoke-runs the example binaries of a build tree: the six examples
# with no arguments, then two scripted lpsi sessions through every path
# that writes facts (a retract, a bulk .load, an add) followed by a
# query and a .serve over the republished snapshot - once under
# --incremental, once under --demand --incremental. The first session
# then asks a set-pattern goal and a builtin goal with an enumeration
# prefix, and serves the builtin one, so both goal routes run the
# evaluator's step code. Exits nonzero if any binary fails or an
# expected line is missing.
#
# Usage (from the repo root, after building with examples on):
#   scripts/smoke_examples.sh <build-dir>
#
# CI runs it in the build-and-test job and, against a sanitizer build,
# in the ASan/UBSan job.
set -euo pipefail

BUILD_DIR="${1:?usage: scripts/smoke_examples.sh <build-dir>}"
EXAMPLES="$BUILD_DIR/examples"

"$EXAMPLES/quickstart"
"$EXAMPLES/bom_cost"
"$EXAMPLES/set_construction"
"$EXAMPLES/ldl_vs_lps"
"$EXAMPLES/nested_relations"
"$EXAMPLES/social_graph"

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# A scripted lpsi --incremental session through every path that writes
# facts: a retract, a bulk .load, an add, then a query and a .serve
# over the republished snapshot. Then a goal whose set pattern holds a
# variable (rows match by set unification), and X < 3, which
# enumerates X over the active domain before the builtin runs: asked
# of the session, then served.
printf 'edge(a, b). edge(b, c). edge(c, d).\npath(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\nnum(1). num(2). num(3).\nowns(ann, {pen, ink}). owns(ann, {ink, cap}).\n' > "$dir/graph.lps"
printf 'edge(d, e).\nedge(e, f).\n' > "$dir/more.facts"
printf '.retract edge(c, d)\n.load %s\n.add edge(c, d)\npath(a, X)\n.serve 2 20\nowns(ann, {pen, X})\nX < 3\n.serve 2 20\n' "$dir/more.facts" \
  | "$EXAMPLES/lpsi" --incremental "$dir/graph.lps" | tee "$dir/out.txt"
grep -qx '(a, f)' "$dir/out.txt"
grep -q ': 100 answers,' "$dir/out.txt"
grep -Eqx '\(ann, \{(ink, pen|pen, ink)\}\)' "$dir/out.txt"
grep -qx '(2, 3)' "$dir/out.txt"
grep -q 'served 20 x X < 3 on 2 threads: 40 answers,' "$dir/out.txt"

# The same session under --demand: path(a, X) answers through
# PreparedQuery::ExecuteDemand, then .serve through the query server -
# both callers of the one rewrite cache and evaluation routine
# (src/api/goal_exec.h).
printf '.retract edge(c, d)\n.load %s\n.add edge(c, d)\npath(a, X)\n.stats\n.serve 2 20\n.stats\n' "$dir/more.facts" \
  | "$EXAMPLES/lpsi" --demand --incremental "$dir/graph.lps" | tee "$dir/demand.txt"
grep -qx '(a, f)' "$dir/demand.txt"
grep -q 'magic_predicates 1' "$dir/demand.txt"
grep -q ': 100 answers,' "$dir/demand.txt"
# The 20 requests over one snapshot compile the rewrite at most once
# per lane; every other request reuses its worker's compiled program
# (the last .stats shows the serve counters).
awk '$1 == "demand_compiles" { n = $2 } END { exit !(n >= 1 && n <= 2) }' "$dir/demand.txt"
