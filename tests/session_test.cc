// Tests for the Session / PreparedQuery / AnswerCursor API: the staged
// lifecycle, prepared-query reuse (including across ResetDatabase()),
// cursor streaming semantics, parameter binding, error surfacing
// through Status, and the options each evaluator receives.
#include "api/session.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "term/printer.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

constexpr const char* kGraph = R"(
  edge(a, b). edge(b, c). edge(c, d).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
)";

TEST(SessionTest, StagedLifecycle) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  // Load only parses; nothing is committed to the program yet.
  EXPECT_TRUE(session.program()->clauses().empty());
  EXPECT_EQ(session.database()->fact_count(), 0u);

  ASSERT_OK(session.Compile());
  EXPECT_EQ(session.program()->clauses().size(), 2u);
  EXPECT_EQ(session.database()->fact_count(), 3u);

  ASSERT_OK(session.Evaluate());
  EXPECT_GT(session.eval_stats().tuples_derived, 3u);
}

TEST(SessionTest, EvaluateImpliesCompile) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());  // no explicit Compile()
  auto holds = session.Holds("path(a, d)");
  ASSERT_TRUE(holds.ok()) << holds.status().ToString();
  EXPECT_TRUE(*holds);
}

TEST(SessionTest, StorageStatsSurfaceThroughEvalStats) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  const EvalStats& stats = session.eval_stats();
  // 3 EDB edges + 6 derived paths live in row arenas; the dedup tables
  // were probed at least once per stored tuple.
  EXPECT_GE(stats.arena_bytes, 9 * 2 * sizeof(TermId));
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_GE(stats.dedup_probes, stats.tuples_derived);
}

TEST(SessionTest, ExplainPlansListsTheCompiledCostOrder) {
  // Source order scans hay (fifty rows) first; pin's two rows make the
  // cost order start there, and the report shows the plan Evaluate()
  // compiles: the pin scan first, with its estimate, marked reordered.
  std::string source = "pin(k1, v). pin(k2, w).\n";
  for (int i = 0; i < 50; ++i) {
    source += "hay(h" + std::to_string(i) + ", k" + std::to_string(i) +
              ").\n";
  }
  source += "found(X) :- hay(X, Y), pin(Y, Z).\n";
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(source));
  Result<std::string> plans = session.ExplainPlans();
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  const size_t pin = plans->find("scan    pin(Y, Z)  ~2 rows");
  const size_t hay = plans->find("scan    hay(X, Y)");
  ASSERT_NE(pin, std::string::npos) << *plans;
  ASSERT_NE(hay, std::string::npos) << *plans;
  EXPECT_LT(pin, hay) << *plans;
  EXPECT_NE(plans->find("(reordered)"), std::string::npos) << *plans;
}

TEST(SessionTest, GroupingAndSetInternCountersSurface) {
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    emp(sales, ann). emp(sales, bob). emp(dev, carol).
    team(D, <E>) :- emp(D, E).
  )"));
  ASSERT_OK(session.Evaluate());
  const EvalStats& stats = session.eval_stats();
  EXPECT_EQ(stats.groups_emitted, 2u);
  EXPECT_EQ(stats.group_elements, 3u);
  // Each emitted group interns one canonical set.
  EXPECT_GE(stats.set_interns, 2u);
  // Counters are per-evaluation deltas, not store lifetime totals: a
  // repeat Evaluate re-derives nothing and re-interns the same two
  // sets as table hits.
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(session.eval_stats().set_interns, 2u);
  EXPECT_EQ(session.eval_stats().set_intern_hits, 2u);
}

TEST(AnswerCursorTest, NextRefStreamsZeroCopyViews) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  auto query = session.Prepare("path(a, X)");
  ASSERT_TRUE(query.ok());
  auto cursor = query->Execute();
  ASSERT_TRUE(cursor.ok());
  // Views point into the relation's arena: consecutive rows of the
  // same relation are arity apart in one contiguous allocation.
  TupleRef first;
  ASSERT_TRUE(cursor->NextRef(&first));
  EXPECT_EQ(first.size(), 2u);
  size_t n = 1;
  TupleRef view;
  while (cursor->NextRef(&view)) {
    EXPECT_EQ(view.size(), 2u);
    ++n;
  }
  EXPECT_EQ(n, 3u);  // path(a,b), path(a,c), path(a,d)
  EXPECT_TRUE(cursor->exhausted());
  // Rewind restarts the zero-copy stream.
  cursor->Rewind();
  ASSERT_TRUE(cursor->NextRef(&view));
  EXPECT_EQ(Tuple(view.begin(), view.end()),
            Tuple(first.begin(), first.end()));
}

TEST(SessionTest, PreparedQueryExecutesWithoutReparsing) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());

  auto query = session.Prepare("path(a, X)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  size_t parses_after_prepare = session.parse_count();

  // Re-executing the prepared goal must never re-invoke the parser -
  // that is the acceptance criterion of the compile-once design.
  for (int i = 0; i < 100; ++i) {
    auto cursor = query->Execute();
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto count = cursor->Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 3u);  // b, c, d
  }
  EXPECT_EQ(session.parse_count(), parses_after_prepare);

  // The string path parses once per call.
  ASSERT_TRUE(session.Query("path(a, X)").ok());
  EXPECT_EQ(session.parse_count(), parses_after_prepare + 1);
}

TEST(SessionTest, PreparedPointQueryBuildsItsIndexButNoRelation) {
  // A point query over the session database builds the index for its
  // binding pattern, so later executions probe it; a query on a
  // predicate nothing ever stored creates no relation.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Load("loop(X) :- edge(X, X)."));
  ASSERT_OK(session.Evaluate());
  const Signature& sig = *session.signature();
  const Relation* path =
      session.database()->FindRelation(sig.Lookup("path", 2));
  ASSERT_NE(path, nullptr);
  ASSERT_FALSE(path->HasIndexBuilt(ColumnBit(0)));
  auto query = session.Prepare("path(a, X)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(*query->Execute()->Count(), 3u);
  EXPECT_TRUE(path->HasIndexBuilt(ColumnBit(0)));

  const PredicateId loop = sig.Lookup("loop", 1);
  ASSERT_NE(loop, kInvalidPredicate);
  ASSERT_EQ(session.database()->FindRelation(loop), nullptr);
  auto none = session.Prepare("loop(a)");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none->Execute()->Count(), 0u);
  EXPECT_EQ(session.database()->FindRelation(loop), nullptr);
}

TEST(SessionTest, PreparedQueryReuseAfterResetDatabase) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());

  auto query = session.Prepare("path(a, X)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(*query->Execute()->Count(), 3u);

  // Dropping the database empties the answer set but keeps the handle
  // valid; re-evaluating brings the answers back - same plan, no parse.
  session.ResetDatabase();
  size_t parses = session.parse_count();
  EXPECT_EQ(*query->Execute()->Count(), 0u);
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(*query->Execute()->Count(), 3u);
  EXPECT_EQ(session.parse_count(), parses);
}

TEST(SessionTest, PreparedQuerySeesLaterLoads) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("edge(a, b)."));
  ASSERT_OK(session.Evaluate());
  auto query = session.Prepare("edge(X, Y)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(*query->Execute()->Count(), 1u);

  ASSERT_OK(session.Load("edge(b, c). edge(c, d)."));
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(*query->Execute()->Count(), 3u);
}

TEST(AnswerCursorTest, ExhaustionAndReiteration) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());

  auto query = session.Prepare("path(a, X)");
  ASSERT_TRUE(query.ok());
  auto cursor = query->Execute();
  ASSERT_TRUE(cursor.ok());

  Tuple t;
  size_t n = 0;
  while (cursor->Next(&t)) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_TRUE(cursor->exhausted());
  EXPECT_TRUE(cursor->status().ok());
  // Further pulls stay exhausted.
  EXPECT_FALSE(cursor->Next(&t));

  // Rewind restarts the stream without re-planning.
  cursor->Rewind();
  EXPECT_FALSE(cursor->exhausted());
  auto rows = cursor->ToVector();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(AnswerCursorTest, RangeForSupport) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());

  auto cursor = session.Prepare("edge(X, Y)")->Execute();
  ASSERT_TRUE(cursor.ok());
  size_t n = 0;
  for (const Tuple& row : *cursor) {
    EXPECT_EQ(row.size(), 2u);
    ++n;
  }
  EXPECT_EQ(n, 3u);
  EXPECT_TRUE(cursor->status().ok());
}

TEST(AnswerCursorTest, LazyScanStopsEarly) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());

  auto query = session.Prepare("path(X, Y)");
  ASSERT_TRUE(query.ok());
  auto cursor = query->Execute();
  ASSERT_TRUE(cursor.ok());
  Tuple first;
  EXPECT_TRUE(cursor->Next(&first));
  EXPECT_FALSE(cursor->exhausted());  // five more answers never pulled
}

TEST(AnswerCursorTest, BuiltinGoalStreams) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("s({1,2,3})."));
  ASSERT_OK(session.Evaluate());

  auto query = session.Prepare("X in {1, 2, 3}");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(*query->Execute()->Count(), 3u);
  // Prepared builtin goals are as re-executable as scans.
  EXPECT_EQ(*query->Execute()->Count(), 3u);
}

TEST(PreparedQueryTest, BindParameters) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());

  auto query = session.Prepare("path(X, Y)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->variables().size(), 2u);
  EXPECT_EQ(*query->Execute()->Count(), 6u);

  ASSERT_OK(query->Bind("X", session.store()->MakeConstant("a")));
  EXPECT_EQ(*query->Execute()->Count(), 3u);

  ASSERT_OK(query->Bind("Y", session.store()->MakeConstant("d")));
  EXPECT_EQ(*query->Execute()->Count(), 1u);

  query->ClearBindings();
  EXPECT_EQ(*query->Execute()->Count(), 6u);

  // Unknown parameter names and non-ground values are errors.
  EXPECT_EQ(query->Bind("Z", session.store()->MakeConstant("a")).code(),
            StatusCode::kNotFound);
  TermId var = session.store()->MakeVariable("V", Sort::kAtom);
  EXPECT_EQ(query->Bind("X", var).code(), StatusCode::kInvalidArgument);
}

TEST(PreparedQueryTest, BindTextAndSortMismatch) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("s({1, 2}). has(X, E) :- s(X), E in X."));
  ASSERT_OK(session.Evaluate());

  auto query = session.Prepare("has(X, E)");
  ASSERT_TRUE(query.ok());
  ASSERT_OK(query->BindText("X", "{1, 2}"));
  EXPECT_EQ(*query->Execute()->Count(), 2u);

  // X is set-sorted; an atom value must be rejected.
  EXPECT_EQ(query->Bind("X", session.store()->MakeInt(7)).code(),
            StatusCode::kSortError);
}

TEST(PreparedQueryTest, TopDownSolvesWithoutEvaluate) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    edge(a, b). edge(b, c).
    hop(X, Z) :- edge(X, Y), edge(Y, Z).
  )"));
  auto query = session.Prepare("hop(a, X)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto cursor = query->SolveTopDown();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto rows = cursor->ToVector();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  // The same handle serves bottom-up execution after an Evaluate().
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(*query->Execute()->Count(), 1u);
}

TEST(PreparedQueryTest, PendingQueriesRouteThroughPrepare) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    p(a). p(b).
    ?- p(X).
  )"));
  ASSERT_OK(session.Evaluate());
  ASSERT_EQ(session.pending_queries().size(), 1u);
  // Already-lowered literals prepare with no parser involvement.
  size_t parses = session.parse_count();
  auto query = session.Prepare(session.pending_queries()[0]);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(session.parse_count(), parses);
  EXPECT_EQ(*query->Execute()->Count(), 2u);
}

TEST(PreparedQueryTest, PreparePendingQueryWhileUnitsStaged) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("p(a). ?- p(X)."));
  ASSERT_OK(session.Evaluate());
  // Staging another unit means Prepare()'s implicit Compile() grows
  // pending_queries() mid-call; the goal is taken by value so the
  // reallocation cannot invalidate it.
  ASSERT_OK(session.Load("q(b). ?- q(X)."));
  auto query = session.Prepare(session.pending_queries()[0]);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(session.pending_queries().size(), 2u);
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(*query->Execute()->Count(), 1u);  // p(a)
}

TEST(SessionErrorTest, ParseErrorsSurfaceFromLoad) {
  Session session(LanguageMode::kLPS);
  Status st = session.Load("p(a) :- q(.");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line"), std::string::npos);
}

TEST(SessionErrorTest, SortErrorsSurfaceFromCompile) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("p({{a}})."));  // nested set: parses fine
  Status st = session.Compile();
  EXPECT_EQ(st.code(), StatusCode::kSortError);

  Session elps(LanguageMode::kELPS);
  ASSERT_OK(elps.Load("p({{a}})."));
  ASSERT_OK(elps.Compile());
}

TEST(SessionErrorTest, FailedCompileIsTransactional) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("p(a)."));
  ASSERT_OK(session.Evaluate());

  // Grouping heads need LDL mode: the unit is rejected at Compile()
  // and must leave no trace - neither the offending clause nor the
  // facts that rode along in the same unit.
  ASSERT_OK(session.Load("q(a, b). team(D, <E>) :- q(D, E)."));
  EXPECT_FALSE(session.Compile().ok());
  EXPECT_TRUE(session.program()->clauses().empty());
  EXPECT_EQ(session.database()->fact_count(), 1u);  // just p(a)

  // The session keeps working after the rejection.
  ASSERT_OK(session.Load("r(c)."));
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("r(c)"));
  EXPECT_TRUE(*session.Holds("p(a)"));
}

TEST(SessionErrorTest, PrepareRejectsBadGoals) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("p(a)."));
  ASSERT_OK(session.Evaluate());

  EXPECT_EQ(session.Prepare("p(").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(session.Prepare("p(a). q(b)").status().code(),
            StatusCode::kParseError);
  // Arity mismatches are validation errors, not crashes.
  Status st = session.Prepare("p(a, b)").status();
  EXPECT_FALSE(st.ok());
}

TEST(SessionErrorTest, EmptyPreparedQueryIsAnError) {
  PreparedQuery query;
  EXPECT_EQ(query.Execute().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(query.SolveTopDown().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionErrorTest, UnstratifiableProgramRejectedAtEvaluate) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    p(a) :- not q(a).
    q(a) :- not p(a).
  )"));
  EXPECT_EQ(session.Evaluate().code(), StatusCode::kStratificationError);
}

TEST(OptionsTest, RoundTripsBothEvaluators) {
  Options o;
  o.semi_naive = false;
  o.max_iterations = 7;
  o.max_tuples = 9;
  o.threads = 4;
  o.reorder = false;
  o.max_depth = 11;
  o.max_subgoals = 13;
  o.max_answers_per_goal = 17;
  o.builtins.max_candidates = 19;
  o.builtins.max_decompose_cardinality = 23;
  o.builtins.unify.max_unifiers = 29;
  o.builtins.unify.max_branches = 31;

  EvalOptions e = o.eval();
  EXPECT_FALSE(e.semi_naive);
  EXPECT_EQ(e.max_iterations, 7u);
  EXPECT_EQ(e.max_tuples, 9u);
  EXPECT_EQ(e.threads, 4u);
  EXPECT_FALSE(e.reorder);
  EXPECT_EQ(e.builtins.max_candidates, 19u);
  EXPECT_EQ(e.builtins.max_decompose_cardinality, 23u);
  EXPECT_EQ(e.builtins.unify.max_unifiers, 29u);
  EXPECT_EQ(e.builtins.unify.max_branches, 31u);

  TopDownOptions t = o.topdown();
  EXPECT_EQ(t.max_depth, 11u);
  EXPECT_EQ(t.max_subgoals, 13u);
  EXPECT_EQ(t.max_answers_per_goal, 17u);
  EXPECT_EQ(t.builtins.max_candidates, 19u);
  EXPECT_EQ(t.builtins.max_decompose_cardinality, 23u);
  EXPECT_EQ(t.builtins.unify.max_unifiers, 29u);
  EXPECT_EQ(t.builtins.unify.max_branches, 31u);
}

TEST(OptionsTest, LimitsFlowThroughSession) {
  Options tight;
  tight.max_tuples = 2;
  Session session(LanguageMode::kLPS, tight);
  ASSERT_OK(session.Load(kGraph));
  EXPECT_EQ(session.Evaluate().code(), StatusCode::kResourceExhausted);
}


TEST(OptionsTest, ThreadsFlowThroughSession) {
  // The same program evaluated sequentially and with four lanes must
  // agree; the stats witness that the parallel path actually ran.
  std::string src;
  for (int i = 0; i < 32; ++i) {
    src += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
           ").\n";
  }
  src += "path(X, Y) :- edge(X, Y).\n";
  src += "path(X, Z) :- path(X, Y), edge(Y, Z).\n";

  Session seq(LanguageMode::kLPS);
  ASSERT_OK(seq.Load(src));
  ASSERT_OK(seq.Evaluate());
  EXPECT_EQ(seq.eval_stats().threads_used, 0u);

  Options par;
  par.threads = 4;
  Session p4(LanguageMode::kLPS, par);
  ASSERT_OK(p4.Load(src));
  ASSERT_OK(p4.Evaluate());
  EXPECT_EQ(p4.eval_stats().threads_used, 4u);
  EXPECT_GT(p4.eval_stats().parallel_tasks, 0u);
  EXPECT_EQ(p4.eval_stats().tuples_derived,
            seq.eval_stats().tuples_derived);

  auto a = seq.Query("path(n0, X)");
  auto b = p4.Query("path(n0, X)");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), b->size());
}

TEST(EvalStatsTest, ZeroBeforeFirstEvaluate) {
  // Defined behavior: eval_stats() before any evaluation returns a
  // value-initialized EvalStats - all counters 0, no fallback reason -
  // so callers never need to guard the first read.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Compile());
  const EvalStats& s = session.eval_stats();
  EXPECT_EQ(s.strata, 0u);
  EXPECT_EQ(s.iterations, 0u);
  EXPECT_EQ(s.rule_runs, 0u);
  EXPECT_EQ(s.tuples_derived, 0u);
  EXPECT_EQ(s.threads_used, 0u);
  EXPECT_EQ(s.arena_bytes, 0u);
  EXPECT_EQ(s.magic_predicates, 0u);
  EXPECT_EQ(s.magic_tuples, 0u);
  EXPECT_TRUE(s.demand_fallback_reason.empty());
}

TEST(EvalStatsTest, DemandCountersSurfaceThroughSession) {
  Options heuristic;
  // The exact magic predicate/tuple counts below pin the legacy
  // source-order rewrite; the cost-based SIP order may adorn the
  // recursive literal differently (same answers, different shape).
  heuristic.reorder = false;
  Session session(LanguageMode::kLPS, heuristic);
  ASSERT_OK(session.Load(kGraph));
  auto q = session.Prepare("path(a, X)");
  ASSERT_OK(q.status());
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 3u);
  EXPECT_EQ(session.eval_stats().magic_predicates, 1u);
  EXPECT_EQ(session.eval_stats().magic_tuples, 1u);  // the seed
  EXPECT_TRUE(session.eval_stats().demand_fallback_reason.empty());

  // A full Evaluate() resets the demand-specific fields.
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(session.eval_stats().magic_predicates, 0u);
  EXPECT_TRUE(session.eval_stats().demand_fallback_reason.empty());

  // An ineligible goal records why it fell back - and clears the
  // magic counters, which describe the same (failed) demand attempt.
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 3u);  // repopulate magic counters
  EXPECT_EQ(session.eval_stats().magic_predicates, 1u);
  auto all_free = session.Prepare("path(X, Y)");
  ASSERT_OK(all_free.status());
  EXPECT_EQ(*all_free->ExecuteDemand()->Count(), 6u);
  EXPECT_NE(
      session.eval_stats().demand_fallback_reason.find("all-free"),
      std::string::npos);
  EXPECT_EQ(session.eval_stats().magic_predicates, 0u);
  EXPECT_EQ(session.eval_stats().magic_tuples, 0u);
}

TEST(DemandModeTest, OffByDefaultAndHarmlessWhenOn) {
  // Execute() keeps the scan-the-evaluated-database contract bit for
  // bit.
  Session off(LanguageMode::kLPS);
  ASSERT_OK(off.Load(kGraph));
  auto q_off = off.Prepare("path(a, X)");
  ASSERT_OK(q_off.status());
  EXPECT_EQ(*q_off->Execute()->Count(), 0u);  // not evaluated yet
  ASSERT_OK(off.Evaluate());
  EXPECT_EQ(*q_off->Execute()->Count(), 3u);

  // ExecuteDemand() answers the same point query without any
  // Evaluate() and without deriving into the session database.
  Session on(LanguageMode::kLPS);
  ASSERT_OK(on.Load(kGraph));
  auto q_on = on.Prepare("path(a, X)");
  ASSERT_OK(q_on.status());
  EXPECT_EQ(*q_on->ExecuteDemand()->Count(), 3u);
  EXPECT_EQ(on.database()->TupleCount(), 3u);  // the three edge facts
  EXPECT_EQ(on.database()->fact_count(), 3u);
  EXPECT_EQ(on.rule_epoch(), 1u);
  EXPECT_EQ(on.fact_epoch(), 1u);
}

TEST(DemandModeTest, FallbackOnConvergedSessionKeepsEvaluationCounters) {
  // An all-free goal cannot be narrowed, so ExecuteDemand() falls back
  // to the full fixpoint - which a converged session already holds. It
  // must not re-run it: the counters stay those of the run that
  // converged the session.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  const EvalStats converged = session.eval_stats();
  ASSERT_GT(converged.rule_runs, 0u);
  auto q = session.Prepare("path(X, Y)");
  ASSERT_OK(q.status());
  auto cursor = q->ExecuteDemand();
  ASSERT_OK(cursor.status());
  EXPECT_EQ(*cursor->Count(), 6u);
  const EvalStats& after = session.eval_stats();
  EXPECT_NE(after.demand_fallback_reason.find("all-free"), std::string::npos);
  EXPECT_EQ(after.rule_runs, converged.rule_runs);
  EXPECT_EQ(after.iterations, converged.iterations);
  EXPECT_EQ(after.tuples_derived, converged.tuples_derived);
  EXPECT_TRUE(session.converged());
}

TEST(SessionTest, PreparedQuerySurvivesFactOnlyMutation) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  auto q = session.Prepare("path(a, X)");
  ASSERT_OK(q.status());
  EXPECT_EQ(*q->Execute()->Count(), 3u);
  const size_t parses = session.parse_count();
  const uint64_t rules = session.rule_epoch();

  // A fact-only commit re-converges the database but leaves the rules
  // alone: the same prepared handle answers over the new facts with no
  // re-parse or re-plan (only the staged fact text itself is parsed)
  // and rule_epoch() - the key of every rewrite cache - stays put.
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(*q->Execute()->Count(), 4u);
  EXPECT_EQ(session.parse_count(), parses + 1);
  EXPECT_EQ(session.rule_epoch(), rules);
  EXPECT_GT(session.fact_epoch(), 0u);
}

TEST(SessionTest, UnconvergedRetractDropsTuplesDerivedFromIt) {
  // Loading more facts leaves an evaluated session unconverged, with
  // its derived tuples still stored. A retract committed then must drop
  // what the retracted fact derived before any Evaluate(): top-down
  // solving and scans read the stored tuples without evaluating.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  ASSERT_OK(session.Load("edge(x, y)."));
  ASSERT_OK(session.Compile());
  EXPECT_FALSE(session.converged());
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.RetractText("edge(b, c)"));
  ASSERT_OK(batch.Commit());
  EXPECT_FALSE(*session.Holds("path(a, c)"));
  auto top_down = session.SolveTopDown("path(a, X)");
  ASSERT_OK(top_down.status());
  ASSERT_EQ(top_down->size(), 1u);
  EXPECT_EQ(session.TupleToString((*top_down)[0]), "(a, b)");
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("path(a, b)"));
  EXPECT_FALSE(*session.Holds("path(a, c)"));
  EXPECT_TRUE(*session.Holds("path(x, y)"));
}

TEST(SubsumptionTest, WiderBindingServedFromCachedMaterialization) {
  // A bf execution materializes every answer for its seed; a later bb
  // execution with the same first argument is subsumed: same answers,
  // no second rewrite, no second fixpoint.
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(kGraph));
  auto q = session.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ASSERT_OK(q->BindText("X", "a"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 3u);  // b, c, d
  EXPECT_EQ(session.demand_rewrite_count(), 1u);
  EXPECT_EQ(session.demand_subsumption_count(), 0u);

  ASSERT_OK(q->BindText("Y", "c"));  // now bb, same X
  auto bb = q->ExecuteDemand();
  ASSERT_OK(bb.status());
  auto rows = bb->ToVector();
  ASSERT_OK(rows.status());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(session.TupleToString((*rows)[0]), "(a, c)");
  EXPECT_EQ(session.demand_rewrite_count(), 1u);  // no second rewrite
  EXPECT_EQ(session.demand_subsumption_count(), 1u);
  EXPECT_EQ(session.eval_stats().subsumption_hits, 1u);
  EXPECT_TRUE(session.eval_stats().demand_fallback_reason.empty());

  // Repeating the exact bf pattern with the same seed is subsumed by
  // its own materialization too: still one rewrite, zero evaluations.
  q->ClearBindings();
  ASSERT_OK(q->BindText("X", "a"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 3u);
  EXPECT_EQ(session.demand_rewrite_count(), 1u);
  EXPECT_EQ(session.demand_subsumption_count(), 2u);
}

TEST(SubsumptionTest, DifferentSeedIsNotSubsumed) {
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(kGraph));
  auto q = session.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ASSERT_OK(q->BindText("X", "a"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 3u);
  // Same mask, different seed value: the cached rewrite is reused (no
  // new MagicRewrite) but the materialized answers are for X = a, so
  // the fixpoint must run again for X = b.
  ASSERT_OK(q->BindText("X", "b"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 2u);  // c, d
  EXPECT_EQ(session.demand_rewrite_count(), 1u);
  EXPECT_EQ(session.demand_subsumption_count(), 0u);
}

TEST(SubsumptionTest, FactChurnInvalidatesMaterializedAnswers) {
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(kGraph));
  auto q = session.Prepare("path(X, Y)");
  ASSERT_OK(q.status());

  ASSERT_OK(q->BindText("X", "a"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 3u);

  // The materialization predates the new edge: serving the bb request
  // from it would lose path(a, e). The stale epoch forces a fresh
  // fixpoint (the cached *rewrite* survives - rules never changed).
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  ASSERT_OK(q->BindText("Y", "e"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 1u);
  EXPECT_EQ(session.demand_subsumption_count(), 0u);
  EXPECT_EQ(session.eval_stats().subsumption_hits, 0u);
  // Re-materialize the bf pattern at the new epoch: subsumption then
  // serves a narrower request again, new fact included.
  q->ClearBindings();
  ASSERT_OK(q->BindText("X", "a"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 4u);  // b, c, d, e
  EXPECT_EQ(session.demand_subsumption_count(), 0u);
  ASSERT_OK(q->BindText("Y", "e"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 1u);
  EXPECT_EQ(session.demand_subsumption_count(), 1u);
  EXPECT_EQ(session.eval_stats().subsumption_hits, 1u);
}

TEST(DemandCompileTest, IndexBuiltIntoTheSessionRecompilesTheNextQuery) {
  // A demand run indexes edge in the session's own database (its index
  // home), within one fact epoch: the statistics the rewrite was
  // compiled for are gone, so the next query - a fresh binding, no
  // materialized answer to reuse - compiles again, and later ones
  // reuse that program. Every answer is the full fixpoint's.
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(kGraph));
  Session full(LanguageMode::kLDL);
  ASSERT_OK(full.Load(kGraph));
  ASSERT_OK(full.Evaluate());
  auto rows_of = [](Session* s, Result<AnswerCursor> cursor) {
    std::vector<std::string> out;
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (!cursor.ok()) return out;
    auto rows = cursor->ToVector();
    EXPECT_TRUE(rows.ok());
    if (!rows.ok()) return out;
    for (const Tuple& t : *rows) out.push_back(s->TupleToString(t));
    std::sort(out.begin(), out.end());
    return out;
  };
  auto q = session.Prepare("path(X, Y)");
  ASSERT_OK(q.status());
  auto truth = full.Prepare("path(X, Y)");
  ASSERT_OK(truth.status());
  const PredicateId edge = session.signature()->Lookup("edge", 2);
  ASSERT_TRUE(session.database()->FindRelation(edge)->Stats().masks.empty());

  auto expect_full_answers = [&](const char* x) {
    ASSERT_OK(q->BindText("X", x));
    ASSERT_OK(truth->BindText("X", x));
    EXPECT_EQ(rows_of(&session, q->ExecuteDemand()),
              rows_of(&full, truth->Execute()))
        << x;
  };
  const uint64_t epoch = session.fact_epoch();
  expect_full_answers("a");
  EXPECT_EQ(session.demand_compile_count(), 1u);
  EXPECT_FALSE(session.database()->FindRelation(edge)->Stats().masks.empty());
  expect_full_answers("b");
  EXPECT_EQ(session.demand_compile_count(), 2u);
  expect_full_answers("c");
  EXPECT_EQ(session.demand_compile_count(), 2u);
  EXPECT_EQ(session.fact_epoch(), epoch);
  EXPECT_EQ(session.demand_rewrite_count(), 1u);
  EXPECT_EQ(session.demand_subsumption_count(), 0u);
}

// ---- Pipelined parallel bulk loading (Session::LoadFactsParallel) ----

// Rules + a handful of seed facts loaded the ordinary way into every
// session below, so the bulk load runs against a store that already
// holds constants (exercising the remap fast path for pre-existing
// terms).
constexpr const char* kBulkRules = R"(
  edge(n0, n1). weight(n0, 7).
  reach(X, Y) :- edge(X, Y).
  reach(X, Z) :- reach(X, Y), edge(Y, Z).
)";

// A facts-only source big enough to span many 1 KB chunks: constants
// shared across chunks, integers, set terms, duplicate lines, and a
// predicate used at both atom and set sort (the cross-chunk sort
// lattice must still join to kAny exactly like the sequential pass).
// Every base fact with its count, in (predicate, row) order.
std::string FactDump(Session& session) {
  std::string out;
  session.database()->ForEachFact([&](const Database::Fact& f) {
    out += session.signature()->Name(f.pred) + "(" +
           TermListToString(*session.store(), f.args) + ") x" +
           std::to_string(f.count) + "\n";
  });
  return out;
}

std::string BulkFactsSource(int nodes) {
  std::string out;
  auto n = [](int i) { return "n" + std::to_string(i % 97); };
  for (int i = 0; i < nodes; ++i) {
    out += "edge(" + n(i) + ", " + n(i * 3 + 1) + ").\n";
    if (i % 3 == 0)
      out += "weight(" + n(i) + ", " + std::to_string(i % 17) + ").\n";
    if (i % 5 == 0)
      out += "tags(" + n(i) + ", {" + n(i + 1) + ", " + n(i + 2) + "}).\n";
    if (i % 11 == 0) out += "kind(" + n(i) + ").\n";
    if (i % 13 == 0) out += "kind({" + n(i) + "}).\n";
  }
  out += "edge(n0, n1).\nedge(n0, n1).\n";  // duplicates: merge dedups
  return out;
}

TEST(BulkLoadTest, ParallelLoadByteIdenticalAcrossLaneCounts) {
  const std::string facts = BulkFactsSource(600);
  ASSERT_GT(facts.size(), 8u * 1024u);  // spans several chunks

  Session seq(LanguageMode::kLDL);
  ASSERT_OK(seq.Load(kBulkRules));
  ASSERT_OK(seq.Load(facts));
  ASSERT_OK(seq.Evaluate());
  const std::string want = seq.database()->ToString(*seq.signature());
  ASSERT_FALSE(want.empty());

  for (size_t lanes : {size_t{1}, size_t{2}, size_t{4}}) {
    Session par(LanguageMode::kLDL);
    ASSERT_OK(par.Load(kBulkRules));
    ASSERT_OK(par.LoadFactsParallel(facts, lanes));

    const auto& ingest = par.eval_stats().ingest;
    EXPECT_EQ(ingest.lanes, lanes);
    EXPECT_GE(ingest.chunks, lanes);
    EXPECT_GT(ingest.facts_parsed, 600u);
    // The two duplicate lines (plus any generator collisions) dedup in
    // the merge stage.
    EXPECT_LT(ingest.facts_inserted, ingest.facts_parsed);
    EXPECT_GT(ingest.scratch_terms, 0u);
    // n0/n1/7 exist pre-load; remapping them is a prefix-stability hit.
    EXPECT_GT(ingest.remap_hits, 0u);
    // Hundreds of edge rows: presizing must have skipped doublings.
    EXPECT_GT(ingest.presize_rehashes_avoided, 0u);

    const size_t parsed_before_eval = ingest.facts_parsed;
    ASSERT_OK(par.Evaluate());
    // The ingest block survives evaluation: .stats-style consumers see
    // the last bulk load even after re-convergence.
    EXPECT_EQ(par.eval_stats().ingest.facts_parsed, parsed_before_eval);
    // Byte-identical, not just canonically equal: insertion order of
    // facts, rows and domain registrations must match the sequential
    // pass at every lane count.
    EXPECT_EQ(par.database()->ToString(*par.signature()), want)
        << "lane count " << lanes;
    EXPECT_EQ(par.database()->ToCanonicalString(*par.signature()),
              seq.database()->ToCanonicalString(*seq.signature()));
    // The facts agree count for count: a duplicated line is one row
    // asserted once per occurrence.
    EXPECT_EQ(FactDump(par), FactDump(seq)) << "lane count " << lanes;
  }
  const PredicateId edge = seq.signature()->Lookup("edge", 2);
  const Tuple n0n1{seq.store()->MakeConstant("n0"),
                   seq.store()->MakeConstant("n1")};
  EXPECT_GE(seq.database()->FactCount(edge, n0n1), 3u);
}

TEST(BulkLoadTest, TuplesDerivedCountsDerivationsOnBothLoadPaths) {
  // The facts are stored when they load, on either path, so an
  // evaluation counts what its rules derive and nothing else.
  const std::string rules =
      "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n";
  const std::string facts = "edge(a, b).\nedge(b, c).\nedge(c, d).\n";
  Session seq(LanguageMode::kLPS);
  ASSERT_OK(seq.Load(rules + facts));
  ASSERT_OK(seq.Evaluate());
  Session bulk(LanguageMode::kLPS);
  ASSERT_OK(bulk.Load(rules));
  ASSERT_OK(bulk.LoadFactsParallel(facts, 2));
  ASSERT_OK(bulk.Evaluate());
  EXPECT_EQ(bulk.database()->ToString(*bulk.signature()),
            seq.database()->ToString(*seq.signature()));
  EXPECT_EQ(seq.eval_stats().tuples_derived, 6u);
  EXPECT_EQ(bulk.eval_stats().tuples_derived, 6u);
}

TEST(BulkLoadTest, MidLoadParseErrorLeavesSessionUntouched) {
  // The torn line sits mid-source, after whole chunks of good facts:
  // those chunks parse fine in their lanes, but nothing may commit.
  std::string bad = BulkFactsSource(200);
  bad.insert(bad.size() / 2, "\nedge(n1, n2\n");

  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(kBulkRules));
  ASSERT_OK(session.Evaluate());

  const std::string before = session.database()->ToString(*session.signature());
  const size_t sig_before = session.signature()->size();
  const size_t store_before = session.store()->size();
  const size_t facts_before = session.database()->fact_count();
  const uint64_t fact_epoch_before = session.fact_epoch();
  const uint64_t rule_epoch_before = session.rule_epoch();

  Status st = session.LoadFactsParallel(bad, 2);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bulk-load chunk"), std::string::npos)
      << st.ToString();

  // Transactional: no new predicates, terms, facts, rows or epochs.
  EXPECT_EQ(session.signature()->size(), sig_before);
  EXPECT_EQ(session.store()->size(), store_before);
  EXPECT_EQ(session.database()->fact_count(), facts_before);
  EXPECT_EQ(session.fact_epoch(), fact_epoch_before);
  EXPECT_EQ(session.rule_epoch(), rule_epoch_before);
  EXPECT_TRUE(session.converged());
  EXPECT_EQ(session.database()->ToString(*session.signature()), before);
}

TEST(BulkLoadTest, RejectsRulesDeclarationsAndQueries) {
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(kBulkRules));
  ASSERT_OK(session.Evaluate());
  const uint64_t rule_epoch = session.rule_epoch();
  const uint64_t fact_epoch = session.fact_epoch();

  Status rule = session.LoadFactsParallel("p(X) :- edge(X, Y).\n", 1);
  ASSERT_FALSE(rule.ok());
  EXPECT_NE(rule.message().find("ground facts only"), std::string::npos)
      << rule.ToString();

  Status query = session.LoadFactsParallel("?- edge(X, Y).\n", 1);
  ASSERT_FALSE(query.ok());

  EXPECT_EQ(session.rule_epoch(), rule_epoch);
  EXPECT_EQ(session.fact_epoch(), fact_epoch);
  EXPECT_TRUE(session.converged());
}
}  // namespace
}  // namespace lps
