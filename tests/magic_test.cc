// Magic-set demand transformation (transform/magic.h): golden
// adornment tests (binding-pattern propagation, guard rules, negation
// stratum placement, fact import), the fallback taxonomy, and an
// equivalence sweep running representative programs from the rest of
// the test suite through ExecuteDemand() and through Evaluate() plus
// Execute().
#include "transform/magic.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "eval/plan.h"
#include "lps/lps.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

// Loads `source` into a fresh LDL session and compiles it.
std::unique_ptr<Session> Load(const std::string& source) {
  auto session = std::make_unique<Session>(LanguageMode::kLDL);
  EXPECT_TRUE(session->Load(source).ok());
  EXPECT_TRUE(session->Compile().ok());
  return session;
}

// Runs the rewrite for `goal` against the session's program, with the
// binding pattern taken from the goal's ground arguments.
Result<MagicRewriteResult> Rewrite(Session* session,
                                   const std::string& goal) {
  auto q = session->Prepare(goal);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  std::vector<bool> bound;
  for (TermId a : q->goal().args) {
    bound.push_back(session->store()->is_ground(a));
  }
  return MagicRewrite(*session->program(), q->goal(), bound);
}

// Rewrite() with SIP statistics taken from the session database, as
// PreparedQuery::ExecuteDemand takes them.
Result<MagicRewriteResult> RewriteWithStats(Session* session,
                                            const std::string& goal) {
  auto q = session->Prepare(goal);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  std::vector<bool> bound;
  for (TermId a : q->goal().args) {
    bound.push_back(session->store()->is_ground(a));
  }
  PlannerStats stats = PlannerStats::FromDatabase(*session->database());
  for (const Clause& c : session->program()->clauses()) {
    stats.MarkDerived(c.head.pred);
  }
  return MagicRewrite(*session->program(), q->goal(), bound, &stats);
}

std::vector<std::string> ClauseStrings(const Program& p) {
  std::vector<std::string> out;
  for (const Clause& c : p.clauses()) {
    out.push_back(ClauseToString(*p.store(), p.signature(), c));
  }
  return out;
}

TEST(MagicRewriteTest, TransitiveClosureGolden) {
  auto session = Load(R"(
    edge(a, b). edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )");
  auto rw = Rewrite(session.get(), "path(a, X)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  const MagicProgram& mp = *rw->rewrite;

  // Left-linear recursion would produce the tautological guard
  // m_path_bf(X) :- m_path_bf(X); it is skipped. The final clause is
  // the unconditional fact-import rule: emitted even though path has
  // no facts right now, so the (rule-keyed) cached rewrite keeps
  // answering after facts are added later.
  EXPECT_EQ(ClauseStrings(mp.program),
            (std::vector<std::string>{
                "path_bf(X, Y) :- m_path_bf(X), edge(X, Y).",
                "path_bf(X, Z) :- m_path_bf(X), path_bf(X, Y), "
                "edge(Y, Z).",
                "path_bf(Mf#0, Mf#1) :- m_path_bf(Mf#0), "
                "path(Mf#0, Mf#1).",
            }));
  EXPECT_EQ(mp.magic_preds.size(), 1u);
  EXPECT_EQ(mp.adorned_preds.size(), 1u);
  EXPECT_EQ(mp.seed_pred, mp.magic_preds[0]);
  EXPECT_EQ(mp.seed_positions, (std::vector<size_t>{0}));
  EXPECT_EQ(mp.program.signature().Name(mp.goal.pred), "path_bf");
  // The goal keeps its original argument terms.
  EXPECT_EQ(mp.goal.args, session->Prepare("path(a, X)")->goal().args);
}

TEST(MagicRewriteTest, BindingPatternPropagatesThroughBodies) {
  // The second argument of the goal is bound; demand reaches q with
  // its own pattern derived from what the prefix binds.
  auto session = Load(R"(
    e(a, b).
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), q(Z, Y).
    q(X, Y) :- p(X, Y).
  )");
  auto rw = Rewrite(session.get(), "p(a, X)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  const Signature& sig = rw->rewrite->program.signature();
  std::vector<std::string> names;
  for (PredicateId id : rw->rewrite->adorned_preds) {
    names.push_back(sig.Name(id));
  }
  // p is demanded with its first argument bound; the q(Z, Y) call site
  // has Z bound by the e(X, Z) prefix, so q is adorned bf as well, and
  // q's own body re-demands p_bf.
  EXPECT_EQ(names, (std::vector<std::string>{"p_bf", "q_bf"}));
  std::vector<std::string> clauses = ClauseStrings(rw->rewrite->program);
  EXPECT_NE(std::find(clauses.begin(), clauses.end(),
                      "m_q_bf(Z) :- m_p_bf(X), e(X, Z)."),
            clauses.end())
      << "guard rule feeding demand into q is missing";
}

TEST(MagicRewriteTest, SecondPositionBoundUsesItsOwnAdornment) {
  auto session = Load(R"(
    edge(a, b). edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )");
  auto rw = Rewrite(session.get(), "path(X, c)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  const Signature& sig = rw->rewrite->program.signature();
  EXPECT_EQ(sig.Name(rw->rewrite->goal.pred), "path_fb");
  // The recursive call path(X, Y) has neither argument bound under the
  // fb pattern, so the inner occurrence is unrestricted: the original
  // path rules ride along in full.
  std::vector<std::string> clauses = ClauseStrings(rw->rewrite->program);
  EXPECT_NE(std::find(clauses.begin(), clauses.end(),
                      "path(X, Y) :- edge(X, Y)."),
            clauses.end());
}

TEST(MagicRewriteTest, NegatedPredicateStaysFullAndStratifiesBelow) {
  auto session = Load(R"(
    n(a). n(b). bad(b).
    r(X) :- bad(X).
    t(X) :- n(X), not r(X).
  )");
  auto rw = Rewrite(session.get(), "t(a)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  const Program& out = rw->rewrite->program;
  // r is needed complete (negation): its rule is copied unchanged.
  std::vector<std::string> clauses = ClauseStrings(out);
  EXPECT_NE(std::find(clauses.begin(), clauses.end(),
                      "r(X) :- bad(X)."),
            clauses.end());
  // The rewritten program is still stratified, with r strictly below
  // the adorned goal predicate.
  auto strat = Stratify(out);
  ASSERT_OK(strat.status());
  PredicateId r = out.signature().Lookup("r", 1);
  ASSERT_NE(r, kInvalidPredicate);
  EXPECT_LT(strat->pred_stratum[r],
            strat->pred_stratum[rw->rewrite->goal.pred]);
}

TEST(MagicRewriteTest, FactsOfDerivedPredicateAreImported) {
  auto session = Load(R"(
    path(a, z).
    edge(a, b).
    path(X, Y) :- edge(X, Y).
  )");
  auto rw = Rewrite(session.get(), "path(a, X)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  // One import rule guards the facts of path behind the magic seed.
  bool found = false;
  for (const std::string& c : ClauseStrings(rw->rewrite->program)) {
    if (c.find("path(") != std::string::npos &&
        c.find("path_bf(") == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "fact-import rule missing";
}

TEST(MagicRewriteTest, GroupingHeadAdornsOverKeyPositions) {
  auto session = Load(R"(
    part(a, p1). part(a, p2). part(b, p3).
    grp(X, <P>) :- part(X, P).
  )");
  auto rw = Rewrite(session.get(), "grp(a, S)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  const MagicProgram& mp = *rw->rewrite;
  // The adorned copy keeps its grouping head; the magic guard joins
  // into the body and restricts whole groups by their key. The second
  // clause is the unconditional fact-import rule (grp has no facts, so
  // it derives nothing here).
  EXPECT_EQ(ClauseStrings(mp.program),
            (std::vector<std::string>{
                "grp_bf(X, <P>) :- m_grp_bf(X), part(X, P).",
                "grp_bf(Mf#0, Mf#1) :- m_grp_bf(Mf#0), grp(Mf#0, Mf#1).",
            }));
  // Only the key position seeds the magic predicate.
  EXPECT_EQ(mp.seed_positions, (std::vector<size_t>{0}));
  EXPECT_EQ(mp.program.signature().Name(mp.goal.pred), "grp_bf");
}

TEST(MagicRewriteTest, GroupedPositionNeverJoinsAnAdornment) {
  // The caller binds grp's grouped (set) position with a variable that
  // is ground at the call site; the adornment must still restrict only
  // the key position.
  auto session = Load(R"(
    part(a, p1). part(b, p2). want(a, {p1}).
    grp(X, <P>) :- part(X, P).
    match(X) :- want(X, S), grp(X, S).
  )");
  auto rw = Rewrite(session.get(), "match(a)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  const Signature& sig = rw->rewrite->program.signature();
  std::vector<std::string> names;
  for (PredicateId id : rw->rewrite->adorned_preds) {
    names.push_back(sig.Name(id));
  }
  // grp is called with both positions bound, but the grouped second
  // position is dropped: the adornment is bf, not bb.
  EXPECT_EQ(names, (std::vector<std::string>{"match_b", "grp_bf"}));
}

TEST(MagicRewriteTest, GroundSetConstantsAreBoundPositions) {
  // Ground set constants - in the goal, a rule body, and a rule head -
  // are interned ids and thus ordinary bound values; none of them may
  // trip the non-ground set/function fallback.
  auto session = Load(R"(
    owns(alice, {gold, silver}). owns(bob, {tin}).
    rich(P, S) :- owns(P, S).
    flagged(P) :- owns(P, {gold, silver}).
  )");
  auto rw = Rewrite(session.get(), "rich(X, {gold, silver})");
  ASSERT_OK(rw.status());
  EXPECT_TRUE(rw->applied) << rw->fallback_reason;
  auto rw2 = Rewrite(session.get(), "flagged(bob)");
  ASSERT_OK(rw2.status());
  EXPECT_TRUE(rw2->applied) << rw2->fallback_reason;
}

TEST(MagicRewriteTest, StatsPickSipOrder) {
  // p(X, Z) :- r(Y, Z), e(X, Y) with X bound. Source order reaches
  // r(Y, Z) before anything binds Y, so r is demanded unrestricted
  // (copied in full). Statistics rank the tiny EDB scan e(X, Y) - one
  // bound column - ahead of the unknown-size derived r, so the SIP
  // order binds Y first and r is demanded bound-free instead.
  auto session = Load(R"(
    e(a, b). e(b, c).
    s(b, x1). s(c, x2).
    r(X, Y) :- s(X, Y).
    p(X, Z) :- r(Y, Z), e(X, Y).
  )");
  auto legacy = Rewrite(session.get(), "p(a, W)");
  ASSERT_OK(legacy.status());
  ASSERT_TRUE(legacy->applied) << legacy->fallback_reason;
  EXPECT_EQ(legacy->rewrite->adorned_preds.size(), 1u);  // p_bf only

  auto rw = RewriteWithStats(session.get(), "p(a, W)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  const MagicProgram& mp = *rw->rewrite;
  EXPECT_EQ(mp.adorned_preds.size(), 2u);  // p_bf and r_bf
  EXPECT_EQ(mp.magic_preds.size(), 2u);
  // The adorned rule body is emitted in SIP order: e before r_bf.
  bool sip_body = false;
  for (const std::string& cs : ClauseStrings(mp.program)) {
    if (cs.find("e(X, Y), r_bf(Y, Z)") != std::string::npos) {
      sip_body = true;
    }
  }
  EXPECT_TRUE(sip_body);
}

TEST(MagicRewriteTest, StatsKeepSourceOrderThatAlreadyDemands) {
  // path(X, Z) :- path(X, Y), edge(Y, Z) under a bound-bound goal.
  // Source order already demands path bound-free. The cost order scans
  // the small edge(Y, Z) first, which would adorn path bound-bound and
  // demand it once per predecessor of the target (4 magic tuples here,
  // one per node on the chain). Statistics keep source order: path_bb
  // for the goal, path_bf in its body, 2 magic tuples.
  const char* src = R"(
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )";
  auto session = Load(src);
  auto rw = RewriteWithStats(session.get(), "path(a, d)");
  ASSERT_OK(rw.status());
  ASSERT_TRUE(rw->applied) << rw->fallback_reason;
  EXPECT_EQ(rw->rewrite->adorned_preds.size(), 2u);  // path_bb, path_bf
  bool source_body = false;
  for (const std::string& cs : ClauseStrings(rw->rewrite->program)) {
    if (cs.find("path_bf(X, Y), edge(Y, Z)") != std::string::npos) {
      source_body = true;
    }
  }
  EXPECT_TRUE(source_body);

  // The session's demand path takes the same statistics.
  auto q = session->Prepare("path(a, d)");
  ASSERT_OK(q.status());
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 1u);
  EXPECT_EQ(session->eval_stats().magic_tuples, 2u);
}

// ---- Fallback taxonomy ------------------------------------------------

struct FallbackCase {
  const char* name;
  const char* source;
  const char* goal;
  const char* reason_substring;
};

class MagicFallbackTest : public ::testing::TestWithParam<FallbackCase> {};

TEST_P(MagicFallbackTest, ReportsReason) {
  auto session = Load(GetParam().source);
  auto rw = Rewrite(session.get(), GetParam().goal);
  ASSERT_OK(rw.status());
  EXPECT_FALSE(rw->applied);
  EXPECT_NE(rw->fallback_reason.find(GetParam().reason_substring),
            std::string::npos)
      << GetParam().name << ": got \"" << rw->fallback_reason << "\"";
}

INSTANTIATE_TEST_SUITE_P(
    Taxonomy, MagicFallbackTest,
    ::testing::Values(
        FallbackCase{"all_free", "e(a, b). p(X, Y) :- e(X, Y).",
                     "p(X, Y)", "all-free"},
        FallbackCase{"builtin_goal", "e(a, b).", "X in {1, 2}",
                     "builtin"},
        FallbackCase{"edb_goal", "e(a, b).", "e(a, X)", "no rules"},
        FallbackCase{"quantifier",
                     "s({1, 2}). q(1). q(2). "
                     "allq(X) :- s(X), forall E in X : q(E).",
                     "allq({1, 2})", "quantifier"},
        // Grouping heads rewrite when a key position is bound; a goal
        // binding *only* the grouped set position restricts nothing.
        FallbackCase{"grouping_grouped_position_only",
                     "part(a, 1). part(a, 2). "
                     "grp(X, <P>) :- part(X, P).",
                     "grp(X, {1, 2})", "grouped set positions"},
        FallbackCase{"set_term_argument",
                     "s({1, 2}). w(X) :- s({X, 2}).", "w(1)",
                     "non-ground set/function-term"},
        FallbackCase{"enumeration",
                     "e(a). p(X) :- q(X). q(X) :- e(a).", "p(a)",
                     "enumeration"}),
    [](const ::testing::TestParamInfo<FallbackCase>& info) {
      return info.param.name;
    });

// ---- Demand execution end-to-end --------------------------------------

// Rendered (store-independent) sorted answers, so results can be
// compared across sessions with different term-interning orders:
// through ExecuteDemand() when `demand`, else through Execute().
std::vector<std::string> SortedAnswers(Session* session,
                                       const std::string& goal,
                                       bool demand) {
  auto q = session->Prepare(goal);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto cursor = demand ? q->ExecuteDemand() : q->Execute();
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto rows = cursor->ToVector();
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> out;
  for (const Tuple& t : *rows) out.push_back(session->TupleToString(t));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DemandExecutionTest, SessionDemandSharesFactsOnlyWhileItRuns) {
  // path is rule-headed and has a fact of its own. The demand answers
  // equal the full fixpoint's; the evaluation shared the session's
  // edge relation while it ran, and neither the cached result nor the
  // live cursor keeps it shared, so a later commit to edge writes the
  // session relation in place instead of copying it.
  const char* src = R"(
    edge(a, b). edge(b, c). path(c, e).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
  )";
  auto session = Load(src);
  auto full = Load(src);
  ASSERT_OK(full->Evaluate());
  EXPECT_EQ(SortedAnswers(session.get(), "path(a, X)", true),
            SortedAnswers(full.get(), "path(a, X)", false));
  EXPECT_EQ(session->eval_stats().magic_predicates, 1u);

  const PredicateId edge = session->signature()->Lookup("edge", 2);
  const Relation* before = session->database()->FindRelation(edge);
  auto q = session->Prepare("path(b, X)");
  ASSERT_OK(q.status());
  auto cursor = q->ExecuteDemand();  // stays live across the commit
  ASSERT_OK(cursor.status());
  MutationBatch batch = session->Mutate();
  ASSERT_OK(batch.AddText("edge(c, f)"));
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(session->database()->FindRelation(edge), before);
  auto rows = cursor->ToVector();
  ASSERT_OK(rows.status());
  EXPECT_EQ(rows->size(), 2u);  // c, e: evaluated before the commit
  EXPECT_EQ(SortedAnswers(session.get(), "path(a, X)", true),
            (std::vector<std::string>{"(a, b)", "(a, c)", "(a, e)",
                                      "(a, f)"}));
}

TEST(DemandExecutionTest, PointQueryWithoutEvaluate) {
  auto session = Load(R"(
    edge(a, b). edge(b, c). edge(c, d). edge(x, y).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )");
  Options options;
  // The magic-counter expectations below pin the legacy source-order
  // rewrite shape (one magic predicate for the left-linear rule); the
  // cost-based SIP order may adorn the recursive literal differently.
  options.reorder = false;
  session->set_options(options);
  // No Session::Evaluate() was ever called.
  auto q = session->Prepare("path(a, X)");
  ASSERT_OK(q.status());
  auto cursor = q->ExecuteDemand();
  ASSERT_OK(cursor.status());
  auto rows = cursor->ToVector();
  ASSERT_OK(rows.status());
  EXPECT_EQ(rows->size(), 3u);  // b, c, d
  // The session database holds its facts alone: demand evaluation ran
  // in a private database, whose answers the cursor owns.
  EXPECT_EQ(session->database()->TupleCount(),
            session->database()->fact_count());
  // Stats surface the demand evaluation.
  EXPECT_EQ(session->eval_stats().magic_predicates, 1u);
  EXPECT_GT(session->eval_stats().magic_tuples, 0u);
  EXPECT_TRUE(session->eval_stats().demand_fallback_reason.empty());
  // x/y edges were never demanded.
  EXPECT_LT(session->eval_stats().tuples_derived, 12u);
}

TEST(DemandExecutionTest, DerivesStrictSubsetOfFullFixpoint) {
  // A 2-chain x 30 ladder: full tc is quadratic, the point query linear.
  std::string src;
  for (int i = 0; i < 30; ++i) {
    src += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
           ").\n";
  }
  src += "path(X, Y) :- edge(X, Y).\n";
  src += "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  auto session = Load(src);
  ASSERT_OK(session->Evaluate());
  size_t full_tuples = session->eval_stats().tuples_derived;

  auto demand = SortedAnswers(session.get(), "path(n27, X)", true);
  size_t demand_tuples = session->eval_stats().tuples_derived;
  auto full = SortedAnswers(session.get(), "path(n27, X)", false);
  EXPECT_EQ(demand, full);
  EXPECT_EQ(full.size(), 3u);
  EXPECT_LT(demand_tuples * 5, full_tuples)
      << "demand evaluation should derive >5x fewer tuples";
}

TEST(DemandExecutionTest, RewriteCacheInvalidatedByCompile) {
  auto session = Load(R"(
    edge(a, b).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )");
  auto q = session->Prepare("path(a, X)");
  ASSERT_OK(q.status());
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 1u);
  // New facts arrive through a later Load/Compile; the cached rewrite
  // must not pin the old fact set.
  ASSERT_OK(session->Load("edge(b, c)."));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 2u);
  // New rules too.
  ASSERT_OK(session->Load("path(X, Y) :- back(X, Y). back(a, q)."));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 3u);
}

TEST(DemandExecutionTest, AddFactInvalidatesCachedRewrite) {
  auto session = Load(R"(
    edge(a, b).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )");
  auto q = session->Prepare("path(a, X)");
  ASSERT_OK(q.status());
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 1u);
  // A committed mutation bypasses Load/Compile but still changes the
  // program; the cached rewrite must not go stale.
  TermStore* store = session->store();
  MutationBatch batch = session->Mutate();
  ASSERT_OK(batch.Add(
      "edge", {store->MakeConstant("b"), store->MakeConstant("c")}));
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 2u);
}

TEST(DemandExecutionTest, FactOnlyMutationReusesCachedRewrite) {
  auto session = Load(R"(
    edge(a, b).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )");
  auto q = session->Prepare("path(a, X)");
  ASSERT_OK(q.status());
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 1u);
  EXPECT_EQ(session->demand_rewrite_count(), 1u);

  // Fact-only commits bump fact_epoch() but not rule_epoch(): the
  // cached rewrite (a pure function of the rules) answers over the new
  // fact set without re-running the magic transformation.
  MutationBatch grow = session->Mutate();
  ASSERT_OK(grow.AddText("edge(b, c)"));
  ASSERT_OK(grow.Commit());
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 2u);
  EXPECT_EQ(session->demand_rewrite_count(), 1u);  // cache hit

  MutationBatch shrink = session->Mutate();
  ASSERT_OK(shrink.RetractText("edge(a, b)"));
  ASSERT_OK(shrink.Commit());
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 0u);  // a is cut off
  EXPECT_EQ(session->demand_rewrite_count(), 1u);  // still cached

  // A rule commit moves rule_epoch() and invalidates the cache.
  ASSERT_OK(session->Load("path(X, Y) :- back(X, Y). back(a, q)."));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 1u);
  EXPECT_EQ(session->demand_rewrite_count(), 2u);
}

TEST(DemandExecutionTest, EligibilityRefreshesWhenRulesAppearLater) {
  // Prepared while the predicate is fact-only (not a demand
  // candidate); rules arrive afterwards and the same handle must
  // re-decide and take the demand path.
  auto session = Load("path(a, z). edge(a, b).");
  auto q = session->Prepare("path(a, X)");
  ASSERT_OK(q.status());
  EXPECT_FALSE(q->goal_plan().demand_candidate);
  ASSERT_OK(session->Load(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 2u);  // z (fact) + b (derived)
  // The demand path ran: the session database holds its facts alone,
  // magic stats set.
  EXPECT_EQ(session->database()->TupleCount(), 2u);
  EXPECT_EQ(session->database()->fact_count(), 2u);
  EXPECT_EQ(session->eval_stats().magic_predicates, 1u);
}

TEST(DemandExecutionTest, ExplicitDemandFallsBackToFullFixpoint) {
  auto session = Load(R"(
    s({1, 2}). q(1). q(2).
    allq(X) :- s(X), forall E in X : q(E).
  )");
  auto q = session->Prepare("allq({1, 2})");
  ASSERT_OK(q.status());
  // Quantifiers are outside the magic fragment: ExecuteDemand evaluates
  // the session database in full and scans it.
  auto cursor = q->ExecuteDemand();
  ASSERT_OK(cursor.status());
  EXPECT_EQ(*cursor->Count(), 1u);
  EXPECT_NE(
      session->eval_stats().demand_fallback_reason.find("quantifier"),
      std::string::npos);
  EXPECT_GT(session->database()->TupleCount(), 0u);
}

TEST(DemandExecutionTest, GroupingGoalWithBoundKeyRunsDemandDriven) {
  // A grouping head over a derived relation: the demanded key's group
  // must match the full fixpoint's group exactly while the rest of the
  // key space is never grouped.
  std::string src;
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 4; ++j) {
      src += "emp(d" + std::to_string(i) + ", e" + std::to_string(i) +
             "_" + std::to_string(j) + ").\n";
    }
  }
  src += "staff(D, E) :- emp(D, E).\n";
  src += "team(D, <E>) :- staff(D, E).\n";
  auto session = Load(src);
  ASSERT_OK(session->Evaluate());

  auto full = SortedAnswers(session.get(), "team(d3, S)", false);
  ASSERT_EQ(full.size(), 1u);
  size_t full_tuples = session->eval_stats().tuples_derived;

  auto fresh = Load(src);  // untouched session: no prior Evaluate()
  auto demand = SortedAnswers(fresh.get(), "team(d3, S)", true);
  EXPECT_EQ(demand, full);
  EXPECT_TRUE(fresh->eval_stats().demand_fallback_reason.empty())
      << fresh->eval_stats().demand_fallback_reason;
  EXPECT_GT(fresh->eval_stats().magic_predicates, 0u);
  EXPECT_EQ(fresh->eval_stats().groups_emitted, 1u)
      << "demand must group only the demanded key";
  // Neither count includes the 48 EDB facts: 6 demand tuples vs 60
  // for the full fixpoint.
  EXPECT_LT(fresh->eval_stats().tuples_derived, full_tuples)
      << "demand evaluation should derive fewer tuples";
  // The session database holds its facts alone (private demand
  // database).
  EXPECT_EQ(fresh->database()->TupleCount(),
            fresh->database()->fact_count());
}

TEST(DemandExecutionTest, BoundSetConstantGoalIsDemandDriven) {
  auto session = Load(R"(
    owns(alice, {gold, silver}). owns(bob, {tin}).
    owns(carol, {gold, silver}).
    rich(P, S) :- owns(P, S).
  )");
  ASSERT_OK(session->Evaluate());
  auto full = SortedAnswers(session.get(), "rich(X, {gold, silver})",
                            false);
  auto fresh = Load(R"(
    owns(alice, {gold, silver}). owns(bob, {tin}).
    owns(carol, {gold, silver}).
    rich(P, S) :- owns(P, S).
  )");
  auto demand =
      SortedAnswers(fresh.get(), "rich(X, {gold, silver})", true);
  EXPECT_EQ(demand, full);
  EXPECT_EQ(demand.size(), 2u);  // alice, carol
  EXPECT_TRUE(fresh->eval_stats().demand_fallback_reason.empty())
      << fresh->eval_stats().demand_fallback_reason;
  EXPECT_GT(fresh->eval_stats().magic_predicates, 0u);
}

TEST(DemandExecutionTest, BoundParameterDrivesTheSeed) {
  auto session = Load(R"(
    edge(a, b). edge(b, c). edge(p, q).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )");
  auto q = session->Prepare("path(S, T)");
  ASSERT_OK(q.status());
  ASSERT_OK(q->BindText("S", "p"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 1u);  // q only
  ASSERT_OK(q->BindText("S", "a"));
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 2u);  // b, c
  // Unbound, the handle leaves demand nothing to restrict. Execute()
  // scans the session database, which no demand run evaluated;
  // ExecuteDemand() falls back to the full fixpoint, reason on record.
  q->ClearBindings();
  EXPECT_EQ(*q->Execute()->Count(), 0u);
  EXPECT_EQ(*q->ExecuteDemand()->Count(), 4u);
  EXPECT_NE(session->eval_stats().demand_fallback_reason.find("all-free"),
            std::string::npos);
}

// ---- Equivalence sweep: ExecuteDemand() vs Evaluate() + Execute() ----
//
// Representative programs from across the test suite (bottomup,
// stratify, builtins, ldl, expressiveness). Each goal is answered by a
// full Evaluate() and a scan, and by ExecuteDemand() (magic or
// recorded fallback); the answer sets must match exactly.

struct SweepCase {
  const char* name;
  const char* source;
  std::vector<const char*> goals;
};

class MagicEquivalenceSweep : public ::testing::TestWithParam<SweepCase> {
};

TEST_P(MagicEquivalenceSweep, DemandMatchesFullFixpoint) {
  for (const char* goal : GetParam().goals) {
    auto full_session = Load(GetParam().source);
    ASSERT_OK(full_session->Evaluate());
    auto full = SortedAnswers(full_session.get(), goal, false);

    // No up-front Evaluate: ExecuteDemand() must self-serve, its
    // fallbacks (all-free goals included) running the fixpoint on the
    // session database themselves.
    auto demand_session = Load(GetParam().source);
    auto demand = SortedAnswers(demand_session.get(), goal, true);
    EXPECT_EQ(demand, full)
        << GetParam().name << " diverges on goal " << goal;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, MagicEquivalenceSweep,
    ::testing::Values(
        SweepCase{"tc_chain",
                  "edge(a, b). edge(b, c). edge(c, d)."
                  "path(X, Y) :- edge(X, Y)."
                  "path(X, Z) :- path(X, Y), edge(Y, Z).",
                  {"path(a, X)", "path(X, d)", "path(X, Y)",
                   "path(a, d)", "path(d, X)"}},
        SweepCase{"same_generation",
                  "par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1)."
                  "sg(X, X) :- par(X, Y)."
                  "sg(X, Y) :- par(X, P), sg(P, Q), par(Y, Q).",
                  {"sg(c1, X)", "sg(X, c2)", "sg(c1, c2)"}},
        SweepCase{"stratified_negation",
                  "n(a). n(b). n(c). bad(b)."
                  "r(X) :- bad(X)."
                  "t(X) :- n(X), not r(X).",
                  {"t(a)", "t(b)", "t(X)"}},
        SweepCase{"arithmetic_builtins",
                  "num(1). num(2). num(3)."
                  "succ(X, Y) :- num(X), num(Y), add(X, 1, Y)."
                  "reach(X, Y) :- succ(X, Y)."
                  "reach(X, Z) :- reach(X, Y), succ(Y, Z).",
                  {"reach(1, X)", "reach(X, 3)", "reach(1, 3)"}},
        SweepCase{"mixed_facts_and_rules",
                  "path(a, z). edge(a, b). edge(b, c)."
                  "path(X, Y) :- edge(X, Y)."
                  "path(X, Z) :- path(X, Y), edge(Y, Z).",
                  {"path(a, X)", "path(a, z)", "path(X, z)"}},
        SweepCase{"quantifier_fallback",
                  "s({1, 2}). s({3}). q(1). q(2)."
                  "allq(X) :- s(X), forall E in X : q(E).",
                  {"allq({1, 2})", "allq(X)"}},
        SweepCase{"grouping",
                  "part(a, 1). part(a, 2). part(b, 3)."
                  "grp(X, <P>) :- part(X, P).",
                  {"grp(a, X)", "grp(X, Y)", "grp(X, {1, 2})",
                   "grp(a, {1, 2})", "grp(b, {1, 2})"}},
        SweepCase{"grouping_over_recursion",
                  "sub(o1, o2). sub(o2, o3). part_of(p1, o1)."
                  "part_of(p2, o2). part_of(p3, o3)."
                  "uses(O, S) :- sub(O, S)."
                  "uses(O, S2) :- uses(O, S), sub(S, S2)."
                  "haspart(O, P) :- part_of(P, O)."
                  "haspart(O, P) :- uses(O, S), part_of(P, S)."
                  "partset(O, <P>) :- haspart(O, P).",
                  {"partset(o1, X)", "partset(o2, X)", "partset(X, Y)"}},
        SweepCase{"ground_set_args",
                  "tag(x1, {hot}). tag(x2, {cold}). tag(x3, {hot})."
                  "warm(X) :- tag(X, {hot})."
                  "linked(X, Y) :- warm(X), warm(Y).",
                  {"linked(x1, X)", "linked(X, x3)", "linked(X, Y)"}},
        SweepCase{"set_membership_rules",
                  "s({1, 2}). s({2, 3})."
                  "has(X) :- s(S), X in S.",
                  {"has(2)", "has(X)"}},
        SweepCase{"diamond_multi_rule",
                  "e1(a, b). e2(a, c). e1(b, d). e2(c, d)."
                  "hop(X, Y) :- e1(X, Y). hop(X, Y) :- e2(X, Y)."
                  "tc(X, Y) :- hop(X, Y)."
                  "tc(X, Z) :- tc(X, Y), hop(Y, Z).",
                  {"tc(a, X)", "tc(a, d)", "tc(X, d)"}}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lps
