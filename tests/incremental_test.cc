// Tests for incremental view maintenance (eval/incremental.h) and the
// transactional MutationBatch surface (api/mutation.h): delta
// re-convergence equals the from-scratch fixpoint tuple for tuple,
// retraction runs Backward/Forward (a tuple that keeps a derivation is
// proved and stays, one that loses every derivation goes), the epoch
// split keeps rule_epoch() stable across fact-only commits, and
// Abort()/deferred/failed commits leave the expected state behind.
#include "eval/incremental.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "serve/snapshot.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                      \
  do {                                       \
    ::lps::Status _st = (expr);              \
    ASSERT_TRUE(_st.ok()) << _st.ToString(); \
  } while (0)

constexpr const char* kGraph = R"(
  edge(a, b). edge(b, c). edge(c, d).
  path(X, Y) :- edge(X, Y).
  path(X, Z) :- path(X, Y), edge(Y, Z).
)";

Options Incremental() {
  Options o;
  o.incremental = true;
  return o;
}

// The canonical database of `source` after `mutate` ran against an
// evaluated session, computed the trusted way: full re-evaluation.
template <typename Fn>
std::string GroundTruth(const std::string& source, Fn mutate,
                        LanguageMode mode = LanguageMode::kLPS) {
  Session session(mode);  // incremental off: exact path
  EXPECT_TRUE(session.Load(source).ok());
  EXPECT_TRUE(session.Evaluate().ok());
  mutate(session);
  return session.database()->ToCanonicalString(
      session.program()->signature());
}

TEST(IncrementalTest, InsertBatchMatchesFromScratch) {
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("edge(d, e)"));
    ASSERT_OK(batch.AddText("edge(e, a)"));  // closes a cycle
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kGraph, mutate));
  // The delta pass ran (and left its counters) instead of a rebuild.
  EXPECT_GT(session.eval_stats().delta_rounds, 0u);
  EXPECT_TRUE(session.converged());
}

TEST(IncrementalTest, InsertRespectsDeclaredSorts) {
  // p({b}) must not reach q, whose argument is declared an atom: the
  // maintainer binds X through the same sort check as a from-scratch
  // evaluation, in every language mode.
  constexpr const char* kSorted = R"(
    pred q(atom).
    p(a).
    q(X) :- p(X).
  )";
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("p({b})"));
    ASSERT_OK(batch.Commit());
  };
  for (LanguageMode mode :
       {LanguageMode::kLPS, LanguageMode::kELPS, LanguageMode::kLDL}) {
    Session session(mode, Incremental());
    ASSERT_OK(session.Load(kSorted));
    ASSERT_OK(session.Evaluate());
    mutate(session);
    const std::string maintained = session.database()->ToCanonicalString(
        session.program()->signature());
    EXPECT_EQ(maintained, GroundTruth(kSorted, mutate, mode));
    EXPECT_EQ(maintained.find("q({b})"), std::string::npos) << maintained;
    EXPECT_GT(session.eval_stats().delta_rounds, 0u);
  }
}

TEST(IncrementalTest, RetractProvesSurvivingDerivations) {
  // Two derivations of path(a, c); retracting edge(b, c) kills one, but
  // the check must prove path(a, c) through edge(a, c) and keep it.
  constexpr const char* kDiamond = R"(
    edge(a, b). edge(b, c). edge(a, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )";
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.RetractText("edge(b, c)"));
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kDiamond));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kDiamond, mutate));
  EXPECT_GT(session.eval_stats().overdeleted_tuples, 0u);
  EXPECT_GT(session.eval_stats().rederived_tuples, 0u);
  EXPECT_TRUE(*session.Holds("path(a, c)"));   // proved
  EXPECT_FALSE(*session.Holds("path(b, c)"));  // gone for good
}

TEST(IncrementalTest, MixedBatchAndNetEffectSemantics) {
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("edge(d, e)"));
    ASSERT_OK(batch.RetractText("edge(a, b)"));
    // Same tuple added and retracted in one batch: later op wins, so
    // the commit must leave edge(c, d) in place.
    ASSERT_OK(batch.RetractText("edge(c, d)"));
    ASSERT_OK(batch.AddText("edge(c, d)"));
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kGraph, mutate));
  EXPECT_TRUE(*session.Holds("edge(c, d)"));
  EXPECT_FALSE(*session.Holds("path(a, b)"));
  EXPECT_TRUE(*session.Holds("path(c, e)"));
}

TEST(IncrementalTest, IneligibleFragmentFallsBackExactly) {
  // Negation is outside the maintainable fragment: Commit() must
  // detect that and re-evaluate from scratch - same final database.
  constexpr const char* kNegation = R"(
    edge(a, b). edge(b, c). node(a). node(b). node(c). node(d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    unreachable(Y) :- node(Y), not path(a, Y).
  )";
  auto mutate = [](Session& s) {
    MutationBatch batch = s.Mutate();
    ASSERT_OK(batch.AddText("edge(c, d)"));
    ASSERT_OK(batch.Commit());
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kNegation));
  ASSERT_OK(session.Evaluate());
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kNegation, mutate));
  EXPECT_FALSE(*session.Holds("unreachable(d)"));
}

TEST(IncrementalTest, OffByDefaultStillReconverges) {
  // incremental=false: Commit() on a converged session re-evaluates
  // from scratch - behaviour identical, just without delta counters.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  EXPECT_TRUE(*session.Holds("path(a, e)"));
  EXPECT_EQ(session.eval_stats().delta_rounds, 0u);
}

TEST(IncrementalTest, MaintainerReportsIneligibleReason) {
  Session session(LanguageMode::kLDL);  // grouping heads need LDL
  ASSERT_OK(session.Load(R"(
    g(a, {1}). g(a, {2}).
    merged(X, <S>) :- g(X, S).
  )"));
  ASSERT_OK(session.Evaluate());
  IncrementalMaintainer maintainer(session.program(), session.database());
  auto ran = maintainer.Maintain({}, {});
  ASSERT_OK(ran.status());
  EXPECT_FALSE(*ran);
  EXPECT_FALSE(maintainer.ineligible_reason().empty());
}

TEST(MutationBatchTest, FactCommitBumpsFactEpochOnly) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  const uint64_t rules = session.rule_epoch();
  const uint64_t facts = session.fact_epoch();
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(session.rule_epoch(), rules);      // rewrite caches survive
  EXPECT_EQ(session.fact_epoch(), facts + 1);  // fact readers refresh
  // A rule commit moves rule_epoch() as before.
  ASSERT_OK(session.Load("path(X, Y) :- back(X, Y). back(a, q)."));
  ASSERT_OK(session.Compile());
  EXPECT_GT(session.rule_epoch(), rules);
}

TEST(MutationBatchTest, AbortLeavesNoTrace) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  const uint64_t rule_epoch = session.rule_epoch();
  const uint64_t fact_epoch = session.fact_epoch();
  const std::string before = session.database()->ToCanonicalString(
      session.program()->signature());
  {
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.AddText("edge(d, e)"));
    ASSERT_OK(batch.RetractText("edge(a, b)"));
    EXPECT_EQ(batch.pending(), 2u);
    batch.Abort();
    EXPECT_FALSE(batch.Commit().ok());  // consumed
  }
  {
    MutationBatch dropped = session.Mutate();
    ASSERT_OK(dropped.AddText("edge(x, y)"));
    // Destruction without Commit() == Abort().
  }
  EXPECT_EQ(session.rule_epoch(), rule_epoch);
  EXPECT_EQ(session.fact_epoch(), fact_epoch);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            before);
  EXPECT_FALSE(*session.Holds("edge(d, e)"));
  {
    // A predicate only a staged Add() names is declared at Commit():
    // aborting leaves the signature and its symbols as they were.
    const TermId z = session.store()->MakeConstant("z");
    const size_t preds = session.signature()->size();
    const size_t symbols = session.store()->symbols().size();
    MutationBatch batch = session.Mutate();
    ASSERT_OK(batch.Add("fresh2", {z}));
    batch.Abort();
    EXPECT_EQ(session.signature()->size(), preds);
    EXPECT_EQ(session.signature()->Lookup("fresh2", 1), kInvalidPredicate);
    EXPECT_EQ(session.store()->symbols().size(), symbols);
  }
}

TEST(MutationBatchTest, FreshPredicateIsDeclaredAtCommit) {
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  const TermId z = session.store()->MakeConstant("z");
  const TermId w = session.store()->MakeConstant("w");
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.Add("fresh2", {z}));
  ASSERT_OK(batch.Add("fresh2", {z}));  // the same fresh predicate
  // Later ops win over earlier ones on the same tuple, also when an
  // Add() of this batch is what introduces the predicate.
  ASSERT_OK(batch.Add("fresh2", {w}));
  ASSERT_OK(batch.Retract("fresh2", {w}));
  ASSERT_OK(batch.Retract("never_added", {w}));  // nothing to retract
  EXPECT_EQ(batch.pending(), 4u);
  EXPECT_EQ(session.signature()->Lookup("fresh2", 1), kInvalidPredicate);
  ASSERT_OK(batch.Commit());
  const PredicateId fresh = session.signature()->Lookup("fresh2", 1);
  ASSERT_NE(fresh, kInvalidPredicate);
  EXPECT_EQ(session.database()->FactCount(fresh, Tuple{z}), 2u);
  EXPECT_TRUE(*session.Holds("fresh2(z)"));
  EXPECT_EQ(session.database()->FactCount(fresh, Tuple{w}), 0u);
  EXPECT_FALSE(*session.Holds("fresh2(w)"));
  EXPECT_EQ(session.signature()->Lookup("never_added", 1),
            kInvalidPredicate);
}

TEST(MutationBatchTest, DeferredCommitTakesEffectAtEvaluate) {
  // Committing before the first Evaluate() only updates the facts,
  // which are visible at once; their consequences follow at the next
  // Evaluate().
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Compile());  // AddText parses against the signature
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  EXPECT_FALSE(session.converged());
  EXPECT_EQ(session.database()->TupleCount(), 4u);  // the edges alone
  EXPECT_TRUE(*session.Holds("edge(d, e)"));
  EXPECT_FALSE(*session.Holds("path(a, e)"));
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("path(a, e)"));
}

TEST(MutationBatchTest, RetractRebuildsTheActiveDomain) {
  // notp(X) ranges X over the active domain. A retract committed
  // without maintenance resets the database to its facts: a term only
  // the retracted fact carried must leave the domain, or notp(c)
  // would survive. The result equals a fresh session's.
  const char* rules = "notp(X) :- not p(X).\n";
  Session session(LanguageMode::kLPS);  // incremental off: reset path
  ASSERT_OK(session.Load(std::string("p(a). q(b). q(c).\n") + rules));
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("notp(c)"));
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.RetractText("q(c)"));
  ASSERT_OK(batch.Commit());
  EXPECT_FALSE(*session.Holds("notp(c)"));

  Session fresh(LanguageMode::kLPS);
  ASSERT_OK(fresh.Load(std::string("p(a). q(b).\n") + rules));
  ASSERT_OK(fresh.Evaluate());
  EXPECT_EQ(session.database()->ToCanonicalString(*session.signature()),
            fresh.database()->ToCanonicalString(*fresh.signature()));
  EXPECT_EQ(session.database()->atom_domain().size(),
            fresh.database()->atom_domain().size());

  // The same retract on a session that never evaluated: the next
  // Evaluate() starts from the facts alone.
  Session deferred(LanguageMode::kLPS);
  ASSERT_OK(deferred.Load(std::string("p(a). q(b). q(c).\n") + rules));
  ASSERT_OK(deferred.Compile());
  MutationBatch retract = deferred.Mutate();
  ASSERT_OK(retract.RetractText("q(c)"));
  ASSERT_OK(retract.Commit());
  EXPECT_FALSE(*deferred.Holds("q(c)"));
  ASSERT_OK(deferred.Evaluate());
  EXPECT_EQ(deferred.database()->ToCanonicalString(*deferred.signature()),
            fresh.database()->ToCanonicalString(*fresh.signature()));
}

TEST(MutationBatchTest, StagingValidatesWithoutMutating) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  MutationBatch batch = session.Mutate();
  TermStore* store = session.store();
  // Arity mismatch and non-ground arguments are rejected at staging;
  // the batch stays usable. (The *named* Add overload would instead
  // declare a fresh edge/1 by inference.)
  PredicateId edge = session.program()->signature().Lookup("edge", 2);
  EXPECT_FALSE(batch.Add(edge, {store->MakeConstant("a")}).ok());
  EXPECT_FALSE(
      batch.AddText("edge(X, b)").ok());  // variables are not ground
  ASSERT_OK(batch.AddText("edge(d, e)"));
  // Retracting through an unknown predicate name is a no-op.
  ASSERT_OK(batch.Retract("never_declared", {store->MakeConstant("a")}));
  EXPECT_EQ(batch.pending(), 1u);
  ASSERT_OK(batch.Commit());
  EXPECT_TRUE(*session.Holds("path(a, e)"));
}

TEST(MutationBatchTest, RetractEverythingEmptiesDerivations) {
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.RetractText("edge(a, b)"));
  ASSERT_OK(batch.RetractText("edge(b, c)"));
  ASSERT_OK(batch.RetractText("edge(c, d)"));
  ASSERT_OK(batch.Commit());
  EXPECT_EQ(session.database()->TupleCount(), 0u);
  EXPECT_TRUE(session.converged());
}

TEST(IncrementalTest, ToggleReAddRevivesRowAndRederivesDownstream) {
  // Retract-then-re-add toggles: the re-add lands on the tombstoned
  // arena row of the original fact (revive-on-insert) *below* the
  // maintainer's watermark, so the insert rounds must join it as a
  // revived row rather than a range delta - and re-derive every
  // downstream path tuple, which sits on tombstoned rows itself.
  auto mutate = [](Session& s) {
    {
      MutationBatch batch = s.Mutate();
      ASSERT_OK(batch.RetractText("edge(b, c)"));
      ASSERT_OK(batch.Commit());
    }
    {
      MutationBatch batch = s.Mutate();
      ASSERT_OK(batch.AddText("edge(b, c)"));
      ASSERT_OK(batch.Commit());
    }
  };
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  const size_t arena_bytes_before = session.eval_stats().arena_bytes;
  mutate(session);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            GroundTruth(kGraph, mutate));
  EXPECT_TRUE(*session.Holds("path(a, d)"));
  EXPECT_TRUE(*session.Holds("path(b, c)"));
  // The toggle appended nothing: every fact and derivation revived its
  // original row, so the arena is exactly as large as before.
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(session.eval_stats().arena_bytes, arena_bytes_before);
}

TEST(IncrementalTest, InsertCountsRuleDerivationsOnly) {
  // tuples_derived counts the rows rules add, never facts: committing
  // edge(c, d) derives path(c, d), path(b, d) and path(a, d).
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(R"(
    edge(a, b). edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )"));
  ASSERT_OK(session.Evaluate());
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(c, d)"));
  ASSERT_OK(batch.Commit());
  EXPECT_GT(session.eval_stats().delta_rounds, 0u);
  EXPECT_EQ(session.eval_stats().tuples_derived, 3u);
}

TEST(IncrementalTest, EvaluateJoinsRowsRevivedBelowTheWatermark) {
  // The retract tombstones every path row edge(b, c) supported. A new
  // rule leaves the session unconverged with those tombstones in
  // place, so the re-add is deferred and the next Evaluate() re-derives
  // the path rows by reviving them - below the marks its first pass
  // took. Its later rounds must join them all the same. With the
  // recursive rule first, the first pass revives path(b, c) only after
  // the recursive rule ran, so path(b, d) needs that later round.
  constexpr const char* kReach = "reach(X) :- path(a, X).\n";
  constexpr const char* kRecursiveFirst = R"(
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    path(X, Y) :- edge(X, Y).
  )";
  for (const char* source : {kGraph, kRecursiveFirst}) {
    SCOPED_TRACE(source);
    Session session(LanguageMode::kLPS, Incremental());
    ASSERT_OK(session.Load(source));
    ASSERT_OK(session.Evaluate());
    {
      MutationBatch batch = session.Mutate();
      ASSERT_OK(batch.RetractText("edge(b, c)"));
      ASSERT_OK(batch.Commit());
    }
    ASSERT_TRUE(session.converged());
    ASSERT_FALSE(*session.Holds("path(a, d)"));
    ASSERT_OK(session.Load(kReach));
    ASSERT_OK(session.Compile());
    {
      MutationBatch batch = session.Mutate();
      ASSERT_OK(batch.AddText("edge(b, c)"));
      ASSERT_OK(batch.Commit());
    }
    ASSERT_FALSE(session.converged());
    ASSERT_OK(session.Evaluate());

    Session fresh(LanguageMode::kLPS);
    ASSERT_OK(fresh.Load(std::string(source) + kReach));
    ASSERT_OK(fresh.Evaluate());
    EXPECT_EQ(session.database()->ToCanonicalString(*session.signature()),
              fresh.database()->ToCanonicalString(*fresh.signature()));
    EXPECT_TRUE(*session.Holds("path(b, d)"));
  }
}

// Commits `retract` (fact texts) against an evaluated incremental
// session of `source` and checks the result against a from-scratch
// evaluation of the same mutation. Returns the maintained session.
std::unique_ptr<Session> RetractMatchesFromScratch(
    const std::string& source, const std::vector<std::string>& retract,
    LanguageMode mode = LanguageMode::kLPS) {
  auto mutate = [&](Session& s) {
    MutationBatch batch = s.Mutate();
    for (const std::string& f : retract) {
      EXPECT_TRUE(batch.RetractText(f).ok()) << f;
    }
    EXPECT_TRUE(batch.Commit().ok());
  };
  auto session = std::make_unique<Session>(mode, Incremental());
  EXPECT_TRUE(session->Load(source).ok());
  EXPECT_TRUE(session->Evaluate().ok());
  mutate(*session);
  EXPECT_TRUE(session->converged());
  EXPECT_EQ(session->database()->ToCanonicalString(
                session->program()->signature()),
            GroundTruth(source, mutate, mode));
  return session;
}

TEST(IncrementalTest, CycleLosesEveryTupleWithItsOnlyGrounding) {
  // r(b) and r(c) derive each other around the e(b, c), e(c, b) cycle;
  // with s(a) gone nothing outside the cycle supports them, so neither
  // may justify the other.
  auto s = RetractMatchesFromScratch(R"(
    s(a). e(a, b). e(b, c). e(c, b).
    r(X) :- s(X).
    r(Y) :- r(X), e(X, Y).
  )",
                                     {"s(a)"});
  EXPECT_FALSE(*s->Holds("r(a)"));
  EXPECT_FALSE(*s->Holds("r(b)"));
  EXPECT_FALSE(*s->Holds("r(c)"));
  // In doubt: s(a) and the three r tuples; none survives.
  EXPECT_EQ(s->eval_stats().overdeleted_tuples, 4u);
  EXPECT_EQ(s->eval_stats().rederived_tuples, 0u);
}

TEST(IncrementalTest, RetractedFactOfARuleHeadedPredicate) {
  // p has facts and rules: retracting p(a) keeps it, since q(a) still
  // derives it; retracting p(b) deletes it, since no rule derives it,
  // and takes its consequence r(b) along.
  auto s = RetractMatchesFromScratch(R"(
    p(a). p(b). q(a).
    p(X) :- q(X).
    r(X) :- p(X).
  )",
                                     {"p(a)", "p(b)"});
  EXPECT_TRUE(*s->Holds("p(a)"));
  EXPECT_TRUE(*s->Holds("r(a)"));
  EXPECT_FALSE(*s->Holds("p(b)"));
  EXPECT_FALSE(*s->Holds("r(b)"));
  EXPECT_EQ(s->eval_stats().rederived_tuples, 1u);  // p(a)
}

TEST(IncrementalTest, RetractThroughNonFlatRules) {
  // A builtin in the body keeps these rules off the flat kernel: the
  // check binds the head by unification and runs them on ExecSteps.
  auto s = RetractMatchesFromScratch(R"(
    edge(a, b). edge(b, c). edge(c, a). edge(a, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z), X != Z.
  )",
                                     {"edge(a, c)", "edge(c, a)"});
  EXPECT_TRUE(*s->Holds("path(a, c)"));   // through b
  EXPECT_FALSE(*s->Holds("path(c, b)"));  // the way back is gone
  EXPECT_GT(s->eval_stats().rederived_tuples, 0u);

  auto sets = RetractMatchesFromScratch(R"(
    p(x, {1}). p(x, {2}). q(x, {3}). q(x, {4}). p(y, {1}). q(y, {3}).
    both(X, S) :- p(X, A), q(X, B), union(A, B, S).
  )",
                                        {"p(x, {2})", "q(y, {3})"},
                                        LanguageMode::kELPS);
  EXPECT_TRUE(*sets->Holds("both(x, {1, 3})"));
  EXPECT_FALSE(*sets->Holds("both(x, {2, 3})"));
  EXPECT_FALSE(*sets->Holds("both(y, {1, 3})"));
}

TEST(IncrementalTest, RetractThroughARepeatedBodyPredicate) {
  // The retracted fact matches both body positions of `same` and
  // either position of `pair`: propagation must find every instance
  // through it.
  auto s = RetractMatchesFromScratch(R"(
    u(a). u(b).
    same(X) :- u(X), u(X).
    pair(X, Y) :- u(X), u(Y).
  )",
                                     {"u(a)"});
  EXPECT_FALSE(*s->Holds("same(a)"));
  EXPECT_FALSE(*s->Holds("pair(a, b)"));
  EXPECT_FALSE(*s->Holds("pair(b, a)"));
  EXPECT_TRUE(*s->Holds("pair(b, b)"));
}

TEST(IncrementalTest, PendingBodyFactDoesNotBlockItsInstance) {
  // Checking a(1) first explores f(1), whose one instance reads a(1)
  // itself - unproved while its check runs - and c(1). The check must
  // still visit c(1), so that proving a(1) through g(1) later also
  // proves f(1); skipping c(1) would delete f(1), which survives.
  auto s = RetractMatchesFromScratch(R"(
    e(1). h(1). k(1).
    a(X) :- e(X).
    a(X) :- f(X).
    a(X) :- g(X).
    f(X) :- a(X), c(X).
    f(X) :- e(X).
    c(X) :- h(X).
    c(X) :- e(X).
    g(X) :- k(X).
    g(X) :- e(X).
  )",
                                     {"e(1)"});
  EXPECT_TRUE(*s->Holds("f(1)"));
  EXPECT_TRUE(*s->Holds("a(1)"));
  // Every tuple put in doubt but e(1) itself was proved.
  EXPECT_EQ(s->eval_stats().overdeleted_tuples,
            s->eval_stats().rederived_tuples + 1);
}

TEST(IncrementalTest, FailedCommitDropsThePartialModel) {
  // The commit runs out of tuple budget half-way through its insert
  // pass: the session must stop claiming convergence, so neither a
  // query nor a freeze reads the partial model.
  Options options = Incremental();
  options.max_tuples = 10;
  Session session(LanguageMode::kLPS, options);
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(session.database()->TupleCount(), 9u);
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.AddText("edge(e, f)"));
  ASSERT_OK(batch.AddText("edge(f, g)"));
  Status st = batch.Commit();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_FALSE(session.converged());
  auto snap = session.Freeze();
  EXPECT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kResourceExhausted);
}

TEST(IncrementalTest, RetractKeepingEveryDerivationSharesTheRelation) {
  // Around the ring every path tuple has a derivation that avoids the
  // chord, so retracting it deletes only the chord: path is left
  // untouched and the republished snapshot shares it.
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(R"(
    edge(a, b). edge(b, c). edge(c, d). edge(d, a). edge(a, c).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )"));
  ASSERT_OK(session.Evaluate());
  auto first = session.Freeze();
  ASSERT_OK(first.status());
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.RetractText("edge(a, c)"));
  ASSERT_OK(batch.Commit());
  auto next = session.FreezeIncremental(*first);
  ASSERT_OK(next.status());
  EXPECT_EQ((*next)->cow_stats().relations_shared, 1u);  // path
  EXPECT_EQ((*next)->cow_stats().relations_cloned, 1u);  // edge
  EXPECT_TRUE(*session.Holds("path(a, c)"));
  EXPECT_EQ(session.eval_stats().overdeleted_tuples -
                session.eval_stats().rederived_tuples,
            1u);  // the chord alone
}

}  // namespace
}  // namespace lps
