// Tests for incremental view maintenance (eval/incremental.h) and the
// transactional MutationBatch surface (api/mutation.h): delta
// re-convergence equals the from-scratch fixpoint tuple for tuple,
// retraction runs DRed with re-derivation, the epoch split keeps
// rule_epoch() stable across fact-only commits, and Abort()/deferred
// commits leave the expected state behind.
#include "eval/incremental.h"

#include <gtest/gtest.h>

#include <string>

#include "api/session.h"

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

TEST(IncrementalTest, RetractRunsDRedWithRederivation) {
  // Two derivations of path(a, c); retracting edge(b, c) kills one but
  // re-derivation must revive path(a, c) through edge(a, c).
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
  EXPECT_TRUE(*session.Holds("path(a, c)"));   // revived
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
  auto ran = maintainer.Maintain({}, {}, IncrementalMaintainer::FactCounts{});
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
  const uint64_t epoch = session.program_epoch();
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
  EXPECT_EQ(session.program_epoch(), epoch);
  EXPECT_EQ(session.database()->ToCanonicalString(
                session.program()->signature()),
            before);
  EXPECT_FALSE(*session.Holds("edge(d, e)"));
}

TEST(MutationBatchTest, DeferredCommitTakesEffectAtEvaluate) {
  // Committing before the first Evaluate() only updates the program;
  // the facts take effect at the next Evaluate().
  Session session(LanguageMode::kLPS, Incremental());
  ASSERT_OK(session.Load(kGraph));
  ASSERT_OK(session.Compile());  // AddText parses against the signature
  MutationBatch batch = session.Mutate();
  ASSERT_OK(batch.AddText("edge(d, e)"));
  ASSERT_OK(batch.Commit());
  EXPECT_FALSE(session.converged());
  EXPECT_EQ(session.database()->TupleCount(), 0u);
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("path(a, e)"));
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
  // maintainer's watermark, so the incremental pass must pick it up
  // via the revive log rather than a range delta - and re-derive every
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

}  // namespace
}  // namespace lps
