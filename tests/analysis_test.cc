// Tests for the dependency graph, reachability pruning, and program
// statistics.
#include "transform/analysis.h"

#include <gtest/gtest.h>

#include "api/session.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

class AnalysisTest : public ::testing::Test {
 protected:
  void Load(const std::string& src,
            LanguageMode mode = LanguageMode::kLDL) {
    session_ = std::make_unique<Session>(mode);
    Status st = session_->Load(src);
    if (st.ok()) st = session_->Compile();
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  PredicateId Pred(const std::string& name, size_t arity) {
    return session_->signature()->Lookup(name, arity);
  }
  std::unique_ptr<Session> session_;
};

TEST_F(AnalysisTest, DependencyEdges) {
  Load(R"(
    p(X) :- q(X), not r(X).
    q(a).
  )");
  DependencyGraph g = DependencyGraph::Build(*session_->program());
  ASSERT_EQ(g.edges().size(), 2u);
  bool saw_neg = false;
  for (const DependencyEdge& e : g.edges()) {
    if (!e.positive) {
      saw_neg = true;
      EXPECT_EQ(e.to, Pred("r", 1));
    }
  }
  EXPECT_TRUE(saw_neg);
}

TEST_F(AnalysisTest, RecursionDetection) {
  Load(R"(
    edge(a, b).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    top(X) :- path(X, X).
  )");
  DependencyGraph g = DependencyGraph::Build(*session_->program());
  EXPECT_TRUE(g.IsRecursive(Pred("path", 2)));
  EXPECT_FALSE(g.IsRecursive(Pred("edge", 2)));
  EXPECT_FALSE(g.IsRecursive(Pred("top", 1)));
  EXPECT_FALSE(g.HasNegativeCycle());
}

TEST_F(AnalysisTest, NegativeCycleDetection) {
  Load(R"(
    p(X) :- q(X), not r(X).
    r(X) :- p(X).
    q(a).
  )");
  DependencyGraph g = DependencyGraph::Build(*session_->program());
  EXPECT_TRUE(g.HasNegativeCycle());
}

TEST_F(AnalysisTest, ReachabilityAndPruning) {
  Load(R"(
    a(1). b(2). c(3).
    wanted(X) :- a(X).
    helper(X) :- b(X).
    unwanted(X) :- helper(X), c(X).
  )");
  DependencyGraph g = DependencyGraph::Build(*session_->program());
  auto reach = g.Reachable({Pred("wanted", 1)});
  EXPECT_EQ(reach.size(), 2u);  // wanted, a

  Program pruned =
      PruneUnreachable(*session_->program(), {Pred("wanted", 1)});
  EXPECT_EQ(pruned.clauses().size(), 1u);

  // The pruned program still computes the root's relation from the
  // session's facts.
  std::unique_ptr<Database> db = session_->database()->FactsFor(pruned);
  auto stats = EvaluateProgram(pruned, db.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(
      db->Contains(Pred("wanted", 1), {session_->store()->MakeInt(1)}));
}

TEST_F(AnalysisTest, PruningKeepsTransitiveSupport) {
  Load(R"(
    base(1).
    mid(X) :- base(X).
    top(X) :- mid(X).
  )");
  Program pruned =
      PruneUnreachable(*session_->program(), {Pred("top", 1)});
  EXPECT_EQ(pruned.clauses().size(), 2u);
}

TEST_F(AnalysisTest, StatsSummarise) {
  Load(R"(
    s({1, 2}).
    q(1).
    allq(X) :- s(X), forall E in X : q(E).
    neg(X) :- s(X), not allq(X).
    grp(X, <E>) :- s(X), E in X.
  )");
  ProgramStats stats =
      AnalyzeProgram(*session_->program(), *session_->database());
  EXPECT_EQ(stats.facts, 2u);
  EXPECT_GE(stats.clauses, 3u);
  EXPECT_GE(stats.quantified_clauses, 1u);
  EXPECT_EQ(stats.grouping_clauses, 1u);
  EXPECT_EQ(stats.negated_literals, 1u);
  EXPECT_GE(stats.builtin_literals, 1u);
  EXPECT_EQ(stats.recursive_predicates, 0u);
  std::string text = ProgramStatsToString(stats);
  EXPECT_NE(text.find("grouping=1"), std::string::npos);
}

TEST_F(AnalysisTest, TheoremSixAuxiliariesPruneAway) {
  // Compile a disjunctive rule, then prune from a root that does not
  // use it: the Theorem 6 auxiliaries disappear.
  Load(R"(
    q(a). r(b). z(c).
    either(X) :- q(X) ; r(X).
    solo(X) :- z(X).
  )");
  size_t before = session_->program()->clauses().size();
  Program pruned =
      PruneUnreachable(*session_->program(), {Pred("solo", 1)});
  EXPECT_LT(pruned.clauses().size(), before);
  EXPECT_EQ(pruned.clauses().size(), 1u);
}

}  // namespace
}  // namespace lps
