// End-to-end engine tests: parse -> compile -> evaluate -> query,
// exercising the paper's introduction examples through a Session.
#include "api/session.h"

#include <gtest/gtest.h>

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

TEST(EngineTest, FactsAndHornRules) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    parent(tom, bob).
    parent(bob, ann).
    grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  auto holds = session.Holds("grandparent(tom, ann)");
  ASSERT_TRUE(holds.ok()) << holds.status().ToString();
  EXPECT_TRUE(*holds);
  EXPECT_FALSE(*session.Holds("grandparent(bob, tom)"));
}

TEST(EngineTest, TransitiveClosure) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("path(a, d)"));
  EXPECT_FALSE(*session.Holds("path(d, a)"));
  auto rows = session.Query("path(a, X)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // b, c, d
}

TEST(EngineTest, Example1Disjointness) {
  // disj(X, Y) :- (forall x in X)(forall y in Y)(x != y).
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1, 2}). s({3, 4}). s({2, 3}). s({}).
    disj(X, Y) :- s(X), s(Y), forall A in X, forall B in Y : A != B.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("disj({1,2}, {3,4})"));
  EXPECT_FALSE(*session.Holds("disj({1,2}, {2,3})"));
  EXPECT_FALSE(*session.Holds("disj({2,3}, {3,4})"));
  // Definition 4: vacuous truth on the empty set.
  EXPECT_TRUE(*session.Holds("disj({}, {1,2})"));
  EXPECT_TRUE(*session.Holds("disj({1,2}, {})"));
  EXPECT_TRUE(*session.Holds("disj({}, {})"));
}

TEST(EngineTest, Example2Subset) {
  // subset(X, Y) :- (forall x in X)(x in Y).
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1, 2}). s({1, 2, 3}). s({4}). s({}).
    subset(X, Y) :- s(X), s(Y), forall A in X : A in Y.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("subset({1,2}, {1,2,3})"));
  EXPECT_TRUE(*session.Holds("subset({1,2}, {1,2})"));
  EXPECT_FALSE(*session.Holds("subset({1,2,3}, {1,2})"));
  EXPECT_FALSE(*session.Holds("subset({4}, {1,2,3})"));
  EXPECT_TRUE(*session.Holds("subset({}, {4})"));
}

TEST(EngineTest, Example3UnionWithDisjunction) {
  // union defined with a disjunctive body (compiled via Theorem 6).
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1}). s({2}). s({1, 2}). s({1, 2, 3}).
    myunion(X, Y, Z) :- s(X), s(Y), s(Z),
        (forall A in X : A in Z),
        (forall B in Y : B in Z),
        (forall C in Z : (C in X ; C in Y)).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("myunion({1}, {2}, {1,2})"));
  EXPECT_TRUE(*session.Holds("myunion({1}, {1,2}, {1,2})"));
  EXPECT_FALSE(*session.Holds("myunion({1}, {2}, {1,2,3})"));
  EXPECT_FALSE(*session.Holds("myunion({1}, {2}, {1})"));
}

TEST(EngineTest, BuiltinUnionAndScons) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    a({1, 2}). b({2, 3}).
    u(Z) :- a(X), b(Y), union(X, Y, Z).
    c(Z) :- a(X), scons(9, X, Z).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("u({1,2,3})"));
  EXPECT_TRUE(*session.Holds("c({1,2,9})"));
}

TEST(EngineTest, ArithmeticBuiltins) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    n(3). n(4).
    sum(K) :- n(X), n(Y), X < Y, add(X, Y, K).
    prod(K) :- n(X), n(Y), mul(X, Y, K).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("sum(7)"));
  EXPECT_FALSE(*session.Holds("sum(6)"));  // X < Y excludes 3+3
  EXPECT_TRUE(*session.Holds("prod(9)"));
  EXPECT_TRUE(*session.Holds("prod(12)"));
  EXPECT_TRUE(*session.Holds("prod(16)"));
}

TEST(EngineTest, Example4Unnest) {
  // S(x, y) :- R(x, Y), y in Y.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    r(p1, {a, b}).
    r(p2, {c}).
    s(X, Y) :- r(X, Ys), Y in Ys.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("s(p1, a)"));
  EXPECT_TRUE(*session.Holds("s(p1, b)"));
  EXPECT_TRUE(*session.Holds("s(p2, c)"));
  auto rows = session.Query("s(X, Y)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(EngineTest, SetValuedHeadConstruction) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    p(a, b).
    pair_set({X, Y}) :- p(X, Y).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("pair_set({a, b})"));
  EXPECT_TRUE(*session.Holds("pair_set({b, a})"));  // same set
}

TEST(EngineTest, StratifiedNegation) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    node(a). node(b). node(c).
    edge(a, b).
    unreachable(X) :- node(X), not reach(X).
    reach(b).
    reach(Y) :- reach(X), edge(X, Y).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("unreachable(a)"));
  EXPECT_TRUE(*session.Holds("unreachable(c)"));
  EXPECT_FALSE(*session.Holds("unreachable(b)"));
}

TEST(EngineTest, UnstratifiableProgramRejected) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    p(a) :- not q(a).
    q(a) :- not p(a).
  )"));
  ASSERT_OK(session.Compile());
  Status st = session.Evaluate();
  EXPECT_EQ(st.code(), StatusCode::kStratificationError);
}

TEST(EngineTest, MembershipQueryOnBuiltin) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load("s({1,2,3})."));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  auto rows = session.Query("X in {1, 2, 3}");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(EngineTest, PendingQueriesCollected) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    p(a).
    ?- p(X).
  )"));
  ASSERT_OK(session.Compile());
  EXPECT_EQ(session.pending_queries().size(), 1u);
}

TEST(EngineTest, ParseErrorsSurfaceWithLocation) {
  Session session(LanguageMode::kLPS);
  Status st = session.Load("p(a) :- q(.");
  if (st.ok()) st = session.Compile();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line"), std::string::npos);
}

TEST(EngineTest, LpsModeRejectsNestedSets) {
  Session session(LanguageMode::kLPS);
  Status st = session.Load("p({{a}}).");
  if (st.ok()) st = session.Compile();
  EXPECT_EQ(st.code(), StatusCode::kSortError);
  Session elps(LanguageMode::kELPS);
  ASSERT_OK(elps.Load("p({{a}})."));
  ASSERT_OK(elps.Compile());
}

TEST(EngineTest, TopDownSolvesWithoutEvaluate) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    edge(a, b). edge(b, c).
    hop(X, Z) :- edge(X, Y), edge(Y, Z).
  )"));
  ASSERT_OK(session.Compile());
  auto rows = session.SolveTopDown("hop(a, X)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
}

}  // namespace
}  // namespace lps
