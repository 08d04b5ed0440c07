// Integration tests running every worked example of the paper's
// introduction (Examples 1-6) end to end, plus the member/disj Prolog
// contrast that motivates LPS.
#include <gtest/gtest.h>

#include "api/session.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

// Examples 1-3 in one program: disj, subset, union.
TEST(PaperExamples, Examples1To3) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({}). s({1}). s({2}). s({1, 2}). s({2, 3}). s({1, 2, 3}).

    % Example 1: disj(X, Y) :- (forall x in X)(forall y in Y)(x != y).
    disj(X, Y) :- s(X), s(Y), forall A in X, forall B in Y : A != B.

    % Example 2: subset(X, Y) :- (forall x in X)(x in Y).
    subset(X, Y) :- s(X), s(Y), forall A in X : A in Y.

    % Example 3: union via subset + disjunction (Theorem 6 compiles it).
    u(X, Y, Z) :- subset(X, Z), subset(Y, Z),
                  forall C in Z : (C in X ; C in Y).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());

  EXPECT_TRUE(*session.Holds("disj({1}, {2,3})"));
  EXPECT_FALSE(*session.Holds("disj({1,2}, {2,3})"));
  EXPECT_TRUE(*session.Holds("disj({}, {1,2,3})"));

  EXPECT_TRUE(*session.Holds("subset({1}, {1,2})"));
  EXPECT_TRUE(*session.Holds("subset({}, {})"));
  EXPECT_FALSE(*session.Holds("subset({2,3}, {1,2})"));

  EXPECT_TRUE(*session.Holds("u({1}, {2}, {1,2})"));
  EXPECT_TRUE(*session.Holds("u({1,2}, {2,3}, {1,2,3})"));
  EXPECT_FALSE(*session.Holds("u({1}, {2}, {1,2,3})"));
  EXPECT_TRUE(*session.Holds("u({}, {}, {})"));
}

// Example 4: unnest of a non-1NF relation.
TEST(PaperExamples, Example4Unnest) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    pred r(atom, set).
    r(row1, {a, b, c}).
    r(row2, {c, d}).
    s(X, Y) :- r(X, Ys), Y in Ys.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  auto rows = session.Query("s(X, Y)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_TRUE(*session.Holds("s(row1, a)"));
  EXPECT_TRUE(*session.Holds("s(row2, d)"));
}

// Example 5: sum of a set of numbers, via the recursive disjoint-union
// decomposition run top-down (the bottom-up direction would need all
// subsets active; see DESIGN.md).
TEST(PaperExamples, Example5Sum) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    sum({}, 0).
    sum(X, N) :- X = {E}, N = E.
    sum(Z, K) :- schoose(Z, E, Rest), sum(Rest, M), add(E, M, K).
  )"));
  ASSERT_OK(session.Compile());
  auto rows = session.SolveTopDown("sum({3, 5, 9}, K)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_GE(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], session.store()->MakeInt(17));
  // Base cases from the paper: singleton and empty.
  auto single = session.SolveTopDown("sum({4}, K)");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ((*single)[0][1], session.store()->MakeInt(4));
}

// Example 6: bill-of-materials cost rollup.
TEST(PaperExamples, Example6ObjectCosts) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    pred parts(atom, set).
    pred cost(atom, atom).
    parts(car, {engine, wheel, frame}).
    parts(engine, {piston, valve}).
    cost(piston, 40). cost(valve, 10). cost(engine, 60).
    cost(wheel, 25). cost(frame, 100).

    sum_costs({}, 0).
    sum_costs(Z, K) :- schoose(Z, P, Rest), cost(P, M),
                       sum_costs(Rest, N), add(M, N, K).
    obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).
  )"));
  ASSERT_OK(session.Compile());
  auto car = session.SolveTopDown("obj_cost(car, N)");
  ASSERT_TRUE(car.ok()) << car.status().ToString();
  ASSERT_EQ(car->size(), 1u);
  EXPECT_EQ((*car)[0][1], session.store()->MakeInt(185));
  auto eng = session.SolveTopDown("obj_cost(engine, N)");
  ASSERT_TRUE(eng.ok());
  EXPECT_EQ((*eng)[0][1], session.store()->MakeInt(50));
}

// The introduction's Prolog pain point, solved declaratively: no list
// iteration boilerplate, one rule per predicate.
TEST(PaperExamples, IntroMotivationMemberAndDisj) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({p, q}). s({r}). s({}).
    nonempty(X) :- s(X), exists E in X : E = E.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  // member is primitive:
  EXPECT_TRUE(*session.Holds("p in {p, q}"));
  EXPECT_FALSE(*session.Holds("r in {p, q}"));
  EXPECT_TRUE(*session.Holds("nonempty({p,q})"));
  EXPECT_FALSE(*session.Holds("nonempty({})"));
}

// Example 7's lesson: the clause ":- (forall x in X) p(x)" has no LPS
// models because X = {} vacuously satisfies the body. Our engine has no
// denial clauses, but the vacuous-truth behaviour it rests on is
// checkable: the body holds for X = {} regardless of p.
TEST(PaperExamples, Example7VacuousTruth) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    witness(X) :- X = {}, forall E in X : p(E).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("witness({})"));
}

}  // namespace
}  // namespace lps
