// Tests for the model checker (Definition 3 / Theorem 3 oracle) and
// the aggregate builtins extension.
#include "eval/model_check.h"

#include <gtest/gtest.h>

#include "api/session.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

TEST(ModelCheckTest, EvaluatedDatabaseIsAModel) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({a, b}). s({b}). s({}).
    q(a). q(b).
    allq(X) :- s(X), forall E in X : q(E).
    sub(X, Y) :- s(X), s(Y), forall E in X : E in Y.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  auto check = CheckModel(*session.program(), *session.database(),
                          session.database());
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->is_model) << *check->counterexample;
  EXPECT_GT(check->instances_checked, 10u);
}

TEST(ModelCheckTest, MissingDerivedTupleIsCaught) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    edge(a, b). edge(b, c).
    path(X, Y) :- edge(X, Y).
  )"));
  ASSERT_OK(session.Compile());
  // An empty candidate misses the facts themselves.
  Database empty(session.store(), session.signature());
  auto check = CheckModel(*session.program(), *session.database(), &empty);
  ASSERT_TRUE(check.ok());
  EXPECT_FALSE(check->is_model);
  ASSERT_TRUE(check->counterexample.has_value());
  EXPECT_NE(check->counterexample->find("edge"), std::string::npos);
}

TEST(ModelCheckTest, ViolatedRuleRendersCounterexample) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    edge(a, b).
    path(X, Y) :- edge(X, Y).
  )"));
  ASSERT_OK(session.Compile());
  // Hand-build a database that has the fact but not the consequence.
  PredicateId edge = session.signature()->Lookup("edge", 2);
  Database db(session.store(), session.signature());
  db.AddTuple(edge, {session.store()->MakeConstant("a"),
                     session.store()->MakeConstant("b")});
  auto check = CheckModel(*session.program(), *session.database(), &db);
  ASSERT_TRUE(check.ok());
  EXPECT_FALSE(check->is_model);
  EXPECT_NE(check->counterexample->find("path"), std::string::npos);
}

TEST(ModelCheckTest, NonMinimalModelsStillPass) {
  // Theorem 3: the least model is contained in every model; a database
  // with EXTRA tuples can still be a model (closure is the only
  // condition checked).
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    q(a).
    p(X) :- q(X).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  PredicateId p = session.signature()->Lookup("p", 1);
  session.database()->AddTuple(p, {session.store()->MakeConstant("zzz")});
  auto check = CheckModel(*session.program(), *session.database(),
                          session.database());
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->is_model);
}

TEST(ModelCheckTest, GroupingRejected) {
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    emp(sales, ann).
    team(D, <E>) :- emp(D, E).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  auto check = CheckModel(*session.program(), *session.database(),
                          session.database());
  EXPECT_EQ(check.status().code(), StatusCode::kUnimplemented);
}

TEST(AggregateBuiltinsTest, SumMinMax) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({3, 5, 9}). s({}). s({7}).
    total(X, N) :- s(X), ssum(X, N).
    lo(X, N) :- s(X), smin(X, N).
    hi(X, N) :- s(X), smax(X, N).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("total({3,5,9}, 17)"));
  EXPECT_TRUE(*session.Holds("total({}, 0)"));
  EXPECT_TRUE(*session.Holds("total({7}, 7)"));
  EXPECT_TRUE(*session.Holds("lo({3,5,9}, 3)"));
  EXPECT_TRUE(*session.Holds("hi({3,5,9}, 9)"));
  // min/max of the empty set are undefined.
  auto rows = session.Query("lo({}, N)");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(AggregateBuiltinsTest, NonIntegerElementsFail) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({a, b}).
    total(X, N) :- s(X), ssum(X, N).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  auto rows = session.Query("total(X, N)");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(AggregateBuiltinsTest, AgreesWithExample5Recursion) {
  // The builtin ssum computes what Example 5's recursive definition
  // computes - cross-validated on the same sets.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    sum({}, 0).
    sum(Z, K) :- schoose(Z, E, Rest), sum(Rest, M), add(E, M, K).
  )"));
  ASSERT_OK(session.Compile());
  for (const char* set : {"{1,2,3}", "{10}", "{}", "{4, 40, 400}"}) {
    auto recursive =
        session.SolveTopDown(std::string("sum(") + set + ", K)");
    ASSERT_TRUE(recursive.ok()) << recursive.status().ToString();
    ASSERT_EQ(recursive->size(), 1u) << set;
    auto builtin = session.Query(std::string("ssum(") + set + ", K)");
    ASSERT_TRUE(builtin.ok());
    ASSERT_EQ(builtin->size(), 1u) << set;
    EXPECT_EQ((*recursive)[0][1], (*builtin)[0][1]) << set;
  }
}

}  // namespace
}  // namespace lps
