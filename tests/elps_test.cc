// Section 5: ELPS - arbitrarily nested finite sets with untyped
// variables. Theorem 9 asserts the LPS results carry over; these tests
// exercise nesting through the whole pipeline.
#include <gtest/gtest.h>

#include "api/session.h"
#include "lang/validate.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

TEST(ElpsTest, NestedSetFactsAndQueries) {
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    family({{a, b}, {c}}).
    family({{}}).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("family({{c}, {a, b}})"));
  EXPECT_TRUE(*session.Holds("family({{}})"));
  EXPECT_FALSE(*session.Holds("family({})"));
}

TEST(ElpsTest, MembershipBetweenSets) {
  // In ELPS, membership may hold between a set and a set of sets.
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    family({{a, b}, {c}}).
    block(B) :- family(F), B in F.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("block({a, b})"));
  EXPECT_TRUE(*session.Holds("block({c})"));
  EXPECT_FALSE(*session.Holds("block({a})"));
}

TEST(ElpsTest, QuantifiersOverSetsOfSets) {
  // (forall B in F)(c in B): every block contains c.
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    family({{c, a}, {c}}).
    family({{c}, {d}}).
    allc(F) :- family(F), forall B in F : c in B.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("allc({{c, a}, {c}})"));
  EXPECT_FALSE(*session.Holds("allc({{c}, {d}})"));
}

TEST(ElpsTest, FlattenViaNestedQuantifiers) {
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    family({{a, b}, {c}}).
    elem(E) :- family(F), B in F, E in B.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  auto rows = session.Query("elem(X)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // a, b, c
}

TEST(ElpsTest, UnionOfSetsOfSets) {
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    f({{a}}). g({{b}, {c}}).
    both(Z) :- f(X), g(Y), union(X, Y, Z).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("both({{a}, {b}, {c}})"));
}

TEST(ElpsTest, SconsBuildsNestedStructure) {
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    f({a, b}).
    wrap(Z) :- f(X), scons(X, {}, Z).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("wrap({{a, b}})"));
}

TEST(ElpsTest, DeepNestingDepthThree) {
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    deep({{{x}}}).
    layer1(A) :- deep(D), A in D.
    layer2(B) :- layer1(A), B in A.
    layer3(C) :- layer2(B), C in B.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("layer1({{x}})"));
  EXPECT_TRUE(*session.Holds("layer2({x})"));
  EXPECT_TRUE(*session.Holds("layer3(x)"));
}

TEST(ElpsTest, MixedDepthElements) {
  // {a, {a}} is a legal ELPS set mixing an atom with a set.
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    m({a, {a}}).
    has_atom(X) :- m(X), a in X.
    has_set(X) :- m(X), {a} in X.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("has_atom({a, {a}})"));
  EXPECT_TRUE(*session.Holds("has_set({a, {a}})"));
}

TEST(ElpsTest, Theorem9MinimalModelStillWorks) {
  // Monotone nested program converges to a least model; re-evaluation
  // is stable (lfp reached).
  Session session(LanguageMode::kELPS);
  ASSERT_OK(session.Load(R"(
    seed({{a}}).
    grow(X) :- seed(X).
    grow(Z) :- grow(X), scons({b}, X, Z).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("grow({{a}, {b}})"));
  std::string model = session.database()->ToString(*session.signature());
  ASSERT_OK(session.Evaluate());
  EXPECT_EQ(session.database()->ToString(*session.signature()), model);
}

TEST(ElpsTest, GroupingCollectsSetsNatively) {
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    pred rel(atom, set).
    rel(k1, {a}). rel(k1, {b, c}). rel(k2, {}).
    collected(K, <S>) :- rel(K, S).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("collected(k1, {{a}, {b, c}})"));
  EXPECT_TRUE(*session.Holds("collected(k2, {{}})"));
}

TEST(ElpsTest, LpsValidationCatchesWhatElpsAllows) {
  const char* kNested = "p({{a}}).";
  Session lps(LanguageMode::kLPS);
  Status st = lps.Load(kNested);
  if (st.ok()) st = lps.Compile();
  EXPECT_FALSE(st.ok());
  Session elps(LanguageMode::kELPS);
  ASSERT_OK(elps.Load(kNested));
  ASSERT_OK(elps.Compile());
}

}  // namespace
}  // namespace lps
