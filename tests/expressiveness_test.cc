// Falsification experiments for the paper's impossibility results.
//
// Theorem 7: union is not definable in LPS without auxiliary
// predicates. We run the paper's own failed attempt (Section 4.1's
// two-clause split) and exhibit the wrong tuples it derives, then show
// the auxiliary-predicate definition is exact.
//
// Theorem 8: the set construction B(X) = {x | A(x)} is not definable in
// any language with minimal-model semantics. We run the proof's P1/P2
// scenario on the natural positive attempt and observe exactly the
// failure mode the proof predicts (all subsets satisfy B); the
// stratified repair of Section 4.2 is covered in ldl_test.cc.
#include <gtest/gtest.h>

#include "api/session.h"
#include "term/printer.h"
#include "term/set_algebra.h"

namespace lps {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::lps::Status _st = (expr);                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (0)

// Section 4.1: splitting the disjunction into two clauses does NOT give
// union; it gives "X u Y subseteq Z and (Z subseteq X or Z subseteq Y)".
TEST(Theorem7Test, NaiveTwoClauseSplitIsNotUnion) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1}). s({2}). s({1, 2}). s({1, 2, 3}).
    sub(X, Y) :- s(X), s(Y), forall E in X : E in Y.
    bad_union(X, Y, Z) :- sub(X, Z), sub(Y, Z), s(Z),
                          forall C in Z : C in X.
    bad_union(X, Y, Z) :- sub(X, Z), sub(Y, Z), s(Z),
                          forall C in Z : C in Y.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  // The real union {1} u {2} = {1,2} is MISSED by the split ...
  EXPECT_FALSE(*session.Holds("bad_union({1}, {2}, {1,2})"));
  // ... while Z subseteq X cases wrongly pass with Y arbitrary.
  EXPECT_TRUE(*session.Holds("bad_union({1,2}, {1}, {1,2})"));
  // The correct aux-based definition (Example 3 / Theorem 6) is exact.
  ASSERT_OK(session.Load(R"(
    good_union(X, Y, Z) :- sub(X, Z), sub(Y, Z), s(Z),
                           forall C in Z : (C in X ; C in Y).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("good_union({1}, {2}, {1,2})"));
  EXPECT_FALSE(*session.Holds("good_union({1}, {2}, {1,2,3})"));
}

// Exhaustive check that the aux-based union agrees with set-theoretic
// union on every active triple (the positive half of Theorem 7: *with*
// auxiliary predicates the relation is definable).
TEST(Theorem7Test, AuxUnionIsExactOnDomain) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({}). s({1}). s({2}). s({1, 2}). s({2, 3}). s({1, 2, 3}).
    sub(X, Y) :- s(X), s(Y), forall E in X : E in Y.
    u(X, Y, Z) :- sub(X, Z), sub(Y, Z), s(Z),
                  forall C in Z : (C in X ; C in Y).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  auto sets = session.Query("s(S)");
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->size(), 6u);
  PredicateId u = session.signature()->Lookup("u", 3);
  size_t positives = 0;
  for (const Tuple& x : *sets) {
    for (const Tuple& y : *sets) {
      TermId expected = SetUnion(session.store(), x[0], y[0]);
      for (const Tuple& z : *sets) {
        bool holds =
            session.database()->Contains(u, {x[0], y[0], z[0]});
        EXPECT_EQ(holds, z[0] == expected)
            << session.TupleToString({x[0], y[0], z[0]});
        if (holds) ++positives;
      }
    }
  }
  // The domain is union-closed, so every one of the 36 pairs has its
  // union found.
  EXPECT_EQ(positives, 36u);
}

// Theorem 8, run exactly as in the proof: P1 = {A(c1)} and
// P2 = {A(c1), A(c2)}. The positive definition B(X) :- (forall x in X)
// A(x) accepts every subset, so under P2 it still accepts {c1} - which
// the true set construction must reject. Monotonicity makes this
// unavoidable: M_P1 subseteq M_P2 for positive programs.
TEST(Theorem8Test, PositiveBOverApproximatesUnderGrowth) {
  const char* kDefinition = R"(
    dom({c1}). dom({c2}). dom({c1, c2}). dom({}).
    b(X) :- dom(X), forall E in X : a(E).
  )";
  Session p1(LanguageMode::kLPS);
  ASSERT_OK(p1.Load(kDefinition));
  ASSERT_OK(p1.Compile());
  ASSERT_OK(p1.Load("a(c1)."));
  ASSERT_OK(p1.Compile());
  ASSERT_OK(p1.Evaluate());
  // Under P1 the candidate definition already over-approximates:
  EXPECT_TRUE(*p1.Holds("b({c1})"));
  EXPECT_TRUE(*p1.Holds("b({})"));  // subset, wrongly accepted
  EXPECT_FALSE(*p1.Holds("b({c1, c2})"));

  Session p2(LanguageMode::kLPS);
  ASSERT_OK(p2.Load(kDefinition));
  ASSERT_OK(p2.Compile());
  ASSERT_OK(p2.Load("a(c1). a(c2)."));
  ASSERT_OK(p2.Compile());
  ASSERT_OK(p2.Evaluate());
  // The true construction under P2 is {c1, c2} only; the positive
  // definition still accepts {c1} - exactly the proof's contradiction:
  // M_P1's B-facts persist in M_P2.
  EXPECT_TRUE(*p2.Holds("b({c1, c2})"));
  EXPECT_TRUE(*p2.Holds("b({c1})")) << "monotonicity violated?!";
  // Machine-check the monotonicity claim itself.
  PredicateId b1 = p1.signature()->Lookup("b", 1);
  const Relation* r1 = p1.database()->FindRelation(b1);
  ASSERT_NE(r1, nullptr);
  for (TupleRef t : r1->rows()) {
    // Same textual term in the other session's store.
    std::string text =
        "b(" + TermToString(*p1.store(), t[0]) + ")";
    EXPECT_TRUE(*p2.Holds(text)) << text;
  }
}

// The stratified repair (Section 4.2) run against BOTH EDBs: unlike the
// positive attempt it tracks the intended set exactly - showing the
// impossibility is really about minimal-model (negation-free) LPS.
TEST(Theorem8Test, StratifiedRepairIsExactUnderGrowth) {
  const char* kDefinition = R"(
    dom({c1}). dom({c2}). dom({c1, c2}). dom({}).
    c(X) :- dom(X), dom(Y), (forall E in Y : a(E)),
            (forall E in X : E in Y), (exists W in Y : W notin X).
    b(X) :- dom(X), (forall E in X : a(E)), not c(X).
  )";
  Session p1(LanguageMode::kLPS);
  ASSERT_OK(p1.Load(kDefinition));
  ASSERT_OK(p1.Compile());
  ASSERT_OK(p1.Load("a(c1)."));
  ASSERT_OK(p1.Compile());
  ASSERT_OK(p1.Evaluate());
  EXPECT_TRUE(*p1.Holds("b({c1})"));
  EXPECT_FALSE(*p1.Holds("b({})"));
  EXPECT_FALSE(*p1.Holds("b({c1, c2})"));

  Session p2(LanguageMode::kLPS);
  ASSERT_OK(p2.Load(kDefinition));
  ASSERT_OK(p2.Compile());
  ASSERT_OK(p2.Load("a(c1). a(c2)."));
  ASSERT_OK(p2.Compile());
  ASSERT_OK(p2.Evaluate());
  EXPECT_TRUE(*p2.Holds("b({c1, c2})"));
  EXPECT_FALSE(*p2.Holds("b({c1})"));  // no longer maximal
  EXPECT_FALSE(*p2.Holds("b({})"));
}

}  // namespace
}  // namespace lps
