// Tests for the Theorem 6 compiler: positive bodies (disjunction,
// nested quantifiers, exists) lower to pure LPS clauses with auxiliary
// predicates, preserving consequences over the original vocabulary.
#include "transform/positive_compiler.h"

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

class CompilerFixture : public ::testing::Test {
 protected:
  CompilerFixture() : program_(&store_) {}

  TermId V(const std::string& n, Sort s = Sort::kAtom) {
    return store_.MakeVariable(n, s);
  }

  TermStore store_;
  Program program_;
  CompileStats stats_;
};

TEST_F(CompilerFixture, ClauseShapedBodiesLowerWithoutAux) {
  PredicateId p = *program_.signature().Declare("p", {Sort::kSet});
  TermId xs = V("Xs", Sort::kSet);
  TermId e = V("E");
  GeneralClause gc;
  gc.head = Literal{p, {xs}, true};
  gc.body = Formula::Forall(
      e, xs, Formula::Atomic(Literal{kPredIn, {e, xs}, true}));
  std::vector<Clause> out;
  ASSERT_OK(CompileGeneralClause(&store_, &program_.signature(), gc,
                                 &out, &stats_));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(stats_.aux_predicates, 0u);
  EXPECT_EQ(out[0].quantifiers.size(), 1u);
  EXPECT_EQ(out[0].body.size(), 1u);
}

TEST_F(CompilerFixture, DisjunctionSplitsClauses) {
  PredicateId p = *program_.signature().Declare("p", {Sort::kAtom});
  PredicateId q = *program_.signature().Declare("q", {Sort::kAtom});
  PredicateId r = *program_.signature().Declare("r", {Sort::kAtom});
  TermId x = V("X");
  GeneralClause gc;
  gc.head = Literal{p, {x}, true};
  std::vector<FormulaPtr> alts;
  alts.push_back(Formula::Atomic(Literal{q, {x}, true}));
  alts.push_back(Formula::Atomic(Literal{r, {x}, true}));
  gc.body = Formula::Or(std::move(alts));
  std::vector<Clause> out;
  ASSERT_OK(CompileGeneralClause(&store_, &program_.signature(), gc,
                                 &out, &stats_));
  EXPECT_EQ(out.size(), 2u);  // p :- q and p :- r
  EXPECT_EQ(stats_.aux_predicates, 0u);
}

TEST_F(CompilerFixture, ForallOverDisjunctionNeedsAux) {
  // The union-style body: (forall z in Z)(z in X ; z in Y).
  PredicateId p =
      *program_.signature().Declare("p", {Sort::kSet, Sort::kSet,
                                          Sort::kSet});
  TermId xs = V("Xs", Sort::kSet);
  TermId ys = V("Ys", Sort::kSet);
  TermId zs = V("Zs", Sort::kSet);
  TermId z = V("Z");
  GeneralClause gc;
  gc.head = Literal{p, {xs, ys, zs}, true};
  std::vector<FormulaPtr> alts;
  alts.push_back(Formula::Atomic(Literal{kPredIn, {z, xs}, true}));
  alts.push_back(Formula::Atomic(Literal{kPredIn, {z, ys}, true}));
  gc.body = Formula::Forall(z, zs, Formula::Or(std::move(alts)));
  std::vector<Clause> out;
  ASSERT_OK(CompileGeneralClause(&store_, &program_.signature(), gc,
                                 &out, &stats_));
  // aux(z, Xs, Ys) :- z in Xs.  aux(z, Xs, Ys) :- z in Ys.
  // p(...) :- (forall z in Zs) aux(z, Xs, Ys).
  EXPECT_EQ(stats_.aux_predicates, 1u);
  EXPECT_EQ(out.size(), 3u);
  // Every emitted clause is valid LPS.
  for (const Clause& c : out) {
    EXPECT_TRUE(
        ValidateClause(store_, program_.signature(), c,
                       LanguageMode::kLPS)
            .ok());
  }
}

TEST_F(CompilerFixture, ExistsBecomesMembershipConjunct) {
  PredicateId p = *program_.signature().Declare("p", {Sort::kSet});
  PredicateId q = *program_.signature().Declare("q", {Sort::kAtom});
  TermId xs = V("Xs", Sort::kSet);
  TermId e = V("E");
  GeneralClause gc;
  gc.head = Literal{p, {xs}, true};
  gc.body =
      Formula::Exists(e, xs, Formula::Atomic(Literal{q, {e}, true}));
  std::vector<Clause> out;
  ASSERT_OK(CompileGeneralClause(&store_, &program_.signature(), gc,
                                 &out, &stats_));
  ASSERT_EQ(out.size(), 2u);
  // Main clause has "E in Xs" conjunct and no quantifier prefix.
  const Clause& main = out.back();
  EXPECT_TRUE(main.quantifiers.empty());
  bool has_membership = false;
  for (const Literal& l : main.body) {
    if (l.pred == kPredIn) has_membership = true;
  }
  EXPECT_TRUE(has_membership);
}

// Example 9's observation, executably: the generated union definition is
// bulkier than the hand-written one but semantically identical.
TEST(CompilerSemanticsTest, CompiledUnionMatchesBuiltin) {
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1}). s({2}). s({1, 2}). s({1, 3}). s({}). s({1, 2, 3}).
    myunion(X, Y, Z) :- s(X), s(Y), s(Z),
        (forall A in X : A in Z),
        (forall B in Y : B in Z),
        (forall C in Z : (C in X ; C in Y)).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  // Compare against the builtin on every domain triple.
  auto sets = session.Query("s(X)");
  ASSERT_TRUE(sets.ok());
  BuiltinOptions bopts;
  size_t agreements = 0;
  for (const Tuple& xs : *sets) {
    for (const Tuple& ys : *sets) {
      for (const Tuple& zs : *sets) {
        std::vector<TermId> args = {xs[0], ys[0], zs[0]};
        auto expected =
            CheckBuiltin(session.store(), kPredUnion, args, bopts);
        ASSERT_TRUE(expected.ok());
        PredicateId my = session.signature()->Lookup("myunion", 3);
        bool actual = session.database()->Contains(my, args);
        EXPECT_EQ(actual, *expected)
            << session.TupleToString(args);
        ++agreements;
      }
    }
  }
  EXPECT_EQ(agreements, 216u);  // 6^3 triples, all checked
}

TEST(CompilerSemanticsTest, MixedQuantifierDisjunctionExists) {
  // A body exercising every Theorem 6 case at once.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    s({1, 2}). s({7}). s({}).
    odd(1). odd(7). odd(3).
    interesting(X) :- s(X),
        (exists E in X : odd(E), forall A in X : A <= 7)
        ; X = {}.
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("interesting({1,2})"));
  EXPECT_TRUE(*session.Holds("interesting({7})"));
  EXPECT_TRUE(*session.Holds("interesting({})"));
}

TEST(CompilerSemanticsTest, AuxPredicatesInvisibleToQueries) {
  // Theorem 6's statement: consequences over the ORIGINAL language L
  // coincide. Aux predicates live in the extension L*.
  Session session(LanguageMode::kLPS);
  ASSERT_OK(session.Load(R"(
    q(a). r(b).
    p(X) :- q(X) ; r(X).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("p(a)"));
  EXPECT_TRUE(*session.Holds("p(b)"));
  EXPECT_FALSE(*session.Holds("p(c)"));
}

TEST(CompilerSemanticsTest, GroupingBodyFunnelsThroughSingleAux) {
  // A disjunctive grouping body must produce ONE group per key, not one
  // per disjunct.
  Session session(LanguageMode::kLDL);
  ASSERT_OK(session.Load(R"(
    likes(ann, tea). dislikes(ann, noise). likes(bob, beer).
    feelings(P, <T>) :- likes(P, T) ; dislikes(P, T).
  )"));
  ASSERT_OK(session.Compile());
  ASSERT_OK(session.Evaluate());
  EXPECT_TRUE(*session.Holds("feelings(ann, {tea, noise})"));
  EXPECT_TRUE(*session.Holds("feelings(bob, {beer})"));
  EXPECT_FALSE(*session.Holds("feelings(ann, {tea})"));
}

}  // namespace
}  // namespace lps
